"""One workload run in a fresh process; ``run.py`` starts it with the thread caps set.

Order of a run: check the BLAS thread count, run the reference rep (fixed
seed, checked against reference.json; it also warms caches and the CPU),
then measure for ``--seconds``, timing a short batch of ``setup`` calls
before each rep:

- ``--trace 0`` repeats untraced reps and reports the end-to-end metrics.
  Their times are in reference seconds from a ``HostClock`` (hostclock.py),
  which cancels the host's speed phases; the raw wall time and the host
  speed factor are printed beside them;
- ``--trace 1`` repeats (untraced, traced) pairs on the same inputs, checks
  that both wrote byte-identical outputs, and reports the per-layer metrics.

Detail lines go to stdout; the last line is the JSON result. The full record
(environment, quartiles, sample counts, output hashes, per-span table) is
written to ``.perfbench_runs/<workload>/result.json`` in the checkout.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter, process_time

import envinfo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_runs")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# each set-up batch lasts this share of a rep, and at least SETUP_MIN_BATCH set-ups
SETUP_SHARE = 0.05
SETUP_MIN_BATCH = 3
REFERENCE_SEED = 0


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def say(line):
    print(f"perfbench | {line}", flush=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(sorted_values, pct):
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_rep(wl, seed, out_dir, tracer, clock=None):
    """One rep; an exception fails all of the rep's units.

    Returns the result, wall and CPU time (reference seconds with a clock),
    and the raw wall time less the clock's calibration slices.
    """
    from workloads import RepResult

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    w0, c0 = perf_counter(), process_time()
    spent0 = clock.spent_wall if clock is not None else 0.0
    ref0 = clock.now() if clock is not None else None
    try:
        res = wl.rep(seed, out_dir, tracer, clock)
    except Exception:  # a failing rep is counted and reported, never dropped
        res = RepResult(attempted=wl.units, failed=wl.units, raised=True,
                        problems=[f"rep raised:\n{traceback.format_exc()}"])
    wall, cpu = perf_counter() - w0, process_time() - c0
    if clock is None:
        return res, wall, cpu, wall
    ref1 = clock.now()
    return res, ref1[0] - ref0[0], ref1[1] - ref0[1], wall - (clock.spent_wall - spent0)


def fail_rep(res, problem):
    res.problems.append(problem)
    res.failed = res.attempted


def check_reference(name, res):
    """Compare the fixed-seed rep with reference.json; hashes are reported, not required."""
    from checks import (ACC_TOL, AUDIT_X_TOL, RATIO_Q_TOL, check_close)

    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh).get(name)
    if ref is None:
        return [f"reference.json has no entry for {name}"], False
    problems = []
    q = res.quality
    if "final_test_acc" in ref:
        problems += check_close("final_test_acc", q.get("final_test_acc", float("nan")),
                                ref["final_test_acc"], ACC_TOL)
    if "audit_x_mean" in ref:
        problems += check_close("audit_x_mean", q.get("audit_x_mean", float("nan")),
                                ref["audit_x_mean"], AUDIT_X_TOL)
    if "final_q" in ref:
        got = q.get("final_q") or [float("nan")] * len(ref["final_q"])
        worst = max(abs(a - b) for a, b in zip(got, ref["final_q"]))
        if not worst <= RATIO_Q_TOL:
            problems.append(f"final q {got} differs from reference by {worst!r}")
    return problems, res.digest == ref.get("digest")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        die(f"--seed must be >= 0, got {args.seed}")

    for var in envinfo.THREAD_VARS:
        if os.environ.get(var) != "1":
            die(f"{var} must be 1 in the worker's environment, got {os.environ.get(var)!r}")
    if not os.path.isfile(os.path.join(SRC, "adalase", "__init__.py")):
        die(f"no adalase package under {SRC}")
    sys.path.insert(0, SRC)
    threads = envinfo.blas_threads()
    if threads != 1:
        die(f"BLAS reports {threads} threads after capping; expected 1")
    import adalase

    if not os.path.abspath(adalase.__file__).startswith(SRC + os.sep):
        die(f"imported adalase from {adalase.__file__}, not from {SRC}")

    from hostclock import HostClock
    from tracer import Tracer
    from workloads import WORKLOADS, wall_now

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    out = os.path.join(OUT_ROOT, wl.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = envinfo.environment(ROOT, wl.name, args.seed, threads)
    say("env " + json.dumps(env, sort_keys=True))
    record = {"env": env, "trace": args.trace, "seconds": args.seconds}

    problems = []
    attempted = failed = 0

    def account(res, label):
        nonlocal attempted, failed
        attempted += res.attempted
        failed += res.failed
        problems.extend(f"{label}: {p}" for p in res.problems)

    ref, ref_wall, _, _ = run_rep(wl, REFERENCE_SEED, os.path.join(out, "reference"), None)
    ref_problems, identical = check_reference(wl.name, ref)
    for p in ref_problems:
        fail_rep(ref, p)
    account(ref, "reference rep")
    record["reference"] = {"quality": ref.quality, "digest": ref.digest,
                           "bitwise_identical": identical}
    say(f"reference rep (seed {REFERENCE_SEED}): "
        + ("ok" if not ref.problems else "FAILED")
        + f", outputs bitwise identical to reference: {identical}")
    say("reference-observed " + json.dumps({"digest": ref.digest, **{
        k: v for k, v in ref.quality.items() if k in ("final_test_acc", "audit_x_mean",
                                                      "final_q")}}))

    tracer = Tracer() if args.trace else None
    # end-to-end times are read in reference seconds; the traced run reports
    # shares of its own wall time and needs no clock
    clock = HostClock() if tracer is None else None
    traced_s = 0.0
    setup_s, walls, cpus, raw_walls, rates, op_s = [], [], [], [], [], []
    traced_walls, attempt_walls = [], []
    first_digest = None
    # set-up is timed in a short batch before every rep, so its median sees the
    # same mix of fast and slow host phases as the reps do
    batch_s = SETUP_SHARE * ref_wall
    t_start = perf_counter()
    while (not attempt_walls
           or perf_counter() - t_start + statistics.median(attempt_walls) <= args.seconds):
        t_batch = perf_counter()
        n_before = len(setup_s)
        with tracer.patched() if tracer is not None else contextlib.nullcontext():
            while (len(setup_s) - n_before < SETUP_MIN_BATCH
                   or perf_counter() - t_batch < batch_s):
                if clock is not None:
                    clock.tick()
                t0 = wall_now(clock)
                wl.setup(args.seed, tracer)
                setup_s.append(wall_now(clock) - t0)
        if tracer is not None:
            traced_s += perf_counter() - t_batch
        res, wall, cpu, raw_wall = run_rep(wl, args.seed, os.path.join(out, "rep"), None,
                                           clock)
        if first_digest is None:
            first_digest = res.digest
        elif res.digest != first_digest:
            fail_rep(res, "outputs differ from the first rep on the same inputs")
        if tracer is not None:
            with tracer.patched():
                tres, twall, _, _ = run_rep(wl, args.seed, os.path.join(out, "traced"),
                                            tracer)
            traced_s += twall
            if tres.digest != res.digest:
                fail_rep(tres, "traced rep wrote outputs that differ from the untraced rep")
            account(tres, f"traced rep {len(attempt_walls)}")
            if not tres.raised:
                traced_walls.append(twall)
        attempt_walls.append(perf_counter() - t_batch)
        account(res, f"rep {len(attempt_walls) - 1}")
        # a rep whose outputs fail a check is still timed; it counts in `failed`
        if not res.raised:
            walls.append(wall)
            cpus.append(cpu)
            raw_walls.append(raw_wall)
            rates.append(res.ops / res.loop_s)
            op_s += res.op_s
            record["quality"] = res.quality
            record["digest"] = res.digest
    if not walls or (tracer is not None and not traced_walls):
        for p in problems:
            print(p, file=sys.stderr)
        die("every rep raised; no metrics to report")

    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_us = sorted(v * 1e6 for v in op_s)
        detail = end_to_end_metrics(wl, setup_s, walls, cpus, rates, op_us, rss_mb)
        for name, d in detail.items():
            say(f"metric {name} = {d['value']!r} {d['unit']} (median; q1 {d['q1']:.6g}, "
                f"q3 {d['q3']:.6g}, n={d['n']}){d['note']}")
        # the tails are reported but not gated: p90 and above swing more between
        # runs than the median does (mlp-audit p90 by up to 0.14 of its median)
        pcts = {f"p{p:g}": percentile(op_us, p) for p in (50, 90, 95, 99, 99.9)}
        say(f"detail {wl.op_name} us percentiles (n={len(op_us)}): "
            + ", ".join(f"{k} {v:.6g}" for k, v in pcts.items()))
        pcts["n"] = len(op_us)
        named = wl.named_details(detail, record.get("quality", {}), pcts)
        for name, value in named.items():
            say(f"detail {name} = {value!r}")
        # the raw time beside the reference time, and the host speed that links them
        raw = statistics.median(raw_walls)
        scales = [w / r for w, r in zip(walls, raw_walls)]
        host = {"raw_wall_s": raw, "host_scale_median": statistics.median(scales),
                "host_scale_min": min(scales), "host_scale_max": max(scales),
                "calibration_slices": len(clock.slices)}
        for name, value in host.items():
            say(f"detail {name} = {value!r}")
        record.update(op_us_percentiles=pcts, workload_metrics=named, host=host)
        metrics = {name: {"value": d["value"], "unit": d["unit"]} for name, d in detail.items()}
    else:
        tracer.write(os.path.join(out, "trace.csv"))
        say(f"{len(tracer.spans)} spans written to trace.csv")
        per_layer = layer_metrics(tracer.self_times(), traced_s, traced_walls, walls)
        detail = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
        metrics = detail

    say(f"checks: {attempted} {wl.unit_name}s attempted, {failed} failed, "
        f"failed_frac {failed / max(attempted, 1)!r}")
    for p in problems:
        say(f"problem: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(detail=detail, problems=problems, result=result)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


def end_to_end_metrics(wl, setup_s, walls, cpus, rates, op_us, rss_mb):
    """The end-to-end metrics with quartiles and sample counts, from one run's samples.

    Times are in reference seconds; ``op_us`` holds every timed op's latency
    in reference µs, ascending.
    """
    out = {}

    def put(name, value, unit, samples=None, note=""):
        q1, q3 = quartiles(samples) if samples else (value, value)
        out[name] = {"value": value, "unit": unit, "q1": q1, "q3": q3,
                     "n": len(samples) if samples else 1, "note": note}

    put("setup_s", statistics.median(setup_s), "s", setup_s)
    put("wall_s", statistics.median(walls), "s", walls)
    put("cpu_s", statistics.median(cpus), "s", cpus)
    put("peak_rss_mb", rss_mb, "MB")
    put("ops_per_s", statistics.median(rates), "1/s", rates, f"  [{wl.op_name}s/s]")
    put("op_us_p50", percentile(op_us, 50.0), "us", None,
        f"  [{wl.op_name}, median of {len(op_us)}]")
    return out


def layer_metrics(times, traced_s, traced_walls, walls):
    """Per span: calls and share of traced wall; µs per call of the ratio spans.

    ``times`` maps span name to (calls, self seconds); ``traced_s`` is the wall
    time spent with the tracer installed (traced setups and traced reps).
    """
    from tracer import span_names

    names = span_names()
    metrics = {}
    for name in sorted(set(times) - set(names)):
        say(f"warning: span {name} is not in the reported list")
    say(f"{'span':<40} {'calls':>9} {'self_ms':>12} {'us/call':>10} {'self_%':>8}")
    for name in names:
        calls, self_s = times.get(name, (0, 0.0))
        us = self_s * 1e6 / calls if calls else 0.0
        pct = 100.0 * self_s / traced_s
        say(f"{name:<40} {calls:>9} {self_s * 1e3:>12.3f} {us:>10.2f} {pct:>8.3f}")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_pct"] = (pct, "%")
    for name in ("ratios.update", "ratios.sample_position"):
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.us_per_call"] = (self_s * 1e6 / calls if calls else 0.0, "us")
    updates = times.get("ratios.update", (0, 0.0))[0]
    projections = times.get("ratios.project", (0, 0.0))[0]
    metrics["ratios.fallback_frac"] = (projections / updates if updates else 0.0, "frac")
    covered = sum(s for _, s in times.values())
    say(f"spans cover {100.0 * covered / traced_s:.2f}% of {traced_s:.3f} s traced wall")
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    say(f"trace.overhead_frac = {overhead!r}: median traced rep "
        f"{statistics.median(traced_walls):.6g} s over untraced "
        f"{statistics.median(walls):.6g} s, {len(traced_walls)} pairs")
    for name, (value, unit) in metrics.items():
        if not name.endswith(".self_pct") and not name.endswith(".calls"):
            say(f"metric {name} = {value!r} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
