"""adalase benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout (stdlib only; the package is imported from
``src/``, so nothing has to be installed):

    python3 perfbench/run.py --workload cnn-adaptive --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py                       # every workload, one run each
    python3 perfbench/run.py --steadiness 10       # spread of each metric over 10 seeds

Each workload runs in its own worker process (``worker.py``) whose
environment caps OpenBLAS/OpenMP/MKL at one thread before numpy loads; the
worker reads the count back from OpenBLAS and refuses to run otherwise. One
worker runs at a time. ``--trace 0`` reports the ``end_to_end`` metrics of
BENCHMARK.json, with times in reference seconds (``hostclock.py``: host speed
phases cancel), ``--trace 1`` the ``per_layer`` ones. The last line of stdout
is the JSON result; the lines before it name every metric with its unit,
quartiles and sample count, and the output checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from envinfo import THREAD_VARS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_runs")
# a run must end within 180 s; leave room to kill and reap the worker
WORKER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def validate_result(result, expected):
    """Problems with a worker's result line; ``expected`` maps metric name to unit."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result) if isinstance(result, dict) else result!r}"]
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append(f"failed {result['failed']!r}")
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append(f"{name}: value {m.get('value')!r} is not a number")
    return problems


def run_worker(workload, seed, seconds, trace, expected, echo=True):
    """Run one workload in a fresh process; returns its validated result or None."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} worker exceeded {WORKER_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} worker exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: {workload} worker's last line is not JSON: {lines[-1]!r}",
              file=sys.stderr)
        return None
    problems = validate_result(result, expected)
    if problems:
        print(f"perfbench: {workload} result is malformed: {problems}", file=sys.stderr)
        return None
    return result


def spread_share(values):
    """Interquartile distance over the median, as the acceptance rule computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), q1, q3


def steadiness(spec, workloads, seed, seconds, repeats):
    """Run each workload ``repeats`` times on consecutive seeds; report each metric's spread."""
    metrics = spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in metrics}
    summary = {}
    correct = steady_all = True
    attempted = failed = 0
    for wl in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(repeats):
            result = run_worker(wl, seed + i, seconds, 0, expected, echo=False)
            if result is None:
                return None
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            os.makedirs(os.path.join(OUT_ROOT, "steadiness"), exist_ok=True)
            shutil.copy(os.path.join(OUT_ROOT, wl, "result.json"),
                        os.path.join(OUT_ROOT, "steadiness", f"{wl}-{seed + i}.json"))
            print(f"perfbench | steadiness {wl} seed {seed + i}: correct={result['correct']} "
                  + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        rows = {}
        for m in metrics:
            share, q1, q3 = spread_share(values[m["name"]])
            bound = m["bound"]
            # setup_s is exempt from the spread rule; only its median is compared
            steady = m["name"] == "setup_s" or share < bound / 3
            steady_all &= steady
            rows[m["name"]] = {"median": statistics.median(values[m["name"]]), "q1": q1,
                               "q3": q3, "spread": share, "bound": bound, "steady": steady,
                               "unit": m["unit"], "values": values[m["name"]]}
            print(f"perfbench | steadiness {wl} {m['name']}: median "
                  f"{rows[m['name']]['median']:.6g} {m['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {share:.4f} vs bound/3 {bound / 3:.4f} "
                  f"{'ok' if steady else 'NOT STEADY'}", flush=True)
        with open(os.path.join(OUT_ROOT, wl, "result.json")) as fh:
            env = json.load(fh)["env"]
        summary[wl] = {"env_last_run": env, "metrics": rows}
    print(f"perfbench | steadiness: every spread below a third of its bound: {steady_all}")
    with open(os.path.join(OUT_ROOT, "steadiness.json"), "w") as fh:
        json.dump({"seed": seed, "seconds": seconds, "repeats": repeats,
                   "workloads": summary}, fh, indent=2, sort_keys=True)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {f"{wl}/{name}": {"value": row["median"], "unit": row["unit"]}
                        for wl, s in summary.items() for name, row in s["metrics"].items()}}


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run each workload N times (seeds seed..seed+N-1) and "
                             "report each end-to-end metric's spread against its bound")
    args = parser.parse_args(argv)
    workloads = names if args.workload == "all" else [args.workload]

    if args.steadiness:
        if args.steadiness < 2:
            parser.error("--steadiness needs at least 2 runs")
        result = steadiness(spec, workloads, args.seed, args.seconds, args.steadiness)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    metric_set = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in metric_set}
    results = {}
    for wl in workloads:
        result = run_worker(wl, args.seed, args.seconds, args.trace, expected)
        if result is None:
            return 1
        results[wl] = result
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        for wl, result in results.items():
            print(f"perfbench | result {wl} " + json.dumps(result))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}/{name}": m for wl, r in results.items()
                        for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
