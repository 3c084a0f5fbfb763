"""The three workloads. Each drives the package only through public functions.

A workload has a ``setup`` (timed as ``setup_s``: config load or stream
generation up to the first iteration) and a ``rep``, one fixed unit of work
that is repeated for the measured seconds. Every rep writes its outputs and
checks them; ``RepResult`` carries its timings, op latencies and problems.
Given a ``HostClock``, a rep times in reference seconds and lets the clock
time its calibration slice between iterations or ratio updates.

- cnn-adaptive: ``adalase train --config cnn-adalase`` (tiny_cnn width 8,
  2000 8x8 images, mixup at P0-P3, rotation pseudo-val). One rep is one run.
- mlp-audit: ``adalase audit --config mlp-fig5 --runs 10`` (probe on,
  val_mode true, cutout at P0/P1). One rep is ten seeded runs; each run's
  metrics.csv and ratios.csv are also written so they can be checked.
- ratio-stress: a stream of ``adalase_update`` calls from the acceptance fuzz
  distribution (K=6, |dot| log-uniform in 1e-3..1e308, random sign, 0.1% NaN,
  uniform positions). Each op also draws ``sample_position`` against the
  current q, as the trainer does each iteration. One rep replays the stream
  from uniform q.
"""

import contextlib
import hashlib
import logging
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from adalase import config as cfgmod
from adalase import ratios, reporting, trainer
from adalase.engine.checkpoint import save_weights

import checks

AUDIT_RUNS = 10
STREAM_LEN = 20000
STREAM_K = 6
NAN_SHARE = 0.001


@dataclass
class RepResult:
    ops: int = 0
    loop_s: float = 0.0
    op_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    raised: bool = False
    problems: list = field(default_factory=list)
    digest: str = ""
    quality: dict = field(default_factory=dict)


def _traced(tracer, name, fn):
    return fn if tracer is None else tracer.wrap(name, fn)


def wall_now(clock):
    """Wall seconds: reference seconds from ``clock``, or raw when there is none."""
    return perf_counter() if clock is None else clock.now()[0]


@contextlib.contextmanager
def iteration_timer(samples, clock=None):
    """Append the time of every ``adalase_iteration`` call to ``samples``.

    With a ``HostClock`` the time is in reference seconds, and the clock may
    time its calibration slice after each call, outside the timed part.
    """
    original = trainer.adalase_iteration

    def timed(*args, **kwargs):
        t0 = perf_counter()
        out = original(*args, **kwargs)
        dt = perf_counter() - t0
        if clock is None:
            samples.append(dt)
        else:
            samples.append(dt * clock.scale)
            clock.tick()
        return out

    trainer.adalase_iteration = timed
    try:
        yield
    finally:
        trainer.adalase_iteration = original


def _input_hash(splits):
    parts = [splits.train.images.tobytes(), splits.train.labels.tobytes(),
             splits.test.images.tobytes(), splits.test.labels.tobytes()]
    if splits.val is not None:
        parts += [splits.val.images.tobytes(), splits.val.labels.tobytes()]
    return reporting.content_hash(parts)


class TrainingWorkload:
    """A preset trained through the CLI's path: config, splits, network, train, outputs."""

    unit_name = "training run"
    op_name = "train iteration"

    def __init__(self, name, preset, runs, probe):
        self.name = name
        self.preset = preset
        self.runs = self.units = runs
        self.probe = probe

    def named_details(self, detail, quality, percentiles):
        """This workload's figures under their own names."""
        out = {"train_it_per_s": detail["ops_per_s"]["value"],
               "final_test_acc": quality.get("final_test_acc")}
        if self.probe:
            out["audit_x_mean"] = quality.get("audit_x_mean")
        return out

    def setup(self, seed, tracer=None):
        """Config load to the first iteration: effective config, splits, nets, train config."""
        cfg = _traced(tracer, "config.load", cfgmod.load_config)(self.preset)
        cfg["dataset"]["seed"] = seed
        cfg["train"]["seed"] = seed
        if self.probe:
            cfg["train"]["probe"] = True
        splits = _traced(tracer, "config.make_splits", cfgmod.make_splits)(cfg)
        train_cfg = cfgmod.make_train_config(cfg)
        make_network = _traced(tracer, "config.make_network", cfgmod.make_network)
        nets = [make_network(cfg, splits, seed=seed + i) for i in range(self.runs)]
        return cfg, splits, train_cfg, nets

    def rep(self, seed, out_dir, tracer=None, clock=None):
        res = RepResult()
        cfg, splits, train_cfg, nets = self.setup(seed, tracer)
        train = _traced(tracer, "trainer.train", trainer.train)
        write = {f: _traced(tracer, "reporting.write", getattr(reporting, f))
                 for f in ("write_metrics_csv", "write_ratio_csv", "write_audit_csv",
                           "write_manifest")}
        save = _traced(tracer, "engine.checkpoint.save", save_weights)
        k = nets[0].num_taps
        d = train_cfg.adalase.d_scale / k
        iters_per_epoch = math.ceil(len(splits.train) / train_cfg.batch_size)
        digest = hashlib.sha256()
        audit_rows, accs = [], []
        for i, net in enumerate(nets):
            run_seed = seed + i
            run_dir = out_dir if self.runs == 1 else os.path.join(out_dir, f"run{i}")
            os.makedirs(run_dir, exist_ok=True)
            timer = (iteration_timer(res.op_s, clock) if tracer is None
                     else contextlib.nullcontext())
            t0 = wall_now(clock)
            with timer:
                result = train(net, splits, train_cfg, train_seed=run_seed)
            res.loop_s += wall_now(clock) - t0
            res.ops += len(result.audit.selected)
            metrics_path = os.path.join(run_dir, "metrics.csv")
            ratios_path = os.path.join(run_dir, "ratios.csv")
            write["write_metrics_csv"](result, metrics_path)
            write["write_ratio_csv"](result, ratios_path)
            problems = (checks.check_metrics_csv(metrics_path, train_cfg.epochs, k, d)
                        + checks.check_ratios_csv(ratios_path, train_cfg.epochs, k, d,
                                                  iters_per_epoch))
            accs.append(checks.final_test_acc(metrics_path))
            outputs = [metrics_path, ratios_path]
            if self.probe:
                x, y = trainer.audit_worst_layer(result.audit)
                if not -1.0 <= x <= 1.0:
                    problems.append(f"run {i}: audit x {x!r} outside [-1, 1]")
                audit_rows.append((run_seed, x, y, result.audit.n_all))
            else:
                outputs.append(os.path.join(run_dir, "checkpoint.adlw"))
                save(net, outputs[-1])
            for path in outputs:
                h = checks.sha256_file(path)
                res.quality.setdefault("sha256", {})[os.path.relpath(path, out_dir)] = h
                digest.update(h.encode())
            res.attempted += 1
            res.failed += bool(problems)
            res.problems += problems
        if self.probe:
            audit_path = os.path.join(out_dir, "audit.csv")
            write["write_audit_csv"](audit_rows, audit_path)
            digest.update(checks.sha256_file(audit_path).encode())
            res.quality["audit_x_mean"] = float(np.mean([r[1] for r in audit_rows]))
        write["write_manifest"](os.path.join(out_dir, "manifest.json"), cfg, seed,
                                _input_hash(splits))
        res.quality["final_test_acc"] = float(np.mean(accs))
        res.digest = digest.hexdigest()
        return res


class RatioStressWorkload:
    """Adversarial stream of acceptance-ratio updates, replayed from uniform q."""

    name = "ratio-stress"
    units = STREAM_LEN
    unit_name = op_name = "ratio update"

    def named_details(self, detail, quality, percentiles):
        """This workload's figures under their own names."""
        return {"ratio_updates_per_s": detail["ops_per_s"]["value"],
                "ratio_update_us_p50": percentiles["p50"],
                "ratio_update_us_p999": percentiles["p99.9"],
                "ratio_update_calls": percentiles["n"]}

    def setup(self, seed, tracer=None):
        """Generate the stream: dots, update positions, and the sampling seed."""
        rng = np.random.default_rng([seed, 0xADA])
        mags = 10.0 ** rng.uniform(-3, 308, size=STREAM_LEN)
        dots = np.where(rng.random(STREAM_LEN) < 0.5, mags, -mags)
        dots[rng.choice(STREAM_LEN, size=int(STREAM_LEN * NAN_SHARE), replace=False)] = np.nan
        positions = rng.integers(0, STREAM_K, size=STREAM_LEN)
        return dots.tolist(), positions.tolist(), seed

    def rep(self, seed, out_dir, tracer=None, clock=None):
        res = RepResult()
        dots, positions, sample_seed = self.setup(seed)
        cfg = ratios.AdaLaseConfig(eta=1.0)
        update = _traced(tracer, "ratios.update", ratios.adalase_update)
        sample = _traced(tracer, "ratios.sample_position", ratios.sample_position)
        rng = np.random.default_rng([sample_seed, 1])
        state = ratios.init_ratios(STREAM_K)
        qs = [state.q]
        drawn = [0] * STREAM_K
        op_s = res.op_s
        # non-finite dots are rejected with a warning per call; keep the log quiet
        log = logging.getLogger("adalase.ratios")
        level = log.level
        log.setLevel(logging.ERROR)
        t_loop = wall_now(clock)
        try:
            for dot, l in zip(dots, positions):
                drawn[sample(state, rng)] += 1
                t0 = perf_counter()
                state = update(state, l, dot, cfg)
                if clock is None:
                    op_s.append(perf_counter() - t0)
                else:
                    op_s.append((perf_counter() - t0) * clock.scale)
                    clock.tick()
                qs.append(state.q)
        finally:
            log.setLevel(level)
        res.loop_s = wall_now(clock) - t_loop
        res.ops = res.attempted = len(dots)
        q = np.array(qs)
        res.failed, res.problems = checks.stream_problems(q, dots, state.d)
        path = os.path.join(out_dir, "q_trajectory.npy")
        os.makedirs(out_dir, exist_ok=True)
        np.save(path, q)
        res.digest = hashlib.sha256(q.tobytes()).hexdigest()
        res.quality.update(final_q=q[-1].tolist(), drawn=drawn,
                           sha256={"q_trajectory": res.digest})
        return res


WORKLOADS = {
    "cnn-adaptive": TrainingWorkload("cnn-adaptive", "cnn-adalase", runs=1, probe=False),
    "mlp-audit": TrainingWorkload("mlp-audit", "mlp-fig5", runs=AUDIT_RUNS, probe=True),
    "ratio-stress": RatioStressWorkload(),
}
