"""Tests of the benchmark itself: the BENCHMARK.json format, metric names and units, and
that its output checks catch corrupted outputs.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import hostclock  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracer import Tracer, span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from adalase import reporting  # noqa: E402
from adalase.augment import AugSpec  # noqa: E402
from adalase.data import gen_synthetic, split_dataset  # noqa: E402
from adalase.engine import build_mlp, build_tiny_cnn  # noqa: E402
from adalase.trainer import Splits, TrainConfig, train  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert len(json.dumps(spec)) <= 64 * 1024


def _timing_samples():
    return dict(setup_s=[0.01, 0.012, 0.011], walls=[1.0, 1.1], cpus=[0.9, 1.0],
                rates=[100.0, 98.0], op_us=[1e3 * (1 + i / 5000) for i in range(20000)],
                rss_mb=50.0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_names_and_units_match_the_spec(spec, workload):
    detail = worker.end_to_end_metrics(WORKLOADS[workload], **_timing_samples())
    got = {name: d["unit"] for name, d in detail.items()}
    assert got == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(d["value"] > 0 for d in detail.values())
    named = WORKLOADS[workload].named_details(
        detail, {"final_test_acc": 0.9, "audit_x_mean": -0.1},
        {"p50": 1.0, "p99.9": 2.0, "n": 20000})
    expected = {"cnn-adaptive": {"train_it_per_s", "final_test_acc"},
                "mlp-audit": {"train_it_per_s", "final_test_acc", "audit_x_mean"},
                "ratio-stress": {"ratio_updates_per_s", "ratio_update_us_p50",
                                 "ratio_update_us_p999", "ratio_update_calls"}}[workload]
    assert set(named) == expected


def test_per_layer_names_and_units_match_the_spec(spec):
    times = {name: (3, 0.003) for name in span_names()}
    metrics = worker.layer_metrics(times, 1.0, [1.1, 1.2], [1.0, 1.0])
    assert {n: u for n, (_, u) in metrics.items()} == {m["name"]: m["unit"]
                                                       for m in spec["per_layer"]}
    assert metrics["ratios.fallback_frac"][0] == 1.0
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.15)


def test_validate_result_rejects_wrong_metrics():
    expected = {"wall_s": "s", "ops_per_s": "1/s"}
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"},
                        "ops_per_s": {"value": 10.0, "unit": "1/s"}}}
    assert run.validate_result(good, expected) == []
    missing = json.loads(json.dumps(good))
    del missing["metrics"]["ops_per_s"]
    assert run.validate_result(missing, expected)
    wrong_unit = json.loads(json.dumps(good))
    wrong_unit["metrics"]["wall_s"]["unit"] = "ms"
    assert run.validate_result(wrong_unit, expected)
    no_attempts = dict(good, attempted=0)
    assert run.validate_result(no_attempts, expected)


@pytest.fixture(scope="module")
def written_run(tmp_path_factory):
    """A small real training run written through the package's reporting."""
    full = gen_synthetic("striped_patches", 120, seed=0, side=4, noise=0.1)
    tr, _, te = split_dataset(full, 80, 0, 40, seed=0)
    net = build_mlp(tr.input_shape, hidden=16, num_classes=2, seed=0)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=0,
                      train_aug=AugSpec(kind="cutout", mask_fraction=0.5))
    result = train(net, Splits(train=tr, test=te), cfg)
    out = tmp_path_factory.mktemp("run")
    metrics, ratios = str(out / "metrics.csv"), str(out / "ratios.csv")
    reporting.write_metrics_csv(result, metrics)
    reporting.write_ratio_csv(result, ratios)
    k = net.num_taps
    return {"metrics": metrics, "ratios": ratios, "epochs": 3, "k": k,
            "d": cfg.adalase.d_scale / k, "iters": math.ceil(80 / 16)}


def _corrupt(path, tmp_path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    edit(header, rows)
    out = tmp_path / os.path.basename(path)
    out.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    return str(out)


def test_checks_pass_on_real_outputs(written_run):
    r = written_run
    assert checks.check_metrics_csv(r["metrics"], r["epochs"], r["k"], r["d"]) == []
    assert checks.check_ratios_csv(r["ratios"], r["epochs"], r["k"], r["d"], r["iters"]) == []


def _set(column, row, value):
    def edit(header, rows):
        rows[row][header.index(column)] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set("train_loss", 1, "nan"),
    _set("pseudo_loss", 0, "inf"),
    _set("q_0", 2, "0.9"),
    _set("q_1", 0, "-0.2"),
    _set("test_acc", 2, "1.5"),
    lambda header, rows: rows.pop(),
], ids=["nan-loss", "inf-pseudo-loss", "q-sum", "q-below-d", "acc-range", "missing-epoch"])
def test_corrupted_metrics_csv_is_caught(written_run, tmp_path, edit):
    r = written_run
    bad = _corrupt(r["metrics"], tmp_path, edit)
    assert checks.check_metrics_csv(bad, r["epochs"], r["k"], r["d"])


@pytest.mark.parametrize("edit", [
    _set("q_0", 1, "0.5"),
    _set("selected_0", 0, "99"),
], ids=["q-sum", "selection-count"])
def test_corrupted_ratios_csv_is_caught(written_run, tmp_path, edit):
    r = written_run
    bad = _corrupt(r["ratios"], tmp_path, edit)
    assert checks.check_ratios_csv(bad, r["epochs"], r["k"], r["d"], r["iters"])


def test_unreadable_output_is_caught(written_run, tmp_path):
    r = written_run
    garbage = tmp_path / "metrics.csv"
    garbage.write_bytes(b"\xff\xfe\x00 not a csv")
    assert checks.check_metrics_csv(str(garbage), r["epochs"], r["k"], r["d"])
    assert checks.check_metrics_csv(str(tmp_path / "absent.csv"), r["epochs"], r["k"], r["d"])


def test_corrupted_ratio_stream_is_caught():
    d = 0.1 / 6
    q = np.full((4, 6), 1 / 6)
    dots = [0.5, float("nan"), -2.0]
    assert checks.stream_problems(q, dots, d) == (0, [])
    off_simplex = q.copy()
    off_simplex[3] = [0.5, 0.5, 0.5, 0.0, 0.0, 0.0]
    assert checks.stream_problems(off_simplex, dots, d)[0] == 1
    moved_on_nan = q.copy()
    moved_on_nan[2] = [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]
    assert checks.stream_problems(moved_on_nan, dots, d)[0] == 1


def test_tracer_restores_and_keeps_outputs_identical(tmp_path):
    """A traced run writes the same metrics.csv as an untraced one and
    leaves every patched attribute as it found it."""
    from adalase import augment, data, trainer
    from adalase.engine import layers, network

    full = gen_synthetic("striped_patches", 60, seed=1, side=8, noise=0.1)
    tr, _, te = split_dataset(full, 40, 0, 20, seed=1)
    splits = Splits(train=tr, test=te)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=1, probe=True)
    before = (trainer.batch_iter, augment.apply_at_position, data.apply_at_position,
              layers.Conv2d.forward, network.Network.param_vector)

    def run_once(tracer):
        net = build_tiny_cnn(tr.input_shape, 2, seed=1, width=2)
        result = train(net, splits, cfg)
        path = tmp_path / ("traced.csv" if tracer else "plain.csv")
        reporting.write_metrics_csv(result, str(path))
        return path.read_bytes()

    plain = run_once(None)
    tracer = Tracer()
    with tracer.patched():
        traced = run_once(tracer)
    assert traced == plain
    assert before == (trainer.batch_iter, augment.apply_at_position, data.apply_at_position,
                      layers.Conv2d.forward, network.Network.param_vector)
    times = tracer.self_times()
    for name in ("engine.layers.Conv2d.fwd", "engine.layers.ResidualBlock.bwd",
                 "augment.rotation.P0", "augment.mixup.P0", "data.batch_iter",
                 "data.pseudo_val_batch", "ratios.sample_position", "ratios.update",
                 "trainer.probe", "engine.network.param_plumbing"):
        assert times.get(name, (0, 0))[0] > 0, name
    assert set(times) <= set(span_names())
    roots = sum(t1 - t0 for _, t0, t1, parent in tracer.spans if parent < 0)
    assert sum(s for _, s in times.values()) == pytest.approx(roots)
    assert all(s >= -1e-9 for _, s in times.values())


def test_host_clock_leaves_out_its_slices():
    clock = HostClock(period=0.0)
    for _ in range(20):
        clock.tick()
    wall, _ = clock.now()
    assert len(clock.slices) == 21 and clock.spent_wall > 0
    # only the gaps between slices count, and they are short next to the slices
    assert wall < 0.2 * clock.spent_wall * clock.scale


def test_host_clock_scales_time_by_the_slice_speed():
    clock = HostClock(period=3600.0)
    (w0, c0), t0 = clock.now(), time.perf_counter()
    time.sleep(0.05)
    (w1, c1), raw = clock.now(), time.perf_counter() - t0
    assert clock.scale == pytest.approx(hostclock.NOMINAL_SLICE_S / np.median(clock.slices))
    assert w1 - w0 == pytest.approx(raw * clock.scale, rel=0.05)
    assert 0 <= c1 - c0 < w1 - w0


def test_run_fails_without_the_package(tmp_path, spec):
    """A directory with only BENCHMARK.json and perfbench/ must exit non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ratio-stress",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
