"""Command-line interface and config handling."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from adalase.cli import main
from adalase.config import (list_presets, load_config, make_network, make_splits,
                            validate_config)
from adalase.data import gen_synthetic, save_raw
from adalase.engine.checkpoint import save_weights
from adalase.errors import ConfigError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MINIMAL = {
    "dataset": {"kind": "synthetic", "synthetic_kind": "striped_patches",
                "n": 60, "side": 4, "train_count": 40, "test_count": 20,
                "noise": 0.1},
    "model": {"kind": "mlp", "hidden": 4},
    "train": {"epochs": 1, "batch_size": 16},
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(MINIMAL))
    for path, value in (overrides or {}).items():
        node = cfg
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---- config validation ----------------------------------------------------------

def test_minimal_config_validates(tmp_path, capsys):
    assert main(["validate", "--config", write_config(tmp_path)]) == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["train"]["epochs"] == 1
    assert effective["train"]["adalase"]["eta"] == 1.0  # defaults merged in


def test_negative_eta_is_a_field_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.adalase.eta": -1})
    assert main(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "train.adalase.eta: eta must be > 0" in err


@pytest.mark.parametrize("overrides,field", [
    ({"train.momentum": 1.0}, "train.momentum"),
    ({"train.base_lr": 0}, "train.base_lr"),
    ({"train.batch_size": 1, "train.train_aug.kind": "mixup"}, "train.batch_size"),
    ({"train.train_aug.mask_fraction": 1.5}, "train.train_aug.mask_fraction"),
    ({"train.schedule.shape": "spiral"}, "train.schedule.shape"),
    ({"train.adalase.d_scale": 1.0}, "train.adalase.d_scale"),
])
def test_validate_rejects_what_train_rejects(tmp_path, capsys, overrides, field):
    assert main(["validate", "--config", write_config(tmp_path, overrides)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_wrong_value_type_is_a_field_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.epochs": "ten"})
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: train.epochs: expected int")


def test_unknown_key_named_in_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.learning_rate_warmup": 5})
    assert main(["validate", "--config", cfg]) == 2
    assert "learning_rate_warmup" in capsys.readouterr().err


def test_unknown_keys_rejected_with_dotted_path():
    with pytest.raises(ConfigError, match="train.adalase.decay"):
        validate_config({"train": {"adalase": {"decay": 0.5}}})


def test_missing_dataset_path_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset.kind": "raw",
                                  "dataset.path": str(tmp_path / "absent.raw"),
                                  "dataset.test_path": str(tmp_path / "absent.raw")})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # no partial outputs


def test_raw_dataset_honours_val_count(tmp_path):
    save_raw(gen_synthetic("striped_patches", 100, seed=0, side=4), str(tmp_path / "tr.raw"))
    save_raw(gen_synthetic("striped_patches", 20, seed=1, side=4), str(tmp_path / "te.raw"))
    cfg = load_config(write_config(tmp_path, {"dataset.kind": "raw",
                                              "dataset.path": str(tmp_path / "tr.raw"),
                                              "dataset.test_path": str(tmp_path / "te.raw"),
                                              "dataset.val_count": 30}))
    splits = make_splits(cfg)
    assert (len(splits.train), len(splits.val), len(splits.test)) == (70, 30, 20)
    assert splits.val.split == "val"
    cfg["dataset"]["val_count"] = 100
    with pytest.raises(ConfigError, match="dataset.val_count"):
        make_splits(cfg)


def test_init_checkpoint_loads_into_flat_buffer(tmp_path):
    cfg = load_config(write_config(tmp_path))
    splits = make_splits(cfg)
    donor = make_network(cfg, splits, seed=5)
    path = str(tmp_path / "init.adlw")
    save_weights(donor, path)
    assert not np.array_equal(make_network(cfg, splits).theta, donor.theta)
    net = make_network(load_config(write_config(tmp_path, {"model.init_checkpoint": path},
                                                name="init.json")), splits)
    assert np.array_equal(net.theta, donor.theta)
    for _, p in net.named_params():
        assert np.shares_memory(p, net.theta)


def test_presets_all_load():
    names = list_presets()
    assert {"mlp-fig3", "mlp-fig5", "cnn-uniform", "cnn-adalase",
            "sweep-kd", "uniform-baseline"} <= set(names)
    for name in names:
        cfg = load_config(name)
        assert cfg["preset"] == name


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json }")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(path))


# ---- train command ----------------------------------------------------------------

def test_train_writes_all_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    for name in ("metrics.csv", "ratios.csv", "checkpoint.adlw", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert len(manifest["input_hash"]) == 64
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("epoch,lr,train_loss")
    assert "q_0" in header and "q_1" in header


def test_train_same_seed_reproduces_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", cfg, "--seed", "7", "--out", str(out_a)])
    main(["train", "--config", cfg, "--seed", "7", "--out", str(out_b)])
    for name in ("metrics.csv", "ratios.csv", "checkpoint.adlw"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_uniform_schedule_selection_histogram_is_flat(tmp_path):
    cfg = write_config(tmp_path, {"train.schedule.shape": "uniform",
                                  "train.epochs": 2,
                                  "train.batch_size": 2,
                                  "dataset.n": 800,
                                  "dataset.train_count": 700,
                                  "dataset.test_count": 100})
    out = tmp_path / "uni"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "ratios.csv").read_text().splitlines()[1:]
    counts = np.zeros(2)
    for row in rows:
        cells = row.split(",")
        counts += [float(cells[-2]), float(cells[-1])]
    freq = counts / counts.sum()
    assert counts.sum() == 700  # 350 iterations per epoch, 2 epochs
    assert abs(freq[0] - 0.5) < 0.05


def test_empty_test_split_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset.test_count": 0})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "test dataset is empty" in capsys.readouterr().err
    assert not out.exists()  # no partial outputs


# ---- audit command ----------------------------------------------------------------

def test_audit_rows_are_ranged_and_reproducible(tmp_path):
    cfg = write_config(tmp_path, {"train.epochs": 2})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["audit", "--config", cfg, "--runs", "2", "--out", str(out_a)]) == 0
    assert main(["audit", "--config", cfg, "--runs", "2", "--out", str(out_b)]) == 0
    rows = (out_a / "audit.csv").read_text().splitlines()
    assert rows[0] == "seed,x_metric,y_metric,n_all"
    assert len(rows) == 3
    for row in rows[1:]:
        _, x, y, n_all = row.split(",")
        assert -1.0 <= float(x) <= 1.0
        assert 0.0 <= float(y) <= 1.0
        assert int(n_all) > 0
    assert (out_a / "audit.csv").read_bytes() == (out_b / "audit.csv").read_bytes()


# ---- lower-limit sweep ----------------------------------------------------------------

def test_sweep_writes_one_trajectory_per_value(tmp_path):
    cfg = write_config(tmp_path, {"train.epochs": 1})
    out = tmp_path / "sweep"
    assert main(["sweep-kd", "--config", cfg, "--out", str(out)]) == 0
    for kd in ("0.1", "0.2", "0.3", "0.4", "0.5"):
        assert (out / f"ratios_kd{kd}.csv").exists()
    table = (out / "final_ratios.csv").read_text().splitlines()
    assert table[0] == "kd,q_0,q_1"
    assert len(table) == 6


def test_sweep_runs_share_initial_ratios():
    from adalase.ratios import init_ratios
    for kd in (0.1, 0.2, 0.3, 0.4, 0.5):
        assert np.allclose(init_ratios(2, kd).q, [0.5, 0.5])


def test_sweep_bounds_constrain_trajectories(tmp_path):
    cfg = write_config(tmp_path, {"train.epochs": 2})
    out = tmp_path / "sweep2"
    main(["sweep-kd", "--config", cfg, "--out", str(out)])
    rows = (out / "ratios_kd0.5.csv").read_text().splitlines()[1:]
    for row in rows:
        q0, q1 = (float(v) for v in row.split(",")[1:3])
        assert 0.25 - 1e-9 <= q0 <= 0.75 + 1e-9
        assert 0.25 - 1e-9 <= q1 <= 0.75 + 1e-9


# ---- env plumbing ----------------------------------------------------------------

@pytest.fixture(scope="module")
def capped_child():
    """Import ``adalase.cli`` in a fresh interpreter with ADALASE_THREADS=1 and
    no BLAS caps set; returns its OMP_NUM_THREADS and the OpenBLAS thread count
    (None when no thread-count symbol is found), read back as the benchmark does."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["ADALASE_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), env.get("PYTHONPATH", "")])
    code = ("import json, os, adalase.cli, envinfo; "
            "print(json.dumps([os.environ.get('OMP_NUM_THREADS'), envinfo.blas_threads()]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def test_thread_cap_env_propagates(capped_child):
    assert capped_child[0] == "1"


def test_thread_cap_reaches_openblas(capped_child):
    if capped_child[1] is None:
        pytest.skip("no OpenBLAS thread-count symbol found")
    assert capped_child[1] == 1
