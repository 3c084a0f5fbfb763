"""Command-line interface and config handling."""

import json
import logging
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
from conftest import write_idx_pair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MINIMAL = {
    "dataset": {"kind": "synthetic", "synthetic_kind": "striped_patches",
                "side": 4, "train_count": 40, "test_count": 20,
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
    ({"train.train_aug.kind": "rotation"}, "train.train_aug"),
    ({"train.train_aug.kind": "random_crop", "train.schedule.shape": "fixed",
      "train.probe": True}, "train.train_aug"),
    ({"train.pseudo_val_aug.kind": "mixup"}, "train.pseudo_val_aug"),
    ({"train.pseudo_val_aug.kind": "random_crop", "train.pseudo_val_aug.pad": -1},
     "train.pseudo_val_aug.pad"),
    ({"train.pseudo_val_aug.degree_range": -5.0}, "train.pseudo_val_aug.degree_range"),
    ({"model.hidden": 35}, "model.hidden"),
    ({"model.hidden": 0}, "model.hidden"),
    ({"model.kind": "tiny_cnn", "model.width": 0}, "model.width"),
    ({"dataset.side": 1}, "dataset.side"),
    ({"dataset.noise": -1.0}, "dataset.noise"),
    ({"dataset.seed": -1}, "dataset.seed"),
    ({"dataset.subsample_count": -5}, "dataset.subsample_count"),
    ({"dataset.subsample_count": 10, "dataset.subsample_seed": -1}, "dataset.subsample_seed"),
    ({"dataset.val_count": -10}, "dataset.val_count"),
    ({"dataset.train_count": -5}, "dataset.train_count"),
    ({"train.seed": -1}, "train.seed"),
    ({"train.eval_batch_size": 0}, "train.eval_batch_size"),
    # mixup on a last training batch of one sample (129 = 2 * 64 + 1)
    ({"dataset.train_count": 129, "train.batch_size": 64},
     "train.batch_size"),
    # mixup probe on a last test batch of one sample (257 = 256 + 1)
    ({"dataset.test_count": 257, "train.probe": True,
      "train.eval_batch_size": 256}, "train.eval_batch_size"),
    ({"dataset.train_count": 0}, "dataset.train_count"),
    ({"dataset.test_count": 0}, "dataset.test_count"),
    ({"dataset.subsample_count": 50}, "dataset.subsample_count"),  # train_count is 40
    # keys the run would ignore
    ({"train.adalase.avg_window": 4}, "train.adalase.avg_window"),
    ({"train.val_mode": "true", "train.pseudo_val_aug.degree_range": 30.0},
     "train.pseudo_val_aug"),
])
def test_validate_rejects_what_train_rejects(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "run"
    for argv in (["validate", "--config", cfg], ["train", "--config", cfg, "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"dataset.synthetic_kind": "two_gaussians", "dataset.side": 1},
    {"model.hidden": 1},
    {"dataset.noise": 0.0},
    {"dataset.subsample_seed": -1},  # read only when subsample_count is set
    # a one-sample batch is fine for a kind that does not mix
    {"dataset.train_count": 41, "train.batch_size": 40,
     "train.train_aug.kind": "cutout"},
    {"train.update_cadence": "window", "train.adalase.avg_window": 4},
])
def test_edge_configs_that_train_are_accepted(tmp_path, overrides):
    cfg = write_config(tmp_path, overrides)
    assert main(["validate", "--config", cfg]) == 0
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def test_wrong_value_type_is_a_field_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.epochs": "ten"})
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: train.epochs: expected int")


@pytest.mark.parametrize("overrides,field", [
    ({"dataset.side": "abc"}, "dataset.side"),
    ({"train.epochs": 2.5}, "train.epochs"),
    ({"dataset.side": 8.5}, "dataset.side"),
    ({"model.hidden": "36"}, "model.hidden"),
])
def test_value_must_have_its_defaults_json_type(tmp_path, capsys, overrides, field):
    assert main(["validate", "--config", write_config(tmp_path, overrides)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: expected ")


def test_input_only_train_aug_validates_at_the_input_position(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.train_aug.kind": "rotation",
                                  "train.schedule.shape": "fixed"})
    assert main(["validate", "--config", cfg]) == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["train"]["schedule"]["fixed_index"] == 0


def test_unknown_key_named_in_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.learning_rate_warmup": 5})
    assert main(["validate", "--config", cfg]) == 2
    assert "learning_rate_warmup" in capsys.readouterr().err


def test_unknown_keys_rejected_with_dotted_path():
    with pytest.raises(ConfigError, match="train.adalase.decay"):
        validate_config({"train": {"adalase": {"decay": 0.5}}})
    # the synthetic size is the sum of the split counts; ``n`` is no longer a key
    with pytest.raises(ConfigError, match=r"unknown key 'dataset\.n'"):
        validate_config({"dataset": {"n": 1200}})


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


def test_idx_files_with_different_class_counts_share_one_label_space(tmp_path):
    # the test file lacks the training file's top class
    rng = np.random.default_rng(0)
    paths = {}
    for split, n, classes in (("train", 40, 3), ("test", 20, 2)):
        (tmp_path / split).mkdir()
        paths[split] = write_idx_pair(tmp_path / split, rng.integers(0, 256, size=(n, 4, 4)),
                                      np.arange(n) % classes)
    cfg = write_config(tmp_path, {"dataset.kind": "idx",
                                  "dataset.images_path": paths["train"][0],
                                  "dataset.labels_path": paths["train"][1],
                                  "dataset.test_images_path": paths["test"][0],
                                  "dataset.test_labels_path": paths["test"][1],
                                  "train.probe": True})
    splits = make_splits(load_config(cfg))
    assert splits.train.num_classes == splits.test.num_classes == 3
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    for name in ("metrics.csv", "ratios.csv", "checkpoint.adlw", "manifest.json"):
        assert (out / name).exists(), name


def test_manifest_names_the_split_that_feeds_validation(tmp_path, caplog):
    # mlp-fig5 has val_mode "true" and probes but no validation split
    with caplog.at_level(logging.WARNING, logger="adalase.trainer"):
        assert main(["train", "--config", "mlp-fig5", "--out", str(tmp_path / "fig5")]) == 0
    assert json.loads((tmp_path / "fig5" / "manifest.json").read_text())["val_source"] == "test"
    assert [r.getMessage() for r in caplog.records] == [
        "no validation split: val_mode 'true' batches and probes use the test split"]
    caplog.clear()
    cfg = write_config(tmp_path, {"dataset.val_count": 20,
                                  "train.val_mode": "true", "train.probe": True})
    with caplog.at_level(logging.WARNING, logger="adalase.trainer"):
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "val")]) == 0
    assert json.loads((tmp_path / "val" / "manifest.json").read_text())["val_source"] == "val"
    assert not caplog.records


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


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_audit_rejects_fewer_than_one_run(tmp_path, capsys, runs):
    out = tmp_path / "audit"
    cfg = write_config(tmp_path)
    assert main(["audit", "--config", cfg, "--runs", runs, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --runs: must be >= 1, got {runs}")
    assert not out.exists()


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
