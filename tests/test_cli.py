"""Command-line interface and config handling."""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from adalase.cli import main
from adalase.config import (DEFAULTS, grid_points, list_presets, load_config,
                            make_network, make_splits, validate_config)
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
    ({"train.adalase.avg_window": -1}, "train.adalase.avg_window"),
    # keys the run would ignore
    ({"train.val_mode": "true", "train.pseudo_val_aug.degree_range": 30.0},
     "train.pseudo_val_aug"),
    # every point of a sweep is checked before any point runs
    ({"sweep": {"train.adalase.d_scale": [0.1, 1.5]}}, "train.adalase.d_scale"),
    ({"sweep": {"train.seed": []}}, "sweep"),
    ({"sweep": {"train.seed": 0}}, "sweep"),
    ({"sweep": {}}, "sweep"),
    ({"sweep": None}, "sweep"),
    ({"sweep": {"train.adalase": [{"eta": 2.0}]}}, "sweep"),
    ({"sweep": {"out_dir": ["a", "b"]}}, "sweep"),  # each point's out_dir is derived
    # a flush window longer than the run never fills: 40 samples in batches of 16
    # are 3 iterations an epoch, and a subsample of 16 is one
    ({"train.adalase.avg_window": 4}, "train.adalase.avg_window"),
    ({"train.epochs": 2, "train.adalase.avg_window": 100000}, "train.adalase.avg_window"),
    ({"dataset.subsample_count": 16, "train.adalase.avg_window": 2},
     "train.adalase.avg_window"),
    # a fixed position the model has no tap for: mlp has 2 taps, tiny_cnn 4
    ({"train.schedule.shape": "fixed", "train.schedule.fixed_index": -1},
     "train.schedule.fixed_index"),
    ({"train.schedule.shape": "fixed", "train.schedule.fixed_index": 2},
     "train.schedule.fixed_index"),
    ({"model.kind": "tiny_cnn", "train.schedule.shape": "fixed",
      "train.schedule.fixed_index": 4}, "train.schedule.fixed_index"),
])
def test_validate_rejects_what_train_rejects(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "run"
    for argv in (["validate", "--config", cfg], ["train", "--config", cfg, "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("key,value,shape", [
    pytest.param(key, value, shape, id=key) for key, value, shape in (
        ("train.adalase.eta", 3.0, "uniform"),
        ("train.adalase.avg_window", 4, "linear_inc"),
        ("train.adalase.d_scale", 0.2, "uniform"),
        ("train.adalase.dot_normalization", "cosine", "fixed"),
        ("train.val_mode", "true", "uniform"),
        ("train.pseudo_val_aug", {"degree_range": 30.0}, "uniform"),
        ("train.schedule.fixed_index", 1, "uniform"))])
def test_key_the_schedule_never_reads_is_rejected(tmp_path, capsys, key, value, shape):
    cfg = write_config(tmp_path, {key: value, "train.schedule.shape": shape})
    out = tmp_path / "run"
    for argv in (["validate", "--config", cfg], ["train", "--config", cfg, "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and "is read only under schedule '" in err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"dataset.synthetic_kind": "two_gaussians", "dataset.side": 1},
    {"model.hidden": 1},
    {"dataset.noise": 0.0},
    {"dataset.subsample_seed": -1},  # read only when subsample_count is set
    # a one-sample batch is fine for a kind that does not mix
    {"dataset.train_count": 41, "train.batch_size": 40,
     "train.train_aug.kind": "cutout"},
    {"train.adalase.avg_window": 3},  # the run's 3 iterations: one flush
    {"train.epochs": 2, "train.adalase.avg_window": 6},
    # the last tap of each model
    {"train.schedule.shape": "fixed", "train.schedule.fixed_index": 1},
    {"model.kind": "tiny_cnn", "train.schedule.shape": "fixed",
     "train.schedule.fixed_index": 3},
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


@pytest.mark.parametrize("literal", [
    "1e999", "-1e999", "NaN", "Infinity", pytest.param("9" * 400, id="400-digit-integer")])
@pytest.mark.parametrize("field", ["train.base_lr", "train.adalase.eta", "dataset.noise",
                                   "train.train_aug.alpha"])
def test_float_field_must_be_finite(tmp_path, capsys, field, literal):
    # json reads 1e999 as inf, and NaN and Infinity as they are; the integer
    # is too large for a float
    cfg = write_config(tmp_path, {field: "@"})
    path = tmp_path / "cfg.json"
    path.write_text(path.read_text().replace('"@"', literal))
    leaf = field.rsplit(".", 1)[-1]
    out = tmp_path / "run"
    for argv in (["validate", "--config", cfg], ["train", "--config", cfg, "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {field}: {leaf} must be a finite number\n"
    assert not out.exists()


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
    # the ratios always move, and ``adalase.avg_window`` alone sets the flush window
    for key, value in (("ratio_updates", False), ("update_cadence", "window")):
        with pytest.raises(ConfigError, match=rf"unknown key 'train\.{key}'"):
            validate_config({"train": {key: value}})


def test_missing_dataset_path_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset.kind": "raw",
                                  "dataset.path": str(tmp_path / "absent.raw"),
                                  "dataset.test_path": str(tmp_path / "absent.raw")})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # no partial outputs


def test_flush_window_longer_than_a_raw_datasets_run_fails_in_train(tmp_path, capsys):
    # validate cannot count a file's rows; train rejects before writing anything
    save_raw(gen_synthetic("striped_patches", 40, seed=0, side=4), str(tmp_path / "tr.raw"))
    save_raw(gen_synthetic("striped_patches", 20, seed=1, side=4), str(tmp_path / "te.raw"))
    out = tmp_path / "run"
    for window, code in ((4, 2), (3, 0)):  # 40 samples in batches of 16: 3 iterations
        cfg = write_config(tmp_path, {"dataset.kind": "raw",
                                      "dataset.path": str(tmp_path / "tr.raw"),
                                      "dataset.test_path": str(tmp_path / "te.raw"),
                                      "train.adalase.avg_window": window})
        assert main(["validate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert capsys.readouterr().err.startswith("error: train.adalase.avg_window: ")


def test_raw_dataset_honours_val_count(tmp_path):
    save_raw(gen_synthetic("striped_patches", 100, seed=0, side=4), str(tmp_path / "tr.raw"))
    save_raw(gen_synthetic("striped_patches", 20, seed=1, side=4), str(tmp_path / "te.raw"))
    cfg = load_config(write_config(tmp_path, {"dataset.kind": "raw",
                                              "dataset.path": str(tmp_path / "tr.raw"),
                                              "dataset.test_path": str(tmp_path / "te.raw"),
                                              "dataset.val_count": 30}))
    splits = make_splits(cfg)
    assert (len(splits.train), len(splits.val), len(splits.test)) == (70, 30, 20)
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


def test_loaded_config_shares_no_dict_with_defaults_or_the_next_load():
    before = json.dumps(DEFAULTS, sort_keys=True)
    first = load_config("mlp-fig5")
    # subtrees the preset sets (model, train.adalase) and ones it leaves to
    # the defaults (train.schedule, train.pseudo_val_aug)
    first["train"]["seed"] = 99
    first["train"]["adalase"]["eta"] = 7.0
    first["train"]["schedule"]["shape"] = "spiral"
    first["train"]["pseudo_val_aug"].clear()
    first["model"].clear()
    assert json.dumps(DEFAULTS, sort_keys=True) == before
    again = load_config("mlp-fig5")
    assert again["train"]["seed"] == 0 and again["train"]["adalase"]["eta"] == 1.0
    assert again["train"]["schedule"]["shape"] == DEFAULTS["train"]["schedule"]["shape"]
    assert again["train"]["pseudo_val_aug"] == DEFAULTS["train"]["pseudo_val_aug"]
    assert again["model"]["kind"] == "mlp"


@pytest.mark.parametrize("name", ["", "absent.json"])
def test_config_that_is_no_file_is_not_found(tmp_path, capsys, name):
    # a directory, like a missing path, is neither a config file nor a preset
    assert main(["validate", "--config", str(tmp_path / name)]) == 2
    assert capsys.readouterr().err.startswith("error: config not found: ")


@pytest.mark.parametrize("out_rel,sweep", [("taken", False), ("taken/run", False),
                                           ("run", True)])
def test_out_that_is_no_directory_is_rejected_before_training(tmp_path, capsys, out_rel,
                                                              sweep):
    # a file where the run directory, an ancestor of it, or a point directory would go
    cfg = write_config(tmp_path, {"sweep": {"train.seed": [0, 1]}} if sweep else None)
    taken = tmp_path / ("run/point1" if sweep else "taken")
    taken.parent.mkdir(exist_ok=True)
    taken.write_text("keep")
    before = sorted(tmp_path.rglob("*"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / out_rel)]) == 2
    assert capsys.readouterr().err.startswith("error: out_dir: ")
    assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "keep"


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


# ---- sweep grids ----------------------------------------------------------------

GRID_HEADER = "final_q,best_test_acc,final_test_acc,x_metric,y_metric,n_all"


def test_audit_rows_are_ranged_and_reproducible(tmp_path):
    cfg = write_config(tmp_path, {"train.epochs": 2, "train.probe": True,
                                  "sweep": {"train.seed": [0, 1]}})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out_b)]) == 0
    rows = (out_a / "grid.csv").read_text().splitlines()
    assert rows[0] == f"point,train.seed,{GRID_HEADER}"
    assert len(rows) == 3
    for row in rows[1:]:
        x, y, n_all = row.split(",")[-3:]
        assert -1.0 <= float(x) <= 1.0
        assert 0.0 <= float(y) <= 1.0
        assert int(n_all) > 0
    assert (out_a / "grid.csv").read_bytes() == (out_b / "grid.csv").read_bytes()


def test_grid_point_matches_a_plain_run_of_its_config(tmp_path):
    grid = write_config(tmp_path, {"sweep": {"train.seed": [1, 2],
                                             "train.adalase.d_scale": [0.2, 0.3]}})
    plain = write_config(tmp_path, {"train.seed": 2, "train.adalase.d_scale": 0.2},
                         name="plain.json")
    assert main(["train", "--config", grid, "--out", str(tmp_path / "grid")]) == 0
    assert main(["train", "--config", plain, "--out", str(tmp_path / "plain")]) == 0
    rows = (tmp_path / "grid" / "grid.csv").read_text().splitlines()
    assert rows[0] == f"point,train.seed,train.adalase.d_scale,{GRID_HEADER}"
    # product order, the last key fastest
    assert [r.split(",")[:3] for r in rows[1:]] == [
        ["0", "1", "0.2"], ["1", "1", "0.3"], ["2", "2", "0.2"], ["3", "2", "0.3"]]
    for name in ("metrics.csv", "ratios.csv", "checkpoint.adlw"):
        assert ((tmp_path / "grid" / "point2" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name
    assert not (tmp_path / "plain" / "point0").exists()


def test_grid_points_leave_the_base_config_unchanged():
    base = load_config("sweep-kd")
    base["sweep"]["train.seed"] = [0, 1]
    before = json.dumps(base, sort_keys=True)
    points = grid_points(base)
    assert json.dumps(base, sort_keys=True) == before
    assert [values for values, _ in points] == [
        {"train.adalase.d_scale": d, "train.seed": s}
        for d in (0.1, 0.2, 0.3, 0.4, 0.5) for s in (0, 1)]
    for values, point in points:
        assert (point["train"]["adalase"]["d_scale"], point["train"]["seed"]) == (
            values["train.adalase.d_scale"], values["train.seed"])
        assert point["train"] is not base["train"] and point["dataset"] is not base["dataset"]


def test_sweep_unknown_key_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweep": {"train.nope": [1]}})
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: sweep: unknown key 'train.nope'")


def test_seed_flag_rejected_when_the_seed_is_swept(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweep": {"train.seed": [0, 1]}})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --seed: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "validate"])
def test_negative_seed_flag_is_a_field_error(tmp_path, capsys, command):
    out = tmp_path / "run"
    argv = [command, "--config", "mlp-fig5", "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --seed: seed must be >= 0")
    assert not out.exists()


def test_validate_prints_the_seed_and_out_overrides(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["validate", "--config", "mlp-fig5", "--seed", "5", "--out", out]) == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["train"]["seed"] == 5 and effective["out_dir"] == out


def test_model_grid_records_each_models_tap_count(tmp_path):
    cfg = write_config(tmp_path, {"sweep": {"model.kind": ["mlp", "tiny_cnn"]}})
    out = tmp_path / "models"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "grid.csv").read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["mlp", "tiny_cnn"]
    assert [len(r[2].split(" ")) for r in rows] == [2, 4]


# ---- lower-limit sweep ----------------------------------------------------------------

def _kd_grid(tmp_path, epochs):
    kds = load_config("sweep-kd")["sweep"]["train.adalase.d_scale"]
    return kds, write_config(tmp_path, {"train.epochs": epochs,
                                        "sweep": {"train.adalase.d_scale": kds}})


def test_sweep_writes_one_trajectory_per_value(tmp_path):
    kds, cfg = _kd_grid(tmp_path, 1)
    out = tmp_path / "sweep"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    for i in range(len(kds)):
        assert (out / f"point{i}" / "ratios.csv").exists()
    table = (out / "grid.csv").read_text().splitlines()
    assert table[0] == f"point,train.adalase.d_scale,{GRID_HEADER}"
    assert len(table) == 6
    assert [float(r.split(",")[1]) for r in table[1:]] == kds
    assert all(len(r.split(",")[2].split(" ")) == 2 for r in table[1:])


def test_sweep_runs_share_initial_ratios():
    from adalase.ratios import init_ratios
    for kd in (0.1, 0.2, 0.3, 0.4, 0.5):
        assert np.allclose(init_ratios(2, kd).q, [0.5, 0.5])


def test_sweep_bounds_constrain_trajectories(tmp_path):
    kds, cfg = _kd_grid(tmp_path, 2)
    out = tmp_path / "sweep2"
    main(["train", "--config", cfg, "--out", str(out)])
    i = kds.index(0.5)
    rows = (out / f"point{i}" / "ratios.csv").read_text().splitlines()[1:]
    final_q = (out / "grid.csv").read_text().splitlines()[i + 1].split(",")[2]
    for q in [row.split(",")[1:3] for row in rows] + [final_q.split(" ")]:
        q0, q1 = (float(v) for v in q)
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
