"""Experiment configuration: strict JSON parsing, presets, and object assembly.

Configs are a nested key tree. Unknown keys are rejected with their dotted
path; values are type-checked and range-checked before anything runs. The
``train`` subtree is derived from the ``TrainConfig`` dataclass: its defaults
are the dataclass defaults and its checks are the dataclass validators.
"""

import copy
import dataclasses
import json
import os

from .data import (gen_synthetic, load_cifar_bin, load_idx, load_raw,
                   split_dataset, subsample)
from .engine.builders import build_network
from .errors import ConfigError
from .trainer import Splits, TrainConfig

PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")

DEFAULTS = {
    "preset": "",
    "out_dir": "runs/out",
    "dataset": {
        "kind": "synthetic",
        "synthetic_kind": "striped_patches",
        "n": 1200,
        "side": 8,
        "noise": 0.1,
        "seed": 0,
        "train_count": 1000,
        "val_count": 0,
        "test_count": 200,
        "subsample_count": 0,
        "subsample_seed": 0,
        "images_path": "",
        "labels_path": "",
        "test_images_path": "",
        "test_labels_path": "",
        "path": "",
        "test_path": "",
    },
    "model": {
        "kind": "mlp",
        "hidden": 36,
        "width": 8,
        "init_checkpoint": "",
    },
    "train": dataclasses.asdict(TrainConfig()),
}


def _merge_strict(defaults, user, path=""):
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        dotted = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown key {dotted!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"expected an object at {dotted!r}")
            out[key] = _merge_strict(defaults[key], value, dotted)
        else:
            if isinstance(defaults[key], bool) != isinstance(value, bool):
                raise ConfigError(f"expected {type(defaults[key]).__name__} at {dotted!r}")
            out[key] = value
    return out


def _build(cls, tree, path):
    """Construct dataclass ``cls`` from its merged subtree at dotted ``path``.

    Values are coerced to each field's declared type. A rejected value raises
    ConfigError naming its full dotted path.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        value, dotted = tree[f.name], f"{path}.{f.name}"
        if dataclasses.is_dataclass(f.type):
            kwargs[f.name] = _build(f.type, value, dotted)
        elif isinstance(value, (int, float) if f.type in (int, float) else f.type):
            kwargs[f.name] = f.type(value)
        else:
            raise ConfigError(f"expected {f.type.__name__}, got {value!r}", field=dotted)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # validators name their field relative to some parent; keep the last part
        name = exc.field.rsplit(".", 1)[-1] if exc.field else None
        raise ConfigError(exc.reason, field=f"{path}.{name}" if name else path) from None


def _check(cond, message, field):
    if not cond:
        raise ConfigError(message, field=field)


def validate_config(raw):
    """Merge over defaults and range-check; returns the effective config dict."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge_strict(DEFAULTS, raw)
    ds = cfg["dataset"]
    _check(ds["kind"] in ("synthetic", "idx", "cifar", "raw"),
           f"unknown dataset kind {ds['kind']!r}", "dataset.kind")
    if ds["kind"] == "synthetic":
        _check(ds["synthetic_kind"] in ("two_gaussians", "striped_patches"),
               f"unknown synthetic kind {ds['synthetic_kind']!r}", "dataset.synthetic_kind")
        _check(ds["n"] >= 2, "n must be >= 2", "dataset.n")
        _check(ds["train_count"] + ds["val_count"] + ds["test_count"] <= ds["n"],
               "train+val+test counts exceed n", "dataset")
    else:
        path_fields = {
            "idx": ["images_path", "labels_path", "test_images_path", "test_labels_path"],
            "cifar": ["path", "test_path"],
            "raw": ["path", "test_path"],
        }[ds["kind"]]
        for f in path_fields:
            _check(bool(ds[f]), f"{f} is required for kind {ds['kind']!r}", f"dataset.{f}")
            _check(os.path.exists(ds[f]), f"path does not exist: {ds[f]}", f"dataset.{f}")
    make_train_config(cfg)
    mdl = cfg["model"]
    _check(mdl["kind"] in ("mlp", "tiny_cnn"), f"unknown model kind {mdl['kind']!r}",
           "model.kind")
    if mdl["init_checkpoint"]:
        _check(os.path.exists(mdl["init_checkpoint"]),
               f"path does not exist: {mdl['init_checkpoint']}", "model.init_checkpoint")
    return cfg


def list_presets():
    return sorted(p[:-5] for p in os.listdir(PRESET_DIR) if p.endswith(".json"))


def load_config(path_or_preset):
    """Load from a JSON file path, or from a shipped preset by name."""
    preset_path = os.path.join(PRESET_DIR, f"{path_or_preset}.json")
    path = path_or_preset if os.path.exists(path_or_preset) else preset_path
    if not os.path.exists(path):
        raise ConfigError(f"config not found: {path_or_preset!r} "
                          f"(presets: {', '.join(list_presets())})")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: line {exc.lineno} col {exc.colno}: "
                              f"{exc.msg}") from exc
    return validate_config(raw)


def make_train_config(cfg):
    return _build(TrainConfig, cfg["train"], "train")


def make_splits(cfg):
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        full = gen_synthetic(ds["synthetic_kind"], int(ds["n"]), int(ds["seed"]),
                             side=int(ds["side"]), noise=float(ds["noise"]))
        train, val, test = split_dataset(full, int(ds["train_count"]),
                                         int(ds["val_count"]), int(ds["test_count"]),
                                         int(ds["seed"]))
    else:
        if ds["kind"] == "idx":
            train = load_idx(ds["images_path"], ds["labels_path"])
            test = load_idx(ds["test_images_path"], ds["test_labels_path"])
        else:
            load = load_cifar_bin if ds["kind"] == "cifar" else load_raw
            train, test = load(ds["path"]), load(ds["test_path"])
        val = None
        if ds["val_count"]:
            _check(0 < ds["val_count"] < len(train),
                   f"val_count must be in [0, {len(train)}), the training file's row count",
                   "dataset.val_count")
            train, val, _ = split_dataset(train, len(train) - int(ds["val_count"]),
                                          int(ds["val_count"]), 0, int(ds["seed"]))
    if ds["subsample_count"]:
        train = subsample(train, int(ds["subsample_count"]), int(ds["subsample_seed"]))
    return Splits(train=train, test=test, val=val)


def make_network(cfg, splits, seed=None):
    from .engine.checkpoint import load_weights

    tr_seed = int(cfg["train"]["seed"]) if seed is None else seed
    net = build_network(cfg["model"], splits.train.input_shape,
                        splits.train.num_classes, tr_seed)
    if cfg["model"]["init_checkpoint"]:
        load_weights(net, cfg["model"]["init_checkpoint"])
    return net
