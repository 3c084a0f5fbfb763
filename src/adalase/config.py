"""Experiment configuration: strict JSON parsing, presets, and object assembly.

Configs are a nested key tree. Unknown keys are rejected with their dotted
path; values are type-checked and range-checked before anything runs. The
``train`` subtree is derived from the ``TrainConfig`` dataclass: its defaults
are the dataclass defaults and its checks are the dataclass validators.
An optional top-level ``sweep`` makes the config a grid (see ``grid_points``).
"""

import dataclasses
import itertools
import json
import math
import os

from .data import (gen_synthetic, load_cifar_bin, load_idx, load_raw,
                   split_dataset, subsample)
from .engine.builders import TAPS, build_network
from .errors import ConfigError
from .trainer import Splits, TrainConfig, check_sample_counts

PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")

DEFAULTS = {
    "preset": "",
    "out_dir": "runs/out",
    "dataset": {
        "kind": "synthetic",
        "synthetic_kind": "striped_patches",
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

# ``train`` keys that only the adaptive schedule reads: the ratio updates and
# their lower limit (``d_scale``), and the pseudo-validation batch
ADAPTIVE_ONLY = ("adalase.eta", "adalase.avg_window", "adalase.d_scale",
                 "adalase.dot_normalization", "val_mode", "pseudo_val_aug")


def _merge_strict(defaults, user, path=""):
    """``user`` over ``defaults`` as a tree of fresh dicts; every default leaf is
    an immutable scalar, so no leaf is copied."""
    out = {}
    for key, value in user.items():
        dotted = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown key {dotted!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"expected an object at {dotted!r}")
            out[key] = _merge_strict(defaults[key], value, dotted)
        else:
            # a number fits a float default; only a JSON integer fits an int default
            default = defaults[key]
            allowed = (int, float) if type(default) is float else type(default)
            if (not isinstance(value, allowed)
                    or isinstance(value, bool) != isinstance(default, bool)):
                raise ConfigError(f"expected {type(default).__name__}, got {value!r}",
                                  field=dotted)
            out[key] = value
    return {key: out[key] if key in out
            else _merge_strict(default, {}) if isinstance(default, dict) else default
            for key, default in defaults.items()}


def _build(cls, tree, path):
    """Construct dataclass ``cls`` from its merged subtree at dotted ``path``.

    ``tree`` has passed ``_merge_strict``'s type rule; values are coerced to
    each field's declared type. A rejected value raises ConfigError naming its
    full dotted path.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        value, dotted = tree[f.name], f"{path}.{f.name}"
        if dataclasses.is_dataclass(f.type):
            kwargs[f.name] = _build(f.type, value, dotted)
        else:
            kwargs[f.name] = f.type(value)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # validators name their field relative to some parent; keep the last part
        name = exc.field.rsplit(".", 1)[-1] if exc.field else None
        raise ConfigError(exc.reason, field=f"{path}.{name}" if name else path) from None


def _at(tree, dotted):
    for key in dotted.split("."):
        tree = tree[key]
    return tree


def _check(cond, message, field):
    if not cond:
        raise ConfigError(message, field=field)


def validate_config(raw):
    """Merge over defaults and range-check; returns the effective config dict."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "sweep" in raw:
        cfg = validate_config({k: v for k, v in raw.items() if k != "sweep"})
        cfg["sweep"] = raw["sweep"]
        grid_points(cfg)
        return cfg
    cfg = _merge_strict(DEFAULTS, raw)
    ds = cfg["dataset"]
    _check(ds["kind"] in ("synthetic", "idx", "cifar", "raw"),
           f"unknown dataset kind {ds['kind']!r}", "dataset.kind")
    synthetic = ds["kind"] == "synthetic"
    # every count, seed and noise level the run reads is >= 0
    for key, read in (("train_count", synthetic), ("val_count", True),
                      ("test_count", synthetic), ("subsample_count", True),
                      ("noise", synthetic), ("seed", synthetic or ds["val_count"] != 0),
                      ("subsample_seed", ds["subsample_count"] != 0)):
        _check(not read or ds[key] >= 0, f"{key} must be >= 0", f"dataset.{key}")
    if synthetic:
        _check(ds["synthetic_kind"] in ("two_gaussians", "striped_patches"),
               f"unknown synthetic kind {ds['synthetic_kind']!r}", "dataset.synthetic_kind")
        min_side = 2 if ds["synthetic_kind"] == "striped_patches" else 1
        _check(ds["side"] >= min_side, f"side must be >= {min_side} for "
               f"{ds['synthetic_kind']}", "dataset.side")
        for key, split in (("train_count", "training"), ("test_count", "test")):
            _check(ds[key] > 0, f"{split} dataset is empty", f"dataset.{key}")
        _check(ds["subsample_count"] <= ds["train_count"],
               f"subsample_count {ds['subsample_count']} exceeds train_count "
               f"{ds['train_count']}", "dataset.subsample_count")
    else:
        path_fields = {
            "idx": ["images_path", "labels_path", "test_images_path", "test_labels_path"],
            "cifar": ["path", "test_path"],
            "raw": ["path", "test_path"],
        }[ds["kind"]]
        for f in path_fields:
            _check(bool(ds[f]), f"{f} is required for kind {ds['kind']!r}", f"dataset.{f}")
            _check(os.path.exists(ds[f]), f"path does not exist: {ds[f]}", f"dataset.{f}")
    train_cfg = make_train_config(cfg)
    # keys the run would silently ignore: only their defaults are accepted
    tr = cfg["train"]
    shape = tr["schedule"]["shape"]
    for key, read, when in (
            *((key, shape == "adaptive", "schedule 'adaptive'") for key in ADAPTIVE_ONLY),
            ("schedule.fixed_index", shape == "fixed", "schedule 'fixed'"),
            ("pseudo_val_aug", tr["val_mode"] == "pseudo", "val_mode 'pseudo'")):
        _check(read or _at(tr, key) == _at(DEFAULTS["train"], key),
               f"{key.rsplit('.', 1)[-1]} is read only under {when}", f"train.{key}")
    if synthetic:
        check_sample_counts(train_cfg, ds["subsample_count"] or ds["train_count"],
                            ds["val_count"] or ds["test_count"])
    mdl = cfg["model"]
    _check(mdl["kind"] in ("mlp", "tiny_cnn"), f"unknown model kind {mdl['kind']!r}",
           "model.kind")
    if mdl["kind"] == "mlp":
        # the hidden activation is viewed as a square map
        _check(mdl["hidden"] >= 1 and math.isqrt(mdl["hidden"]) ** 2 == mdl["hidden"],
               f"hidden must be a positive perfect square, got {mdl['hidden']}",
               "model.hidden")
    else:
        _check(mdl["width"] >= 1, "width must be >= 1", "model.width")
    k = len(TAPS[mdl["kind"]])
    _check(shape != "fixed" or tr["schedule"]["fixed_index"] < k,
           f"fixed index {tr['schedule']['fixed_index']} out of range for {k} positions",
           "train.schedule.fixed_index")
    if mdl["init_checkpoint"]:
        _check(os.path.exists(mdl["init_checkpoint"]),
               f"path does not exist: {mdl['init_checkpoint']}", "model.init_checkpoint")
    return cfg


def grid_points(cfg):
    """``(values, effective config)`` per point of the ``sweep`` grid, the last key
    fastest: ``cfg`` without ``sweep``, with the values set, through
    ``validate_config``. Without a sweep, the one point ``({}, cfg)``."""
    if "sweep" not in cfg:
        return [({}, cfg)]
    sweep = cfg["sweep"]
    _check(isinstance(sweep, dict) and sweep
           and all(isinstance(v, list) and v for v in sweep.values()),
           "expected an object mapping dotted keys to non-empty value lists", "sweep")
    _check("out_dir" not in sweep, "out_dir is set per point", "sweep")
    base = {k: v for k, v in cfg.items() if k != "sweep"}
    points = []
    for combo in itertools.product(*sweep.values()):
        point = dict(base)
        for dotted, value in zip(sweep, combo):
            *parents, leaf = dotted.split(".")
            node = point
            for key in parents:
                child = node.get(key) if isinstance(node, dict) else None
                if isinstance(child, dict):  # copy only the dicts on the swept path
                    child = dict(child)
                    node[key] = child
                node = child
            # only a value key can be swept, not an object of keys
            _check(isinstance(node, dict) and not isinstance(node.get(leaf, {}), dict),
                   f"unknown key {dotted!r}", "sweep")
            node[leaf] = value
        points.append((dict(zip(sweep, combo)), validate_config(point)))
    return points


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
        total = ds["train_count"] + ds["val_count"] + ds["test_count"]
        full = gen_synthetic(ds["synthetic_kind"], total, ds["seed"], side=ds["side"],
                             noise=ds["noise"])
        train, val, test = split_dataset(full, ds["train_count"], ds["val_count"],
                                         ds["test_count"], ds["seed"])
    else:
        if ds["kind"] == "idx":
            train = load_idx(ds["images_path"], ds["labels_path"])
            test = load_idx(ds["test_images_path"], ds["test_labels_path"])
        else:
            load = load_cifar_bin if ds["kind"] == "cifar" else load_raw
            train, test = load(ds["path"]), load(ds["test_path"])
        n = max(train.num_classes, test.num_classes)  # one label space per run
        train, test = (dataclasses.replace(d, num_classes=n) for d in (train, test))
        val = None
        if ds["val_count"]:
            _check(0 < ds["val_count"] < len(train),
                   f"val_count must be in [0, {len(train)}), the training file's row count",
                   "dataset.val_count")
            train, val, _ = split_dataset(train, len(train) - ds["val_count"],
                                          ds["val_count"], 0, ds["seed"])
    if ds["subsample_count"]:
        train = subsample(train, ds["subsample_count"], ds["subsample_seed"])
    return Splits(train=train, test=test, val=val)


def make_network(cfg, splits, seed=None):
    from .engine.checkpoint import load_weights

    tr_seed = cfg["train"]["seed"] if seed is None else seed
    net = build_network(cfg["model"], splits.train.input_shape,
                        splits.train.num_classes, tr_seed)
    if cfg["model"]["init_checkpoint"]:
        load_weights(net, cfg["model"]["init_checkpoint"])
    return net
