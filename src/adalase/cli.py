"""Command-line front end: train / validate. ``train`` runs every point of the
config's ``sweep`` grid, in ``out_dir`` for one point and ``out_dir/point{i}/``
for several, and writes one ``out_dir/grid.csv`` row per point."""

import argparse
import json
import os
import sys

from . import config as cfgmod
from .engine.checkpoint import save_weights
from .errors import AdalaseError, ConfigError
from .reporting import (content_hash, write_grid_csv, write_manifest, write_metrics_csv,
                        write_ratio_csv)
from .trainer import audit_worst_layer, train


def _load(args):
    cfg = cfgmod.load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}", field="--seed")
        if "train.seed" in cfg.get("sweep", {}):
            raise ConfigError("the config sweeps train.seed", field="--seed")
        cfg["train"]["seed"] = args.seed
    if args.out is not None:
        cfg["out_dir"] = args.out
    return cfg


def _input_hash(splits):
    parts = [splits.train.images.tobytes(), splits.train.labels.tobytes(),
             splits.test.images.tobytes(), splits.test.labels.tobytes()]
    if splits.val is not None:
        parts += [splits.val.images.tobytes(), splits.val.labels.tobytes()]
    return content_hash(parts)


def _check_out_dir(path):
    """ConfigError unless ``path`` is a directory or can be made one: its
    nearest existing ancestor, or itself, must be a directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"{probe} exists and is not a directory", field="out_dir")


def cmd_train(args):
    cfg = _load(args)
    points = cfgmod.grid_points(cfg)
    outs = ([os.path.join(cfg["out_dir"], f"point{i}") for i in range(len(points))]
            if len(points) > 1 else [cfg["out_dir"]])
    for out in outs:  # before any point trains, so a bad path loses no run
        _check_out_dir(out)
    runs = []
    for (values, point), out in zip(points, outs):
        point["out_dir"] = out
        splits = cfgmod.make_splits(point)
        net = cfgmod.make_network(point, splits)
        train_cfg = cfgmod.make_train_config(point)
        result = train(net, splits, train_cfg)
        os.makedirs(out, exist_ok=True)
        write_metrics_csv(result, os.path.join(out, "metrics.csv"))
        write_ratio_csv(result, os.path.join(out, "ratios.csv"))
        save_weights(net, os.path.join(out, "checkpoint.adlw"))
        write_manifest(os.path.join(out, "manifest.json"), point, train_cfg.seed,
                       _input_hash(splits))
        best = max(result.report, key=lambda r: r.test_acc)
        print(f"{out}: best test accuracy {best.test_acc:.4f} at epoch {best.epoch}")
        xy = audit_worst_layer(result.audit) if point["train"]["probe"] else None
        runs.append((values, result, xy))
    write_grid_csv(runs, os.path.join(cfg["out_dir"], "grid.csv"))
    return 0


def cmd_validate(args):
    cfg = _load(args)
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adalase",
        description="Train with hidden-layer augmentation and adaptive position selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("train", cmd_train), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="config JSON path or preset name "
                            f"({', '.join(cfgmod.list_presets())})")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AdalaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
