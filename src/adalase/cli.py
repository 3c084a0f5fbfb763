"""Command-line front end: train / audit / sweep-kd / validate."""

import argparse
import copy
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from .engine.checkpoint import save_weights
from .errors import AdalaseError, ConfigError
from .reporting import (atomic_write_text, content_hash, write_audit_csv,
                        write_manifest, write_metrics_csv, write_ratio_csv)
from .trainer import audit_worst_layer, train

KD_SWEEP_VALUES = (0.1, 0.2, 0.3, 0.4, 0.5)


def _load(args):
    cfg = cfgmod.load_config(args.config)
    if args.seed is not None:
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


def cmd_train(args):
    cfg = _load(args)
    splits = cfgmod.make_splits(cfg)
    net = cfgmod.make_network(cfg, splits)
    train_cfg = cfgmod.make_train_config(cfg)
    result = train(net, splits, train_cfg)

    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    write_metrics_csv(result, os.path.join(out, "metrics.csv"))
    write_ratio_csv(result, os.path.join(out, "ratios.csv"))
    save_weights(net, os.path.join(out, "checkpoint.adlw"))
    write_manifest(os.path.join(out, "manifest.json"), cfg, train_cfg.seed,
                   _input_hash(splits))
    best = max(result.report, key=lambda r: r.test_acc)
    print(f"best test accuracy {best.test_acc:.4f} at epoch {best.epoch}")
    return 0


def cmd_audit(args):
    if args.runs < 1:
        raise ConfigError(f"must be >= 1, got {args.runs}", field="--runs")
    cfg = _load(args)
    cfg["train"]["probe"] = True
    splits = cfgmod.make_splits(cfg)
    train_cfg = cfgmod.make_train_config(cfg)
    base_seed = train_cfg.seed
    rows = []
    for i in range(args.runs):
        seed = base_seed + i
        net = cfgmod.make_network(cfg, splits, seed=seed)
        result = train(net, splits, train_cfg, train_seed=seed)
        x, y = audit_worst_layer(result.audit)
        rows.append((seed, x, y, result.audit.n_all))
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    write_audit_csv(rows, os.path.join(out, "audit.csv"))
    write_manifest(os.path.join(out, "manifest.json"), cfg, base_seed,
                   _input_hash(splits))
    mean_x = float(np.mean([r[1] for r in rows]))
    print(f"{args.runs} runs, mean x_metric {mean_x:+.4f}")
    return 0


def cmd_sweep_kd(args):
    cfg = _load(args)
    splits = cfgmod.make_splits(cfg)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    finals = []
    for kd in KD_SWEEP_VALUES:
        run_cfg = copy.deepcopy(cfg)
        run_cfg["train"]["adalase"]["d_scale"] = kd
        net = cfgmod.make_network(run_cfg, splits)
        result = train(net, splits, cfgmod.make_train_config(run_cfg))
        write_ratio_csv(result, os.path.join(out, f"ratios_kd{kd:.1f}.csv"))
        finals.append((kd, tuple(result.final_ratios.q)))
    k = len(finals[0][1])
    lines = ["kd," + ",".join(f"q_{i}" for i in range(k))]
    for kd, q in finals:
        lines.append(f"{kd:.1f}," + ",".join(f"{v:.12g}" for v in q))
    atomic_write_text(os.path.join(out, "final_ratios.csv"), "\n".join(lines) + "\n")
    write_manifest(os.path.join(out, "manifest.json"), cfg,
                   cfg["train"]["seed"], _input_hash(splits))
    print(f"swept Kd over {KD_SWEEP_VALUES}, outputs in {out}")
    return 0


def cmd_validate(args):
    cfg = cfgmod.load_config(args.config)
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adalase",
        description="Train with hidden-layer augmentation and adaptive position selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, has_runs in (("train", cmd_train, False),
                               ("audit", cmd_audit, True),
                               ("sweep-kd", cmd_sweep_kd, False),
                               ("validate", cmd_validate, False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="config JSON path or preset name "
                            f"({', '.join(cfgmod.list_presets())})")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")
        p.add_argument("--out", default=None, help="override output directory")
        if has_runs:
            p.add_argument("--runs", type=int, default=1)
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
