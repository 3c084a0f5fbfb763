"""CSV/manifest emission. All files are written atomically (temp + rename)."""

import csv
import hashlib
import json

from .engine.checkpoint import atomic_write


def _csv_text(header, rows):
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_metrics_csv(result, path):
    k = len(result.report[0].q)
    header = (["epoch", "lr", "train_loss", "pseudo_loss", "val_loss", "test_acc"]
              + [f"q_{i}" for i in range(k)]
              + [f"probe_loss_{i}" for i in range(k)])
    rows = []
    for rec in result.report:
        probe = rec.probe_losses if rec.probe_losses is not None else [""] * k
        rows.append([rec.epoch, f"{rec.lr:.10g}", f"{rec.train_loss:.10g}",
                     "" if rec.pseudo_loss is None else f"{rec.pseudo_loss:.10g}",
                     "" if rec.val_loss is None else f"{rec.val_loss:.10g}",
                     f"{rec.test_acc:.6f}"]
                    + [f"{q:.12g}" for q in rec.q]
                    + [p if p == "" else f"{p:.10g}" for p in probe])
    atomic_write(path, _csv_text(header, rows))


def write_ratio_csv(result, path):
    k = len(result.report[0].q)
    header = ["epoch"] + [f"q_{i}" for i in range(k)] + [f"selected_{i}" for i in range(k)]
    iters = len(result.audit.selected) // len(result.report)
    rows = []
    for e, rec in enumerate(result.report):
        window = result.audit.selected[e * iters : (e + 1) * iters]
        hist = [window.count(i) for i in range(k)]
        rows.append([e] + [f"{q:.12g}" for q in rec.q] + hist)
    atomic_write(path, _csv_text(header, rows))


def write_audit_csv(rows, path):
    header = ["seed", "x_metric", "y_metric", "n_all"]
    atomic_write(path, _csv_text(
        header, [[seed, f"{x:.8g}", f"{y:.8g}", n] for seed, x, y, n in rows]))


def write_grid_csv(runs, path):
    """One row per grid point, from ``(values, result, audit (x, y) or None)``
    with ``values`` the point's swept values by dotted key."""
    header = ["point", *runs[0][0], "final_q", "best_test_acc", "final_test_acc",
              "x_metric", "y_metric", "n_all"]
    rows = [[i, *values.values(), " ".join(f"{q:.12g}" for q in res.final_ratios.q),
             f"{max(r.test_acc for r in res.report):.6f}", f"{res.report[-1].test_acc:.6f}",
             *(("", "") if xy is None else (f"{v:.8g}" for v in xy)), res.audit.n_all]
            for i, (values, res, xy) in enumerate(runs)]
    atomic_write(path, _csv_text(header, rows))


def content_hash(payloads):
    """sha256 over a sequence of byte strings; stable run-input fingerprint."""
    h = hashlib.sha256()
    for p in payloads:
        h.update(hashlib.sha256(p).digest())
    return h.hexdigest()


def write_manifest(path, effective_config, seed, input_hash):
    """``val_source`` names the split that feeds ``val_mode: "true"`` and the
    probes: ``test`` unless ``dataset.val_count`` holds out a validation split."""
    val_source = "val" if effective_config["dataset"]["val_count"] else "test"
    atomic_write(path, json.dumps(
        {"config": effective_config, "seed": seed, "input_hash": input_hash,
         "val_source": val_source}, indent=2, sort_keys=True) + "\n")
