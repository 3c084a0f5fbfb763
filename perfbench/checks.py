"""Output checks run on every rep: they read the files a run wrote.

Each check returns a list of problem strings; an empty list means the output
is correct. Checks never raise on bad content, so a corrupted file is counted
as a failed run instead of aborting the benchmark.
"""

import csv
import hashlib
import math

import numpy as np

# also covers CSV rows: q is written with 12 significant digits, so a row sum
# read back can be off by about K * 5e-13
SIMPLEX_TOL = 1e-9
# a refactor that reorders float sums may move accuracy by a test sample or two
ACC_TOL = 0.02
AUDIT_X_TOL = 0.05
RATIO_Q_TOL = 1e-6


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def simplex_problems(q, d, tol=SIMPLEX_TOL):
    """Problems with one ratio vector on {sum q = 1, d <= q_i <= 1 - d}."""
    if not all(math.isfinite(v) for v in q):
        return [f"non-finite q {list(q)}"]
    out = []
    if abs(sum(q) - 1.0) > tol:
        out.append(f"q sums to {sum(q)!r}")
    if min(q) < d - tol or max(q) > 1.0 - d + tol:
        out.append(f"q outside [{d}, {1.0 - d}]: {list(q)}")
    return out


def _read_csv(path):
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh)), []
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        return [], [f"{path}: unreadable ({exc})"]


def _float(row, key):
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return math.nan


def check_metrics_csv(path, epochs, k, d):
    """Every epoch present, losses finite, accuracy in [0, 1], q on the simplex."""
    rows, problems = _read_csv(path)
    if problems:
        return problems
    if len(rows) != epochs:
        return [f"{path}: {len(rows)} epoch rows, expected {epochs}"]
    for e, row in enumerate(rows):
        where = f"{path} epoch {e}"
        for key in ["train_loss", "pseudo_loss", "val_loss"] + [f"probe_loss_{i}"
                                                              for i in range(k)]:
            if row.get(key, "") != "" and not math.isfinite(_float(row, key)):
                problems.append(f"{where}: {key} not finite ({row.get(key)!r})")
        if not math.isfinite(_float(row, "train_loss")):
            problems.append(f"{where}: train_loss missing")
        acc = _float(row, "test_acc")
        if not 0.0 <= acc <= 1.0:
            problems.append(f"{where}: test_acc {row.get('test_acc')!r} outside [0, 1]")
        q = [_float(row, f"q_{i}") for i in range(k)]
        problems += [f"{where}: {p}" for p in simplex_problems(q, d)]
    return problems


def check_ratios_csv(path, epochs, k, d, iters_per_epoch):
    """One q snapshot per epoch on the simplex; selections sum to the iterations."""
    rows, problems = _read_csv(path)
    if problems:
        return problems
    if len(rows) != epochs:
        return [f"{path}: {len(rows)} epoch rows, expected {epochs}"]
    for e, row in enumerate(rows):
        where = f"{path} epoch {e}"
        q = [_float(row, f"q_{i}") for i in range(k)]
        problems += [f"{where}: {p}" for p in simplex_problems(q, d)]
        try:
            selected = sum(int(row[f"selected_{i}"]) for i in range(k))
        except (KeyError, TypeError, ValueError):
            selected = -1
        if selected != iters_per_epoch:
            problems.append(f"{where}: {selected} selections, expected {iters_per_epoch}")
    return problems


def final_test_acc(path):
    rows, _ = _read_csv(path)
    return _float(rows[-1], "test_acc") if rows else math.nan


def check_close(name, value, reference, tol):
    if not math.isfinite(value) or abs(value - reference) > tol:
        return [f"{name} {value!r} differs from reference {reference!r} by more than {tol}"]
    return []


def stream_problems(q, dots, d, tol=SIMPLEX_TOL):
    """(failed calls, problems) for a ratio stream; ``q[i + 1]`` follows ``dots[i]``.

    Every post-update q must lie on the bounded simplex, and a non-finite dot
    must leave q unchanged.
    """
    after = q[1:]
    bad = ((np.abs(after.sum(axis=1) - 1.0) > tol)
           | (after.min(axis=1) < d - tol)
           | (after.max(axis=1) > 1.0 - d + tol)
           | ~np.isfinite(after).all(axis=1))
    skipped = np.flatnonzero(~np.isfinite(np.asarray(dots, dtype=float)))
    bad[skipped] |= (q[skipped + 1] != q[skipped]).any(axis=1)
    failed = int(bad.sum())
    if not failed:
        return 0, []
    first = int(np.flatnonzero(bad)[0])
    return failed, [f"{failed} updates left the bounded simplex or moved q on a "
                    f"non-finite dot; first at call {first}: q={q[first + 1].tolist()}"]
