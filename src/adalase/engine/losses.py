"""Classification loss and flat-gradient utilities.

Row sums over a (batch, classes) matrix are a left fold over the class
columns (``_row_sums``), one whole-column add at a time, where numpy's
``sum(axis=1)`` would run a per-row inner loop. The fold keeps numpy's bytes
only where numpy adds in that order: for float32 and float64 with 2 to 7
columns, numpy 2.4.6 sums each row as ``((0.0 + a0) + a1) + ...``, whether
the matrix is C- or F-ordered. From 8 columns on it sums a C-ordered row in
eight partial sums, and it sums float16 in float32, so every other dtype or
class count takes ``sum(axis=1)``. The fold starts from ``a0 + a1``, not
``0.0 + a0``; ``_row_sums`` says why its callers need no more.
"""

import functools

import numpy as np

from ..errors import ShapeError, ValidationError

LABEL_ROW_SUM_TOL = 1e-6
_FOLD_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _row_sums(a):
    """``a.sum(axis=1)`` of a 2-D ``a`` as a fresh array: a column fold where numpy
    adds in that order, ``sum(axis=1)`` elsewhere.

    The bytes are numpy's except for a row of only -0.0, which the fold sums to
    -0.0. The label check subtracts 1 from the sum, which drops the sign of a
    zero, and ``exp`` never returns -0.0.
    """
    if a.dtype not in _FOLD_DTYPES or not 1 < a.shape[1] < 8:
        return a.sum(axis=1)
    total = a[:, 0] + a[:, 1]
    for j in range(2, a.shape[1]):
        total += a[:, j]
    return total


def check_soft_labels(labels):
    """Validate a (batch, classes) soft-label matrix; rows must sum to 1."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"soft labels must be 2-D, got shape {labels.shape}")
    sums = _row_sums(labels)  # a fresh array; an integer sum turns float here
    deviation = np.subtract(sums, 1.0, out=sums if sums.dtype.kind == "f" else None)
    worst = float(np.abs(deviation, out=deviation).max(initial=0.0))
    if not worst <= LABEL_ROW_SUM_TOL:  # a NaN row fails too
        raise ValidationError(f"soft-label rows must sum to 1 (max deviation {worst:.3e})")
    return labels


@functools.lru_cache(maxsize=None)
def _identity(num_classes, dtype):
    """Read-only ``num_classes``-square identity matrix in ``dtype``, one per key."""
    eye = np.eye(num_classes, dtype=dtype)
    eye.flags.writeable = False
    return eye


def one_hot(class_ids, num_classes, dtype=np.float64):
    """Rows of a cached read-only identity matrix in ``dtype``, as a fresh array."""
    ids = np.asarray(class_ids, dtype=np.int64)
    return _identity(num_classes, np.dtype(dtype)).take(ids, axis=0)


def cross_entropy(logits, soft_labels):
    """Mean soft-label cross entropy with max-subtraction stabilization.

    Returns (loss, dloss/dlogits). The row max is a fold of ``maximum`` over
    the class columns, the same operations in the same order as
    ``logits.max(axis=1)`` (NaN rows and signed zeros included) without a
    per-row inner loop. The row sum is ``_row_sums``, and ``log(total)`` is
    subtracted and ``total`` divided out one column at a time, the same IEEE
    operations as broadcasting them. The products and the gradient are formed
    in place on the function's own temporaries, cast first to the dtype that
    mixing them with the labels promotes to when the labels' dtype differs:
    the same IEEE operations as ``-(labels * log_probs).sum() / batch`` and
    ``(probs - labels) / batch``.
    """
    logits = np.asarray(logits)
    soft_labels = check_soft_labels(soft_labels)
    if logits.shape != soft_labels.shape:
        raise ShapeError(f"logits {logits.shape} vs labels {soft_labels.shape}")
    classes = logits.shape[1]
    row_max = np.maximum(logits[:, 0], logits[:, 1]) if classes > 1 else logits[:, 0]
    for j in range(2, classes):
        np.maximum(row_max, logits[:, j], out=row_max)
    shifted = logits - row_max[:, None]
    exp = np.exp(shifted)
    total = _row_sums(exp)
    log_total = np.log(total)
    log_probs = shifted.astype(log_total.dtype, copy=False)  # integer logits exp to a float
    for j in range(classes):
        log_probs[:, j] -= log_total
        exp[:, j] /= total  # probs
    if soft_labels.dtype != exp.dtype:
        dtype = np.result_type(exp, soft_labels)
        log_probs = log_probs.astype(dtype, copy=False)
        exp = exp.astype(dtype, copy=False)
    log_probs *= soft_labels
    batch = logits.shape[0]
    loss = float(-log_probs.sum() / batch)
    exp -= soft_labels  # dlogits
    exp /= batch
    return loss, exp


def grad_dot(a, b):
    """Inner product of two flat gradients, fixed sequential accumulation order."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"flat gradient length mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))
