"""Classification loss and flat-gradient utilities."""

import numpy as np

from ..errors import ShapeError, ValidationError

LABEL_ROW_SUM_TOL = 1e-6


def check_soft_labels(labels):
    """Validate a (batch, classes) soft-label matrix; rows must sum to 1."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"soft labels must be 2-D, got shape {labels.shape}")
    worst = float(np.abs(labels.sum(axis=1) - 1.0).max(initial=0.0))
    if not worst <= LABEL_ROW_SUM_TOL:  # a NaN row fails too
        raise ValidationError(f"soft-label rows must sum to 1 (max deviation {worst:.3e})")
    return labels


def one_hot(class_ids, num_classes, dtype=np.float64):
    ids = np.asarray(class_ids, dtype=np.int64)
    out = np.zeros((ids.shape[0], num_classes), dtype=dtype)
    out[np.arange(ids.shape[0]), ids] = 1.0
    return out


def cross_entropy(logits, soft_labels):
    """Mean soft-label cross entropy with max-subtraction stabilization.

    Returns (loss, dloss/dlogits). The row max is a fold of ``maximum`` over
    the class columns, the same operations in the same order as
    ``logits.max(axis=1)`` (NaN rows and signed zeros included) without a
    per-row inner loop. The products and the gradient are formed in place on
    the function's own temporaries, after casting them to the dtype that
    mixing them with the labels promotes to: the same IEEE operations as
    ``-(labels * log_probs).sum() / batch`` and ``(probs - labels) / batch``.
    """
    logits = np.asarray(logits)
    soft_labels = check_soft_labels(soft_labels)
    if logits.shape != soft_labels.shape:
        raise ShapeError(f"logits {logits.shape} vs labels {soft_labels.shape}")
    row_max = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, j], out=row_max)
    shifted = logits - row_max[:, None]
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    exp /= total  # probs
    dtype = np.result_type(exp, soft_labels)
    log_probs = log_probs.astype(dtype, copy=False)
    log_probs *= soft_labels
    batch = logits.shape[0]
    loss = float(-log_probs.sum() / batch)
    dlogits = exp.astype(dtype, copy=False)
    dlogits -= soft_labels
    dlogits /= batch
    return loss, dlogits


def grad_dot(a, b):
    """Inner product of two flat gradients, fixed sequential accumulation order."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"flat gradient length mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))
