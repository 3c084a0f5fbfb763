"""Classification loss and flat-gradient utilities."""

import numpy as np

from ..errors import ShapeError, ValidationError

LABEL_ROW_SUM_TOL = 1e-6


def check_soft_labels(labels):
    """Validate a (batch, classes) soft-label matrix; rows must sum to 1."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"soft labels must be 2-D, got shape {labels.shape}")
    row_sums = labels.sum(axis=1)
    if not np.all(np.abs(row_sums - 1.0) <= LABEL_ROW_SUM_TOL):
        worst = float(np.abs(row_sums - 1.0).max())
        raise ValidationError(f"soft-label rows must sum to 1 (max deviation {worst:.3e})")
    return labels


def one_hot(class_ids, num_classes, dtype=np.float64):
    ids = np.asarray(class_ids, dtype=np.int64)
    out = np.zeros((ids.shape[0], num_classes), dtype=dtype)
    out[np.arange(ids.shape[0]), ids] = 1.0
    return out


def cross_entropy(logits, soft_labels):
    """Mean soft-label cross entropy with max-subtraction stabilization.

    Returns (loss, dloss/dlogits).
    """
    logits = np.asarray(logits)
    if logits.ndim == 4:
        logits = logits.reshape(logits.shape[0], -1)
    soft_labels = check_soft_labels(soft_labels)
    if logits.shape != soft_labels.shape:
        raise ShapeError(f"logits {logits.shape} vs labels {soft_labels.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    log_probs = shifted - np.log(total)
    batch = logits.shape[0]
    loss = float(-(soft_labels * log_probs).sum() / batch)
    dlogits = (probs - soft_labels) / batch
    return loss, dlogits


def grad_dot(a, b):
    """Inner product of two flat gradients, fixed sequential accumulation order."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"flat gradient length mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))
