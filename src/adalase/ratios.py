"""Acceptance-ratio state over tap positions and its gradient-based update.

The ratio vector q lives on the probability simplex with elementwise bounds
[d, 1-d]; d = d_scale / K keeps every position selectable so a ratio can
recover after being driven down. Updates clamp the touched entry, renormalize,
and re-clamp once if normalization re-violated a bound (with an exact bounded
projection as a final safety net for extreme inputs).
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)

SIMPLEX_TOL = 1e-9

SCHEDULE_SHAPES = ("adaptive", "uniform", "fixed", "linear_inc", "linear_dec",
                   "mountain", "valley")


@dataclass
class AcceptanceRatios:
    q: np.ndarray
    d: float


@dataclass
class AdaLaseConfig:
    eta: float = 1.0
    avg_window: int = 0  # buffered entries per update; 0 means one epoch's iterations
    d_scale: float = 0.1
    dot_normalization: str = "raw"  # raw | cosine

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigError("eta must be > 0", field="adalase.eta")
        if self.avg_window < 0:
            raise ConfigError("avg_window must be >= 0", field="adalase.avg_window")
        if not 0 < self.d_scale < 1:
            raise ConfigError("d_scale must be in (0,1)", field="adalase.d_scale")
        if self.dot_normalization not in ("raw", "cosine"):
            raise ConfigError("dot_normalization must be 'raw' or 'cosine'",
                              field="adalase.dot_normalization")


@dataclass
class RatioSchedule:
    shape: str = "adaptive"
    fixed_index: int = 0

    def __post_init__(self):
        if self.shape not in SCHEDULE_SHAPES:
            raise ConfigError(f"unknown schedule shape {self.shape!r}", field="schedule.shape")
        if self.fixed_index < 0:
            raise ConfigError("fixed_index must be >= 0", field="schedule.fixed_index")


def init_ratios(num_positions, d_scale=0.1):
    """Uniform q over K positions with lower limit d = d_scale / K."""
    if num_positions < 2:
        raise ConfigError(f"need at least 2 tap positions, got {num_positions}")
    q = np.full(num_positions, 1.0 / num_positions)
    return AcceptanceRatios(q=q, d=d_scale / num_positions)


def sample_position(ratios, rng):
    """Categorical draw over positions with probabilities q.

    The inverse-CDF steps that ``rng.choice(K, p=q / q.sum())`` runs, without
    its argument checks: the same draw and the same rng stream. Only the sum
    is numpy's (left to right below K = 8, pairwise from there); the running
    sums, their division by the last one and the count of entries ``<= u``
    are the arithmetic of ``np.cumsum``, ``cdf /= cdf[-1]`` and
    ``searchsorted(u, side="right")``, done on Python floats.
    """
    total = float(ratios.q.sum())
    cdf = []
    c = 0.0
    for v in ratios.q.tolist():
        c += v / total
        cdf.append(c)
    u = rng.random()
    i = 0
    # the CDF never falls and ends at c / c = 1 > u, so this stops at the count
    # of entries <= u
    while cdf[i] / c <= u:
        i += 1
    return i


def _project_bounded(q, d):
    # exact projection onto {sum=1, d<=q_i<=1-d} by bisection on an additive shift
    hi_bound = 1.0 - d
    lo, hi = -1.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        s = sum(min(max(v + mid, d), hi_bound) for v in q)
        if s > 1.0:
            hi = mid
        else:
            lo = mid
    mid = 0.5 * (lo + hi)
    return [min(max(v + mid, d), hi_bound) for v in q]


def _renormalize(q, d):
    """Normalize a plain-float list onto the bounded simplex.

    Clamp-then-normalize with one corrective re-pass handles every update that
    starts from a feasible state; the exact projection covers adversarial dot
    magnitudes that re-violate the bounds after both passes.
    """
    hi = 1.0 - d
    s = sum(q)
    q = [v / s for v in q]
    if min(q) >= d - SIMPLEX_TOL and max(q) <= hi + SIMPLEX_TOL:
        return q
    q = [min(max(v, d), hi) for v in q]
    s = sum(q)
    q = [v / s for v in q]
    if min(q) >= d - SIMPLEX_TOL and max(q) <= hi + SIMPLEX_TOL:
        return q
    q = _project_bounded(q, d)
    s = sum(q)
    return [v / s for v in q]


def adalase_update(ratios, l, dot, cfg):
    """One ratio step: q_l += eta*dot, clamp q_l into [d, 1-d], renormalize."""
    k = ratios.q.shape[0]
    if not 0 <= l < k:
        raise ConfigError(f"position {l} out of range for {k} ratios")
    if not (dot == dot and -np.inf < dot < np.inf):
        log.warning("rejecting non-finite ratio update (dot=%r) at position %d", dot, l)
        return ratios
    d = ratios.d
    q = ratios.q.tolist()
    q[l] = min(max(q[l] + cfg.eta * dot, d), 1.0 - d)
    return AcceptanceRatios(q=np.array(_renormalize(q, d)), d=d)


def averaged_update(ratios, window_buffer, cfg):
    """Apply one update per position using the mean dot of its buffered entries
    (so a window of one entry is bitwise ``adalase_update``)."""
    sums = {}
    counts = {}
    for l, dot in window_buffer:
        if not np.isfinite(dot):
            log.warning("dropping non-finite buffered dot (%r) at position %d", dot, l)
            continue
        sums[l] = sums.get(l, 0.0) + dot
        counts[l] = counts.get(l, 0) + 1
    d = ratios.d
    q = ratios.q.tolist()
    updated = False
    for l in sorted(sums):
        if not 0 <= l < len(q):
            raise ConfigError(f"position {l} out of range for {len(q)} ratios")
        mean = sums[l] / counts[l]
        if not np.isfinite(mean):
            log.warning("rejecting non-finite ratio update (dot=%r) at position %d", mean, l)
            continue
        q[l] = min(max(q[l] + cfg.eta * mean, d), 1.0 - d)
        updated = True
    if not updated:
        return ratios
    return replace(ratios, q=np.array(_renormalize(q, d)))


def schedule_ratios(schedule, num_positions):
    """Static ratio vector of ``schedule`` (a ``RatioSchedule``) over the positions."""
    k = num_positions
    shape = schedule.shape
    if shape == "uniform" or shape == "adaptive":
        q = np.full(k, 1.0 / k)
    elif shape == "fixed":
        idx = schedule.fixed_index
        if not 0 <= idx < k:
            raise ConfigError(f"fixed index {idx} out of range for {k} positions")
        q = np.zeros(k)
        q[idx] = 1.0
    elif shape == "linear_inc":
        q = np.arange(1, k + 1, dtype=float)
    elif shape == "linear_dec":
        q = np.arange(k, 0, -1, dtype=float)
    elif shape == "mountain":
        q = np.minimum(np.arange(1, k + 1), np.arange(k, 0, -1)).astype(float)
    elif shape == "valley":
        q = 1.0 / np.minimum(np.arange(1, k + 1), np.arange(k, 0, -1))
    else:
        raise ConfigError(f"unknown schedule shape {shape!r}")
    return q / q.sum()
