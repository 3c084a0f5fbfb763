"""Augmentation kernels usable on input batches and hidden feature maps.

Spatial parameters are fractions of the current map's side, so one spec
applies unchanged at any tap resolution. Mask locations, shifts, and paste
regions are always shared across the channels of a sample. Each mixing or
masking kernel also hands back a grad_fn that routes an upstream gradient
through the (frozen) transform, treating the sampled parameters as constants.

Kernels are batched: rotation, shift and crop are one zero-filled gather
(``_remap``); cutout and cutmix boxes are one gather from a cached, read-only
table of the box at every anchor (``_box_table``), which grows with the map:
under 10 KB for the shipped 8x8 and 6x6 maps, 11.7 MB for every cutmix box
size on a 32x32 map. Parameters are drawn in per-sample order, so a seeded
stream yields the same outcome and end state as a sample-by-sample loop.
mixup and cutmix are one partner blend (``_mix``) under a scalar or box-mask
weight; the partner map is a permutation, so its gradient is a gather through
the inverse permutation. Both gathers run along the batch axis of the map's
buffer (``_partners``): a hidden map that is a (B, C, H, W) view of a
(C, H, W, B) buffer is gathered with ``np.take`` on the (C*H*W, B) view, so
mixup hands the next layer the batch-innermost layout it received; an input
batch in C order is gathered as ``x[perm]``.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DegenerateBatchError, PolicyError, ShapeError

MIXING_KINDS = ("mixup", "cutmix")
INPUT_ONLY_KINDS = ("rotation", "random_crop", "horizontal_flip")
ALL_KINDS = ("none",) + MIXING_KINDS + ("cutout", "translation") + INPUT_ONLY_KINDS


@dataclass
class AugSpec:
    """Which augmentation to apply plus its hyperparameters."""

    kind: str = "none"
    alpha: float = 1.0
    mask_fraction: float = 0.5
    shift_fraction_max: float = 0.2
    degree_range: float = 10.0
    pad: int = 4

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ConfigError(f"unknown augmentation kind {self.kind!r}", field="kind")
        if self.kind in MIXING_KINDS and not self.alpha > 0:
            raise ConfigError(f"alpha must be > 0 for {self.kind}, got {self.alpha}",
                              field="alpha")
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ConfigError(f"mask_fraction must be in [0,1], got {self.mask_fraction}",
                              field="mask_fraction")
        if not 0.0 <= self.shift_fraction_max <= 1.0:
            raise ConfigError(f"shift_fraction_max must be in [0,1], got {self.shift_fraction_max}",
                              field="shift_fraction_max")
        if not self.degree_range >= 0.0:
            raise ConfigError(f"degree_range must be >= 0, got {self.degree_range}",
                              field="degree_range")
        if self.pad < 0:
            raise ConfigError(f"pad must be >= 0, got {self.pad}", field="pad")


@dataclass
class AugOutcome:
    tensor: np.ndarray
    labels: np.ndarray
    lam: float = 1.0
    grad_fn: Optional[Callable] = field(default=None, repr=False)


def _pairing(batch, labels, alpha, rng, lam):
    """Checks and draws shared by the mixing kernels: lam ~ Beta(alpha, alpha)
    unless pinned, then one partner permutation."""
    batch = np.asarray(batch)
    labels = np.asarray(labels)
    if batch.shape[0] < 2:
        raise DegenerateBatchError(f"mixing augmentation needs batch >= 2, got {len(batch)}")
    if lam is None:
        lam = float(rng.beta(alpha, alpha))
    return batch, labels, lam, rng.permutation(batch.shape[0])


def _partners(a, idx):
    """``a[idx]``; a batch-innermost ``a`` is gathered on its buffer and keeps that layout."""
    buf = np.moveaxis(a, 0, -1)
    if not buf.flags.c_contiguous:
        return a[idx]
    return np.moveaxis(np.take(buf.reshape(-1, len(a)), idx, axis=1).reshape(buf.shape), -1, 0)


def _mix(batch, labels, perm, keep, take, lam):
    """Blend sample s with partner perm[s]: ``keep * x + take * x[perm]``.

    ``keep`` and ``take`` are scalars or per-sample masks; labels mix by ``lam``.
    Sample s is the partner of output argsort(perm)[s] only, so the gradient
    is a gather through the inverse permutation.
    """
    out = keep * batch
    out += take * _partners(batch, perm)
    mixed = lam * labels + (1.0 - lam) * labels[perm]

    def grad_fn(g):
        gx = keep * g
        gx += _partners(take * g, np.argsort(perm))
        return gx

    return AugOutcome(out, mixed, lam, grad_fn)


def mixup(batch, labels, alpha, rng, lam=None):
    """Convex combination of each sample with a random permutation partner.

    One lam ~ Beta(alpha, alpha) per call; pass ``lam`` to pin it in tests.
    """
    batch, labels, lam, perm = _pairing(batch, labels, alpha, rng, lam)
    return _mix(batch, labels, perm, lam, 1.0 - lam, lam)


@functools.lru_cache(maxsize=None)
def _box_table(h, w, rh, rw):
    """Read-only bool (h-rh+1, w-rw+1, h, w) table: ``[top, left]`` is the rh x rw
    box anchored there.

    One table per key: cutout has one per map size, and cutmix on a square map
    at most h+1 (rh == rw there). The shipped 8x8 and 6x6 maps need under
    10 KB in all; all 33 cutmix tables of a 32x32 map hold 11.7 MB.
    """
    rows = np.arange(h) - np.arange(h - rh + 1)[:, None]
    cols = np.arange(w) - np.arange(w - rw + 1)[:, None]
    rows = (rows >= 0) & (rows < rh)
    cols = (cols >= 0) & (cols < rw)
    table = rows[:, None, :, None] & cols[None, :, None, :]
    table.flags.writeable = False
    return table


def _boxes(rng, b, h, w, rh, rw):
    """Boolean (b,1,h,w) mask of one rh x rw box per sample; an empty box draws nothing."""
    if rh == 0 or rw == 0:
        return np.zeros((b, 1, h, w), dtype=bool)
    # fraction-first draw keeps anchor geometry resolution-independent
    frac = rng.random((b, 2))
    top = np.minimum((frac[:, 0] * (h - rh + 1)).astype(np.int64), h - rh)
    left = np.minimum((frac[:, 1] * (w - rw + 1)).astype(np.int64), w - rw)
    return _box_table(h, w, rh, rw)[top, left][:, None]


def _cutout_masked(batch, mask_fraction, rng):
    b, _, h, w = batch.shape
    side = int(round(mask_fraction * min(h, w)))
    keep = (~_boxes(rng, b, h, w, side, side)).astype(batch.dtype)
    return batch * keep, keep


def cutout(batch, mask_fraction, rng):
    """Zero one square region per sample; same location across channels."""
    out, _ = _cutout_masked(np.asarray(batch), mask_fraction, rng)
    return out


def _sample_shifts(batch_size, shift_fraction_max, h, w, rng):
    shifts = []
    for _ in range(batch_size):
        fx = float(rng.uniform(0.0, shift_fraction_max))
        fy = float(rng.uniform(0.0, shift_fraction_max))
        sx = 1 if rng.integers(0, 2) else -1
        sy = 1 if rng.integers(0, 2) else -1
        shifts.append((sx * int(round(fx * w)), sy * int(round(fy * h))))
    return shifts


def _remap(batch, sy, sx):
    """Gather ``out[s,:,y,x] = batch[s,:,sy,sx]``; zero where the source is off the map.

    ``sy`` and ``sx`` are integer source coordinates that broadcast together to
    (b,h,w). Values are copied, never multiplied, so signs and NaNs pass through
    exactly.
    """
    b, c, h, w = batch.shape
    valid = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    src = np.where(valid, sy * w + sx, 0).reshape(b, 1, h * w)
    out = np.take_along_axis(batch.reshape(b, c, h * w), src, axis=2).reshape(b, c, h, w)
    return np.where(valid[:, None], out, 0)


def shift(batch, dx, dy):
    """Rigid per-sample shift by (dx[s], dy[s]) pixels with zero padding."""
    _, _, h, w = batch.shape
    dx, dy = np.reshape(dx, (-1, 1, 1)), np.reshape(dy, (-1, 1, 1))
    return _remap(batch, np.arange(h)[:, None] - dy, np.arange(w) - dx)


def translation(batch, shift_fraction_max, rng):
    """Per-sample signed rigid shift with zero padding, shared across channels."""
    batch = np.asarray(batch)
    b, _, h, w = batch.shape
    dx, dy = np.transpose(_sample_shifts(b, shift_fraction_max, h, w, rng))
    return shift(batch, dx, dy)


def cutmix(batch, labels, alpha, rng, lam=None):
    """Paste a rectangle from a permuted partner; labels mixed by area ratio."""
    batch, labels, lam, perm = _pairing(batch, labels, alpha, rng, lam)
    b, _, h, w = batch.shape
    rh = int(round(h * np.sqrt(1.0 - lam)))
    rw = int(round(w * np.sqrt(1.0 - lam)))
    paste = _boxes(rng, b, h, w, rh, rw).astype(batch.dtype)
    return _mix(batch, labels, perm, 1.0 - paste, paste, 1.0 - (rh * rw) / (h * w))


def rotate(batch, degrees):
    """Nearest-neighbor rotation of each square map about its center by ``degrees[s]``."""
    _, _, h, w = batch.shape
    if h != w:
        raise ShapeError(f"rotation requires square spatial dims, got {h}x{w}")
    theta = np.reshape(np.deg2rad(degrees), (-1, 1, 1))
    c = (h - 1) / 2.0
    yy, xx = np.arange(h)[:, None], np.arange(w)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    sy = c + (yy - c) * cos_t + (xx - c) * sin_t
    sx = c - (yy - c) * sin_t + (xx - c) * cos_t
    return _remap(batch, np.rint(sy).astype(np.int64), np.rint(sx).astype(np.int64))


def rotation(batch, degree_range, rng):
    """Per-sample rotation by a uniform angle in [-degree_range, +degree_range]."""
    batch = np.asarray(batch)
    return rotate(batch, rng.uniform(-degree_range, degree_range, size=batch.shape[0]))


def flip_horizontal(batch, do_flip):
    """Mirror selected samples along the width axis."""
    out = np.array(batch, copy=True)
    do_flip = np.asarray(do_flip, dtype=bool)
    out[do_flip] = out[do_flip, :, :, ::-1]
    return out


def apply_at_position(spec, features, labels, rng, position=0):
    """Dispatch one augmentation onto a feature map at tap ``position``.

    Input-only kinds (rotation, random_crop, horizontal_flip) are rejected at
    hidden positions. Spatial parameters are fractions, so the same spec scales
    with the map automatically.
    """
    features = np.asarray(features)
    kind = spec.kind
    if kind in INPUT_ONLY_KINDS and position != 0:
        raise PolicyError(f"{kind} is restricted to the input position, requested P{position}")
    if kind == "none":
        return AugOutcome(features, labels, 1.0, None)
    if kind == "mixup":
        return mixup(features, labels, spec.alpha, rng)
    if kind == "cutmix":
        return cutmix(features, labels, spec.alpha, rng)
    if kind == "cutout":
        out, keep = _cutout_masked(features, spec.mask_fraction, rng)
        return AugOutcome(out, labels, 1.0, lambda g: g * keep)
    if kind == "translation":
        b, _, h, w = features.shape
        dx, dy = np.transpose(_sample_shifts(b, spec.shift_fraction_max, h, w, rng))
        return AugOutcome(shift(features, dx, dy), labels, 1.0, lambda g: shift(g, -dx, -dy))
    if kind == "rotation":
        return AugOutcome(rotation(features, spec.degree_range, rng), labels, 1.0, None)
    if kind == "random_crop":
        # zero-pad by ``pad`` and crop back at offset (ox, oy): a shift by (pad-ox, pad-oy)
        ox, oy = rng.integers(0, 2 * spec.pad + 1, size=(features.shape[0], 2)).T
        return AugOutcome(shift(features, spec.pad - ox, spec.pad - oy), labels, 1.0, None)
    if kind == "horizontal_flip":
        out = flip_horizontal(features, rng.random(features.shape[0]) < 0.5)
        return AugOutcome(out, labels, 1.0, None)
    raise ConfigError(f"unknown augmentation kind {kind!r}")
