"""Augmentation kernels usable on input batches and hidden feature maps.

Spatial parameters are fractions of the current map's side, so one spec
applies unchanged at any tap resolution. Mask locations, shifts, and paste
regions are always shared across the channels of a sample. Each mixing or
masking kernel also hands back a grad_fn that routes an upstream gradient
through the (frozen) transform, treating the sampled parameters as constants.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .engine.losses import check_soft_labels
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


@dataclass
class AugOutcome:
    tensor: np.ndarray
    labels: np.ndarray
    lam: float = 1.0
    grad_fn: Optional[Callable] = field(default=None, repr=False)


def _require_pairs(batch):
    if batch.shape[0] < 2:
        raise DegenerateBatchError(
            f"mixing augmentation needs batch >= 2, got {batch.shape[0]}"
        )


def mixup(batch, labels, alpha, rng, lam=None):
    """Convex combination of each sample with a random permutation partner.

    One lam ~ Beta(alpha, alpha) per call; pass ``lam`` to pin it in tests.
    """
    batch = np.asarray(batch)
    labels = check_soft_labels(labels)
    _require_pairs(batch)
    if lam is None:
        lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(batch.shape[0])
    out = lam * batch + (1.0 - lam) * batch[perm]
    mixed = lam * labels + (1.0 - lam) * labels[perm]

    def grad_fn(g):
        gx = lam * g
        np.add.at(gx, perm, (1.0 - lam) * g)
        return gx

    return AugOutcome(out, mixed, lam, grad_fn)


def _anchor(rng, span):
    # fraction-first draw keeps anchor geometry resolution-independent
    return min(int(rng.random() * (span + 1)), span)


def _cutout_masked(batch, mask_fraction, rng):
    b, _, h, w = batch.shape
    side = int(round(mask_fraction * min(h, w)))
    keep = np.ones((b, 1, h, w), dtype=batch.dtype)
    if side > 0:
        for s in range(b):
            top = _anchor(rng, h - side)
            left = _anchor(rng, w - side)
            keep[s, 0, top : top + side, left : left + side] = 0.0
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


def shift_sample(img, dx, dy):
    """Rigid shift of one (C,H,W) map with zero padding."""
    out = np.zeros_like(img)
    _, h, w = img.shape
    if abs(dx) >= w or abs(dy) >= h:
        return out
    y0, y1 = max(0, dy), h + min(0, dy)
    x0, x1 = max(0, dx), w + min(0, dx)
    out[:, y0:y1, x0:x1] = img[:, max(0, -dy) : h + min(0, -dy), max(0, -dx) : w + min(0, -dx)]
    return out


def _translation_shifted(batch, shift_fraction_max, rng):
    b, _, h, w = batch.shape
    shifts = _sample_shifts(b, shift_fraction_max, h, w, rng)
    out = np.empty_like(batch)
    for s, (dx, dy) in enumerate(shifts):
        out[s] = shift_sample(batch[s], dx, dy)
    return out, shifts


def translation(batch, shift_fraction_max, rng):
    """Per-sample signed rigid shift with zero padding, shared across channels."""
    out, _ = _translation_shifted(np.asarray(batch), shift_fraction_max, rng)
    return out


def cutmix(batch, labels, alpha, rng, lam=None):
    """Paste a rectangle from a permuted partner; labels mixed by area ratio."""
    batch = np.asarray(batch)
    labels = check_soft_labels(labels)
    _require_pairs(batch)
    b, _, h, w = batch.shape
    if lam is None:
        lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(b)
    rh = int(round(h * np.sqrt(1.0 - lam)))
    rw = int(round(w * np.sqrt(1.0 - lam)))
    paste = np.zeros((b, 1, h, w), dtype=batch.dtype)
    if rh > 0 and rw > 0:
        for s in range(b):
            top = _anchor(rng, h - rh)
            left = _anchor(rng, w - rw)
            paste[s, 0, top : top + rh, left : left + rw] = 1.0
    lam_eff = 1.0 - (rh * rw) / (h * w)
    out = batch * (1.0 - paste) + batch[perm] * paste
    mixed = lam_eff * labels + (1.0 - lam_eff) * labels[perm]

    def grad_fn(g):
        gx = g * (1.0 - paste)
        np.add.at(gx, perm, g * paste)
        return gx

    return AugOutcome(out, mixed, lam_eff, grad_fn)


def rotate_sample(img, degrees):
    """Nearest-neighbor rotation of one square (C,H,W) map about its center."""
    _, h, w = img.shape
    if h != w:
        raise ShapeError(f"rotation requires square spatial dims, got {h}x{w}")
    theta = np.deg2rad(degrees)
    c = (h - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    sy = c + (yy - c) * cos_t + (xx - c) * sin_t
    sx = c - (yy - c) * sin_t + (xx - c) * cos_t
    syi = np.rint(sy).astype(np.int64)
    sxi = np.rint(sx).astype(np.int64)
    valid = (syi >= 0) & (syi < h) & (sxi >= 0) & (sxi < w)
    out = np.zeros_like(img)
    out[:, valid] = img[:, syi[valid], sxi[valid]]
    return out


def rotation(batch, degree_range, rng):
    """Per-sample rotation by a uniform angle in [-degree_range, +degree_range]."""
    batch = np.asarray(batch)
    out = np.empty_like(batch)
    for s in range(batch.shape[0]):
        angle = float(rng.uniform(-degree_range, degree_range))
        out[s] = rotate_sample(batch[s], angle)
    return out


def crop_shifted(batch, pad, ox, oy):
    """Zero-pad by ``pad`` then crop back at offset (ox, oy); (pad, pad) is identity."""
    b, c, h, w = batch.shape
    padded = np.pad(batch, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return padded[:, :, oy : oy + h, ox : ox + w]


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
    labels = check_soft_labels(labels)
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
        out, shifts = _translation_shifted(features, spec.shift_fraction_max, rng)

        def grad_fn(g):
            gx = np.empty_like(g)
            for s, (dx, dy) in enumerate(shifts):
                gx[s] = shift_sample(g[s], -dx, -dy)
            return gx

        return AugOutcome(out, labels, 1.0, grad_fn)
    if kind == "rotation":
        return AugOutcome(rotation(features, spec.degree_range, rng), labels, 1.0, None)
    if kind == "random_crop":
        b = features.shape[0]
        out = np.empty_like(features)
        for s in range(b):
            ox = int(rng.integers(0, 2 * spec.pad + 1))
            oy = int(rng.integers(0, 2 * spec.pad + 1))
            out[s] = crop_shifted(features[s : s + 1], spec.pad, ox, oy)[0]
        return AugOutcome(out, labels, 1.0, None)
    if kind == "horizontal_flip":
        out = flip_horizontal(features, rng.random(features.shape[0]) < 0.5)
        return AugOutcome(out, labels, 1.0, None)
    raise ConfigError(f"unknown augmentation kind {kind!r}")
