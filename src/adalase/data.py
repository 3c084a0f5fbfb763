"""Dataset containers, file loaders, synthetic generators, and batch iteration.

Supported on-disk formats: IDX (big-endian, magics 2051/2049), CIFAR-10
binary (3073-byte records), and a neutral raw-with-header interchange format
(u32-length-prefixed JSON header followed by raw little-endian float32 pixels
and uint16 labels).
"""

import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .augment import MIXING_KINDS, apply_at_position
from .engine.checkpoint import read_exact
from .engine.losses import one_hot
from .errors import ConfigError, DataFormatError, PolicyError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W), values in [0, 1]
    labels: np.ndarray  # (N,) integer class ids
    num_classes: int
    split: str = "train"

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataFormatError(f"images must be rank-4, got shape {self.images.shape}")
        if self.labels.shape[0] != self.images.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataFormatError("labels outside [0, num_classes)")

    def __len__(self):
        return self.images.shape[0]

    @property
    def input_shape(self):
        return self.images.shape[1:]


def _read_idx(path, magic, what):
    """One IDX file as a uint8 array: big-endian magic, one u32 per dimension
    (the magic's low byte counts them), then a payload of their product."""
    with open(path, "rb") as fh:
        (got,) = struct.unpack(">I", read_exact(fh, 4, f"IDX {what} magic"))
        if got != magic:
            raise DataFormatError(f"bad IDX {what} magic 0x{got:08x}")
        ndim = magic & 0xFF
        dims = struct.unpack(f">{ndim}I", read_exact(fh, 4 * ndim, f"IDX {what} header"))
        raw = fh.read()
    if len(raw) != math.prod(dims):
        raise DataFormatError(f"IDX {what} payload has {len(raw)} bytes, "
                              f"expected {math.prod(dims)}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path):
    """Parse an IDX image/label file pair into a normalized Dataset."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "image")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label").astype(np.int64)
    if len(labels) != len(images):
        raise DataFormatError(f"label count {len(labels)} != image count {len(images)}")
    num_classes = int(labels.max()) + 1 if len(labels) else 0
    return Dataset(images[:, None].astype(np.float64) / 255.0, labels, num_classes)


def load_cifar_bin(path, num_classes=10):
    """Parse CIFAR-10 binary batches (1 label byte + 3x32x32 pixels per record)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw or len(raw) % CIFAR_RECORD != 0:
        raise DataFormatError(f"CIFAR binary size {len(raw)} not a multiple of {CIFAR_RECORD}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return Dataset(images, labels, num_classes)


def save_raw(ds, path):
    """Write the raw-with-header interchange format (lossless for f32 data)."""
    header = {
        "shape": list(ds.images.shape),
        "dtype": "f32le",
        "num_classes": ds.num_classes,
        "split": ds.split,
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(ds.images, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype="<u2").tobytes())


def load_raw(path):
    with open(path, "rb") as fh:
        (hlen,) = struct.unpack("<I", read_exact(fh, 4, "raw-with-header length"))
        blob = read_exact(fh, hlen, "raw-with-header JSON header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"bad raw-with-header JSON: {exc}") from exc
        for key in ("shape", "dtype", "num_classes"):
            if key not in header:
                raise DataFormatError(f"raw-with-header missing key {key!r}")
        if header["dtype"] != "f32le":
            raise DataFormatError(f"unsupported dtype {header['dtype']!r}")
        shape, num_classes = header["shape"], header["num_classes"]
        if not (isinstance(shape, list) and shape
                and all(type(d) is int and d >= 0 for d in shape)):
            raise DataFormatError(f"raw-with-header 'shape' must be a non-empty list of "
                                  f"integers >= 0, got {shape!r}")
        if type(num_classes) is not int or num_classes < 1:
            raise DataFormatError(f"raw-with-header 'num_classes' must be an integer "
                                  f">= 1, got {num_classes!r}")
        pix = read_exact(fh, math.prod(shape) * 4, "raw-with-header pixel payload")
        lab = read_exact(fh, shape[0] * 2, "raw-with-header label payload")
    images = np.frombuffer(pix, dtype="<f4").reshape(shape)
    labels = np.frombuffer(lab, dtype="<u2").astype(np.int64)
    return Dataset(images.copy(), labels, num_classes, split=header.get("split", "train"))


def gen_synthetic(kind, n, seed, side=8, noise=0.1, separation=4.0):
    """Deterministic toy datasets.

    two_gaussians: two class blobs rendered as images, linearly separable.
    striped_patches: horizontal vs vertical stripes, sensitive to spatial
    augmentation by construction.
    """
    if n < 2:
        raise ConfigError(f"synthetic dataset needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    images = np.zeros((n, 1, side, side))
    if kind == "two_gaussians":
        mean0 = np.full((side, side), 0.3)
        mean1 = np.full((side, side), 0.3)
        mean0[: side // 2] += separation * noise
        mean1[side // 2 :] += separation * noise
        for i in range(n):
            base = mean1 if labels[i] else mean0
            images[i, 0] = base + rng.normal(0, noise, size=(side, side))
    elif kind == "striped_patches":
        # class = stripe orientation inside one centered patch; the localized
        # signal makes spatial masking/shifting genuinely destructive
        p = max(side // 2, 2)
        lo = (side - p) // 2
        for i in range(n):
            phase = int(rng.integers(0, 2))
            patch = np.zeros((p, p))
            if labels[i]:
                patch[:, phase::2] = 1.0  # vertical stripes
            else:
                patch[phase::2, :] = 1.0  # horizontal stripes
            img = rng.normal(0.3, noise, size=(side, side))
            img[lo : lo + p, lo : lo + p] += patch - 0.3
            images[i, 0] = img
    else:
        raise ConfigError(f"unknown synthetic kind {kind!r}")
    images = np.clip(images, 0.0, 1.0)
    perm = rng.permutation(n)
    return Dataset(images[perm], labels[perm].astype(np.int64), 2)


def subsample(ds, count, seed):
    """Class-stratified subsample without replacement, deterministic per seed."""
    if count > len(ds):
        raise ConfigError(f"subsample count {count} exceeds dataset size {len(ds)}")
    rng = np.random.default_rng(seed)
    per_class = count // ds.num_classes
    remainder = count % ds.num_classes
    chosen = []
    class_order = rng.permutation(ds.num_classes)
    for rank, cls in enumerate(class_order):
        idx = np.flatnonzero(ds.labels == cls)
        take = per_class + (1 if rank < remainder else 0)
        take = min(take, idx.size)
        chosen.append(rng.choice(idx, size=take, replace=False))
    picked = np.concatenate(chosen) if chosen else np.zeros(0, dtype=np.int64)
    # top up from leftovers if some class ran short
    if picked.size < count:
        rest = np.setdiff1d(np.arange(len(ds)), picked)
        extra = rng.choice(rest, size=count - picked.size, replace=False)
        picked = np.concatenate([picked, extra])
    picked = picked[rng.permutation(picked.size)]
    return replace(ds, images=ds.images[picked], labels=ds.labels[picked])


def split_dataset(ds, train_count, val_count, test_count, seed):
    """Disjoint train/val/test splits drawn from one dataset."""
    total = train_count + val_count + test_count
    if total > len(ds):
        raise ConfigError(f"split total {total} exceeds dataset size {len(ds)}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ds))
    def take(offset, count, tag):
        idx = perm[offset : offset + count]
        return replace(ds, images=ds.images[idx], labels=ds.labels[idx], split=tag)
    train = take(0, train_count, "train")
    val = take(train_count, val_count, "val") if val_count else None
    test = take(train_count + val_count, test_count, "test")
    return train, val, test


def batch_iter(ds, batch_size, seed, epoch):
    """Epoch-seeded shuffled batches; the final short batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start : start + batch_size]
        yield ds.images[idx], ds.labels[idx]


def pseudo_val_batch(ds, batch_size, aug, rng):
    """Fresh draw from ``ds`` with an input-space augmentation applied at P0."""
    if aug.kind in MIXING_KINDS:
        raise PolicyError(f"pseudo-validation augmentation must be input-space, "
                          f"got {aug.kind!r}")
    idx = rng.choice(len(ds), size=min(batch_size, len(ds)), replace=False)
    labels = one_hot(ds.labels[idx], ds.num_classes)
    outcome = apply_at_position(aug, ds.images[idx], labels, rng, position=0)
    return outcome.tensor, outcome.labels
