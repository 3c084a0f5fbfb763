"""Dataset containers, file loaders, synthetic generators, and batch iteration.

Supported on-disk formats: IDX (big-endian, magics 2051/2049), CIFAR-10
binary (3073-byte records), and a neutral raw-with-header interchange format
(u32-length-prefixed JSON header with keys ``shape``, ``dtype`` and
``num_classes``, followed by raw little-endian float32 pixels and uint16
labels). The labels end the raw file: a loader rejects a file that stops short
of them or has bytes after them; header keys beyond those three are ignored.
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
        if fh.read(1):
            raise DataFormatError(f"{path}: raw-with-header has bytes after the labels")
    images = np.frombuffer(pix, dtype="<f4").reshape(shape)
    labels = np.frombuffer(lab, dtype="<u2").astype(np.int64)
    return Dataset(images.copy(), labels, num_classes)


def gen_synthetic(kind, n, seed, side=8, noise=0.1, separation=4.0):
    """Deterministic toy datasets.

    two_gaussians: two class blobs rendered as images, linearly separable.
    striped_patches: horizontal vs vertical stripes, sensitive to spatial
    augmentation by construction.

    Sample i draws a stripe phase, ``integers(0, 2)``, and then its
    side*side pixels. A pair of samples takes one raw 64-bit word for both
    phases and then one normal draw for both pixel blocks, the same stream.
    This relies on PCG64, the generator of ``default_rng``: it serves a
    32-bit request from the low half of a 64-bit draw and keeps the high half
    for the next one, which normal draws never touch, and numpy's bounded
    draw for a range of 2 is the top bit of the 32-bit value. So in word
    ``u`` sample 2j's phase is bit 31 and sample 2j+1's is bit 63. An odd
    last sample keeps its ``integers`` call, which leaves the kept half for
    ``permutation``. ``tests/test_data.py`` pins both facts.
    """
    if n < 2:
        raise ConfigError(f"synthetic dataset needs n >= 2, got {n}")
    if noise < 0:
        raise ConfigError(f"synthetic noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    if kind == "two_gaussians":
        means = np.full((2, side, side), 0.3)
        means[0, : side // 2] += separation * noise
        means[1, side // 2 :] += separation * noise
        images = (means[labels] + rng.normal(0, noise, (n, side, side)))[:, None]
    elif kind == "striped_patches":
        # class = stripe orientation inside one centered patch; the localized
        # signal makes spatial masking/shifting genuinely destructive
        p = max(side // 2, 2)
        lo = (side - p) // 2
        stripes = np.zeros((2, 2, p, p))  # (label, phase)
        for phase in (0, 1):
            stripes[0, phase, phase::2, :] = 1.0  # horizontal stripes
            stripes[1, phase, :, phase::2] = 1.0  # vertical stripes
        images = np.empty((n, 1, side, side))
        phases = np.empty(n, dtype=np.int64)
        raw, words = rng.bit_generator.random_raw, []
        for i in range(0, n - 1, 2):
            words.append(raw())
            rng.standard_normal(out=images[i : i + 2])
        if n % 2:
            phases[-1] = rng.integers(0, 2)
            rng.standard_normal(out=images[-1:])
        words = np.array(words, dtype=np.uint64)
        phases[0 : n - 1 : 2] = (words >> 31) & 1
        phases[1::2] = words >> 63
        # the two roundings of rng.normal(0.3, noise): 0.3 + noise * z
        images *= noise
        images += 0.3
        images[:, 0, lo : lo + p, lo : lo + p] += (stripes - 0.3)[labels, phases]
    else:
        raise ConfigError(f"unknown synthetic kind {kind!r}")
    np.clip(images, 0.0, 1.0, out=images)
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
    def take(offset, count):
        idx = perm[offset : offset + count]
        return replace(ds, images=ds.images[idx], labels=ds.labels[idx])
    train = take(0, train_count)
    val = take(train_count, val_count) if val_count else None
    test = take(train_count + val_count, test_count)
    return train, val, test


def batch_iter(ds, batch_size, seed, epoch):
    """Epoch-seeded shuffled batches; the final short batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start : start + batch_size]
        yield ds.images.take(idx, axis=0), ds.labels[idx]


def pseudo_val_batch(ds, batch_size, aug, rng):
    """Fresh draw from ``ds`` with an input-space augmentation applied at P0;
    kind "none" returns the draw as is, without dispatching. The one-hot
    labels have the images' dtype."""
    if aug.kind in MIXING_KINDS:
        raise PolicyError(f"pseudo-validation augmentation must be input-space, "
                          f"got {aug.kind!r}")
    idx = rng.choice(len(ds), size=min(batch_size, len(ds)), replace=False)
    images = ds.images.take(idx, axis=0)
    labels = one_hot(ds.labels[idx], ds.num_classes, images.dtype)
    if aug.kind == "none":
        return images, labels
    outcome = apply_at_position(aug, images, labels, rng, position=0)
    return outcome.tensor, outcome.labels
