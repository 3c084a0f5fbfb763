"""Dataset loaders, synthetic generators, splits, and batch iteration."""

import json
import struct
import time

import numpy as np
import pytest

from adalase.augment import AugSpec
from adalase.data import (Dataset, batch_iter, gen_synthetic, load_cifar_bin,
                          load_idx, load_raw, pseudo_val_batch, save_raw,
                          split_dataset, subsample)
from adalase.engine.builders import build_mlp
from adalase.engine.checkpoint import load_weights, save_weights
from adalase.errors import ConfigError, DataFormatError, PolicyError
from conftest import write_idx_pair


# ---- IDX ----------------------------------------------------------------------

def test_idx_round_trip_shapes_and_scaling(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[1, 3, 4] = 128
    ds = load_idx(*write_idx_pair(tmp_path, images, [3, 7]))
    assert ds.images.shape == (2, 1, 28, 28)
    assert ds.images[0, 0, 0, 0] == 1.0
    assert ds.images[1, 0, 3, 4] == pytest.approx(128 / 255)
    assert list(ds.labels) == [3, 7]
    assert ds.num_classes == 8


def test_idx_count_mismatch_rejected(tmp_path):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, [0, 1, 1])
    with pytest.raises(DataFormatError):
        load_idx(img, lab)


def test_idx_bad_magic_rejected(tmp_path):
    images = np.zeros((1, 4, 4), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, [0])
    blob = bytearray(open(img, "rb").read())
    blob[3] = 0x99
    open(img, "wb").write(bytes(blob))
    with pytest.raises(DataFormatError):
        load_idx(img, lab)


def test_idx_truncated_payload_rejected(tmp_path):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, [0, 1])
    blob = open(img, "rb").read()
    open(img, "wb").write(blob[:-5])
    with pytest.raises(DataFormatError):
        load_idx(img, lab)


# ---- CIFAR binary ----------------------------------------------------------------

def test_cifar_fixture_shapes(tmp_path):
    rec0 = bytes([9]) + bytes(3072)
    rec1 = bytes([0]) + bytes([255] * 3072)
    path = tmp_path / "batch.bin"
    path.write_bytes(rec0 + rec1)
    ds = load_cifar_bin(str(path))
    assert ds.images.shape == (2, 3, 32, 32)
    assert list(ds.labels) == [9, 0]
    assert np.all(ds.images[0] == 0.0)
    assert np.all(ds.images[1] == 1.0)


def test_cifar_bad_record_size_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(3072))
    with pytest.raises(DataFormatError):
        load_cifar_bin(str(path))


# ---- raw interchange format ---------------------------------------------------------

def test_raw_round_trip_is_lossless(tmp_path, rng):
    images = rng.random(size=(5, 2, 3, 3)).astype(np.float32).astype(np.float64)
    ds = Dataset(images, rng.integers(0, 4, size=5), 4, split="val")
    path = tmp_path / "ds.raw"
    save_raw(ds, str(path))
    back = load_raw(str(path))
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == 4 and back.split == "val"


def test_raw_rejects_truncation_and_bad_header(tmp_path, rng):
    ds = Dataset(rng.random(size=(2, 1, 2, 2)), np.array([0, 1]), 2)
    path = tmp_path / "ds.raw"
    save_raw(ds, str(path))
    blob = open(path, "rb").read()
    short = tmp_path / "short.raw"
    short.write_bytes(blob[:-3])
    with pytest.raises(DataFormatError):
        load_raw(str(short))
    bad = tmp_path / "bad.raw"
    bad.write_bytes(struct.pack("<I", 4) + b"oops" + blob[20:])
    with pytest.raises(DataFormatError):
        load_raw(str(bad))


# ---- truncation -----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["idx-images", "idx-labels", "raw", "adlw"])
def test_every_truncated_prefix_is_a_format_error(tmp_path, rng, kind):
    # every loader reads through one truncation check, so a file cut at any
    # byte fails as malformed, never as a struct, numpy or indexing error
    images = rng.integers(0, 256, size=(3, 4, 5))
    labels = np.array([2, 0, 1])
    img, lab = write_idx_pair(tmp_path, images, labels)
    ds = Dataset(rng.random(size=(3, 2, 2, 2)).astype(np.float32).astype(np.float64),
                 labels, 3, split="test")
    raw = str(tmp_path / "ds.raw")
    save_raw(ds, raw)
    net = build_mlp((1, 2, 2), 4, 2, seed=0)
    ckpt = str(tmp_path / "w.adlw")
    save_weights(net, ckpt)

    def check_idx(got):
        assert np.array_equal(got.images, images[:, None] / 255.0)
        assert np.array_equal(got.labels, labels) and got.num_classes == 3

    def check_raw(got):
        assert np.array_equal(got.images, ds.images) and np.array_equal(got.labels, labels)
        assert got.num_classes == 3 and got.split == "test"

    def load_ckpt(path):
        other = build_mlp((1, 2, 2), 4, 2, seed=1)
        load_weights(other, path)
        return other

    def check_ckpt(got):
        assert np.array_equal(got.param_vector(), net.param_vector())

    path, load, check = {
        "idx-images": (img, lambda p: load_idx(p, lab), check_idx),
        "idx-labels": (lab, lambda p: load_idx(img, p), check_idx),
        "raw": (raw, load_raw, check_raw),
        "adlw": (ckpt, load_ckpt, check_ckpt),
    }[kind]
    check(load(path))
    blob = open(path, "rb").read()
    short = str(tmp_path / "short")
    for cut in range(len(blob)):
        open(short, "wb").write(blob[:cut])
        with pytest.raises(DataFormatError):
            load(short)


@pytest.mark.parametrize("key,value", [
    ("shape", []), ("shape", ["a"]), ("shape", 5), ("shape", [1, 1, -1, 1]),
    ("num_classes", "x"), ("num_classes", 0),
])
def test_raw_header_values_are_checked(tmp_path, key, value):
    # a bad header value is a format error naming its key, never an indexing,
    # conversion or type error, even when the payload holds enough bytes
    def write(header):
        blob = json.dumps({"dtype": "f32le", **header}).encode("utf-8")
        path = tmp_path / "ds.raw"
        path.write_bytes(struct.pack("<I", len(blob)) + blob + bytes(64))
        return str(path)

    good = {"shape": [1, 1, 1, 1], "num_classes": 2}
    assert len(load_raw(write(good))) == 1
    with pytest.raises(DataFormatError, match=f"'{key}'"):
        load_raw(write({**good, key: value}))


# ---- dataset container ----------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(DataFormatError):
        Dataset(np.zeros((2, 4, 4)), np.array([0, 1]), 2)
    with pytest.raises(DataFormatError):
        Dataset(np.zeros((2, 1, 4, 4)), np.array([0]), 2)
    with pytest.raises(DataFormatError):
        Dataset(np.zeros((2, 1, 4, 4)), np.array([0, 5]), 2)


# ---- synthetic generators ----------------------------------------------------------------

def test_synthetic_is_seed_deterministic():
    a = gen_synthetic("striped_patches", 20, seed=3)
    b = gen_synthetic("striped_patches", 20, seed=3)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_minimal_has_both_classes():
    ds = gen_synthetic("two_gaussians", 2, seed=0)
    assert sorted(ds.labels) == [0, 1]


def test_two_gaussians_wide_separation_is_linearly_separable():
    ds = gen_synthetic("two_gaussians", 400, seed=1, noise=0.05, separation=10.0)
    flat = ds.images.reshape(len(ds), -1)
    mu0 = flat[ds.labels == 0].mean(axis=0)
    mu1 = flat[ds.labels == 1].mean(axis=0)
    w = mu1 - mu0
    scores = flat @ w
    threshold = (mu0 @ w + mu1 @ w) / 2
    acc = ((scores > threshold) == ds.labels).mean()
    assert acc >= 0.99


def test_synthetic_pixel_range_and_kinds():
    ds = gen_synthetic("striped_patches", 30, seed=2, noise=0.5)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    with pytest.raises(ConfigError):
        gen_synthetic("plaid", 10, seed=0)
    with pytest.raises(ConfigError):
        gen_synthetic("striped_patches", 1, seed=0)
    for kind in ("two_gaussians", "striped_patches"):
        with pytest.raises(ConfigError):
            gen_synthetic(kind, 10, seed=0, noise=-0.1)


def _gen_synthetic_loop(kind, n, seed, side=8, noise=0.1, separation=4.0):
    """The per-sample generator that gen_synthetic replaced: the byte oracle."""
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


def test_default_rng_is_pcg64():
    assert isinstance(np.random.default_rng(0).bit_generator, np.random.PCG64), (
        "gen_synthetic draws a pair's pixels after both phases, which keeps the "
        "stream only under PCG64's 32-bit buffering: see its docstring")


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_two_coin_draws_are_bits_31_and_63_of_one_raw_word(seed):
    # gen_synthetic reads a pair's two phases out of one random_raw() word
    drawn, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        first, second = drawn.integers(0, 2), drawn.integers(0, 2)
        word = twin.bit_generator.random_raw()
        assert (first, second) == ((word >> 31) & 1, word >> 63)
        a, b = drawn.bit_generator.state, twin.bit_generator.state
        assert a["state"] == b["state"] and a["has_uint32"] == b["has_uint32"] == 0
        drawn.standard_normal(2 * 64)
        twin.standard_normal(2 * 64)


@pytest.mark.parametrize("kind", ["two_gaussians", "striped_patches"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_synthetic_matches_per_sample_loop_bytes(kind, seed):
    for n in (2, 3, 17, 900, 2401):
        for side in (3, 5, 8, 16):
            for noise in (0.1, 0.45, 1.0):
                got = gen_synthetic(kind, n, seed, side=side, noise=noise)
                want = _gen_synthetic_loop(kind, n, seed, side=side, noise=noise)
                assert got.images.dtype == want.images.dtype
                assert got.images.shape == want.images.shape
                assert got.images.tobytes() == want.images.tobytes(), (n, side, noise)
                assert got.labels.tobytes() == want.labels.tobytes(), (n, side, noise)


def test_synthetic_pair_draw_is_faster_than_per_sample_loop():
    # both timed in one process, interleaved, so the host's speed phases cancel
    new, old = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        _gen_synthetic_loop("striped_patches", 2400, 0, side=8)
        t1 = time.perf_counter()
        gen_synthetic("striped_patches", 2400, 0, side=8)
        t2 = time.perf_counter()
        old.append(t1 - t0)
        new.append(t2 - t1)
    assert min(new) <= 0.6 * min(old), (min(new), min(old))


# ---- subsampling / splits ----------------------------------------------------------------

def _ten_class_set(n=200):
    rng = np.random.default_rng(0)
    return Dataset(rng.random(size=(n, 1, 2, 2)), np.arange(n) % 10, 10)


def test_subsample_full_count_is_permutation():
    ds = _ten_class_set(40)
    out = subsample(ds, 40, seed=5)
    assert sorted(out.labels) == sorted(ds.labels)
    assert np.array_equal(np.sort(out.images, axis=0), np.sort(ds.images, axis=0))


def test_subsample_stratifies_exactly_when_divisible():
    out = subsample(_ten_class_set(200), 100, seed=1)
    counts = np.bincount(out.labels, minlength=10)
    assert np.all(counts == 10)


def test_subsample_near_stratified_otherwise():
    out = subsample(_ten_class_set(200), 105, seed=1)
    counts = np.bincount(out.labels, minlength=10)
    assert counts.sum() == 105 and counts.max() - counts.min() <= 1


def test_subsample_count_too_large_rejected():
    with pytest.raises(ConfigError):
        subsample(_ten_class_set(20), 21, seed=0)


def test_split_disjoint_and_sized():
    ds = _ten_class_set(100)
    tr, va, te = split_dataset(ds, 60, 20, 20, seed=2)
    assert (len(tr), len(va), len(te)) == (60, 20, 20)
    assert (tr.split, va.split, te.split) == ("train", "val", "test")
    all_rows = np.concatenate([tr.images, va.images, te.images]).reshape(100, -1)
    orig = ds.images.reshape(100, -1)
    assert np.array_equal(np.sort(all_rows, axis=0), np.sort(orig, axis=0))
    with pytest.raises(ConfigError):
        split_dataset(ds, 90, 20, 20, seed=2)


# ---- batch iteration ----------------------------------------------------------------

def test_batches_partition_with_short_tail():
    ds = _ten_class_set(10)
    sizes = [b.shape[0] for b, _ in batch_iter(ds, 4, seed=0, epoch=0)]
    assert sizes == [4, 4, 2]


def test_batches_cover_dataset_exactly_once():
    ds = _ten_class_set(17)
    seen = np.concatenate([b for b, _ in batch_iter(ds, 5, seed=0, epoch=1)])
    assert np.array_equal(np.sort(seen.reshape(17, -1), axis=0),
                          np.sort(ds.images.reshape(17, -1), axis=0))


def test_batch_order_is_seed_and_epoch_deterministic():
    ds = _ten_class_set(30)
    a = [lab.tolist() for _, lab in batch_iter(ds, 8, seed=4, epoch=2)]
    b = [lab.tolist() for _, lab in batch_iter(ds, 8, seed=4, epoch=2)]
    c = [lab.tolist() for _, lab in batch_iter(ds, 8, seed=4, epoch=3)]
    assert a == b and a != c


def test_batch_size_validation():
    with pytest.raises(ConfigError):
        list(batch_iter(_ten_class_set(4), 0, seed=0, epoch=0))


# ---- pseudo-validation draws ----------------------------------------------------------------

def test_pseudo_batch_zero_degree_rotation_is_plain_draw():
    ds = gen_synthetic("striped_patches", 40, seed=0)
    rot = pseudo_val_batch(ds, 8, AugSpec(kind="rotation", degree_range=0.0),
                           np.random.default_rng(6))
    plain = pseudo_val_batch(ds, 8, AugSpec(kind="none"),
                             np.random.default_rng(6))
    assert np.array_equal(rot[0], plain[0])
    assert np.array_equal(rot[1], plain[1])


def test_pseudo_batch_kind_none_skips_the_dispatch(monkeypatch):
    from adalase import augment, data

    ds = gen_synthetic("striped_patches", 40, seed=0)
    dispatched_rng, direct_rng = np.random.default_rng(6), np.random.default_rng(6)
    idx = dispatched_rng.choice(len(ds), size=8, replace=False)
    labels = data.one_hot(ds.labels[idx], ds.num_classes)
    dispatched = augment.apply_at_position(AugSpec(kind="none"), ds.images[idx], labels,
                                           dispatched_rng, position=0)

    def unreachable(*args, **kwargs):
        raise AssertionError("kind 'none' reached apply_at_position")

    monkeypatch.setattr(data, "apply_at_position", unreachable)
    images, got_labels = pseudo_val_batch(ds, 8, AugSpec(kind="none"), direct_rng)
    for got, want in ((images, dispatched.tensor), (got_labels, dispatched.labels)):
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    assert direct_rng.bit_generator.state == dispatched_rng.bit_generator.state


def test_pseudo_batch_rejects_feature_space_kinds():
    ds = gen_synthetic("striped_patches", 10, seed=0)
    with pytest.raises(PolicyError):
        pseudo_val_batch(ds, 4, AugSpec(kind="mixup"), np.random.default_rng(0))


def test_pseudo_batch_labels_are_one_hot():
    ds = gen_synthetic("striped_patches", 10, seed=0)
    _, labels = pseudo_val_batch(ds, 5, AugSpec(kind="rotation"),
                                 np.random.default_rng(0))
    assert labels.shape == (5, 2)
    assert np.allclose(labels.sum(axis=1), 1.0)
    assert set(np.unique(labels)) <= {0.0, 1.0}
