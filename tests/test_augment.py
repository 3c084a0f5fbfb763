"""Augmentation kernel tests: exact small cases plus the shared-parameter,
label-convexity, and degenerate-identity properties."""

import numpy as np
import pytest

from adalase import augment
from adalase.augment import (INPUT_ONLY_KINDS, MIXING_KINDS, AugSpec,
                             apply_at_position, cutmix, cutout, flip_horizontal,
                             mixup, rotate, rotation, shift, translation)
from adalase.engine.losses import one_hot
from adalase.errors import (ConfigError, DegenerateBatchError, PolicyError,
                            ShapeError)
from conftest import batch_innermost_view, is_batch_innermost


# ---- spec validation --------------------------------------------------------

def test_augspec_rejects_bad_values():
    with pytest.raises(ConfigError):
        AugSpec(kind="sharpen")
    with pytest.raises(ConfigError):
        AugSpec(kind="mixup", alpha=0.0)
    with pytest.raises(ConfigError):
        AugSpec(kind="cutout", mask_fraction=1.5)
    with pytest.raises(ConfigError):
        AugSpec(kind="translation", shift_fraction_max=-0.1)


# ---- mixup ------------------------------------------------------------------

def test_mixup_lambda_one_is_identity(rng):
    x = rng.normal(size=(6, 2, 3, 3))
    labels = one_hot(rng.integers(0, 3, size=6), 3)
    out = mixup(x, labels, alpha=1.0, rng=rng, lam=1.0)
    assert np.array_equal(out.tensor, x)
    assert np.array_equal(out.labels, labels)
    assert out.lam == 1.0


def test_mixup_midpoint_of_swapped_pair():
    x = np.array([[2.0, 0.0], [0.0, 2.0]]).reshape(2, 1, 1, 2)
    labels = np.eye(2)
    # find a seed whose 2-permutation swaps the pair, then check the midpoint
    for seed in range(20):
        rng = np.random.default_rng(seed)
        if not np.array_equal(np.random.default_rng(seed).permutation(2), [1, 0]):
            continue
        out = mixup(x, labels, alpha=1.0, rng=rng, lam=0.5)
        assert np.allclose(out.tensor, np.full((2, 1, 1, 2), 1.0))
        assert np.allclose(out.labels, np.full((2, 2), 0.5))
        return
    pytest.fail("no swapping permutation found among 20 seeds")


def test_mixup_alpha_one_draws_uniform_lambda():
    rng = np.random.default_rng(123)
    x = np.zeros((2, 1, 1, 1))
    labels = np.eye(2)
    lams = [mixup(x, labels, alpha=1.0, rng=rng).lam for _ in range(100_000)]
    assert abs(np.mean(lams) - 0.5) < 0.01


def test_mixup_rejects_single_sample(rng):
    with pytest.raises(DegenerateBatchError):
        mixup(np.zeros((1, 1, 2, 2)), np.array([[1.0, 0.0]]), 1.0, rng)


def test_mixup_gradient_routes_to_both_partners(rng):
    x = rng.normal(size=(5, 1, 2, 2))
    labels = one_hot(rng.integers(0, 2, size=5), 2)
    out = mixup(x, labels, alpha=1.0, rng=rng, lam=0.3)
    g = rng.normal(size=x.shape)
    gx = out.grad_fn(g)
    # total gradient mass is conserved: each sample feeds lam + (1-lam) paths
    assert np.allclose(gx.sum(), g.sum(), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mixup_keeps_a_batch_innermost_layout(rng, dtype):
    # a hidden tap's map is a view of a (C, H, W, B) buffer; the partner is
    # gathered on that buffer, so the blend and its gradient keep the layout
    x = rng.normal(size=(6, 3, 4, 5)).astype(dtype)
    labels = one_hot(rng.integers(0, 3, size=6), 3)
    g = rng.normal(size=x.shape).astype(dtype)
    got, want = (mixup(layout(x), labels, 1.0, np.random.default_rng(8))
                 for layout in (batch_innermost_view, np.ascontiguousarray))
    assert is_batch_innermost(got.tensor)
    assert got.tensor.dtype == dtype and np.array_equal(got.tensor, want.tensor)
    gx = got.grad_fn(batch_innermost_view(g))
    assert is_batch_innermost(gx) and np.array_equal(gx, want.grad_fn(g))
    # a C-ordered input, such as a data batch, stays C-ordered
    assert want.tensor.flags.c_contiguous and want.grad_fn(g).flags.c_contiguous


# ---- cutout -----------------------------------------------------------------

def test_cutout_exact_zero_count(rng):
    x = np.ones((1, 1, 4, 4))
    out = cutout(x, 0.5, rng)
    assert (out == 0).sum() == 4 and (out == 1).sum() == 12


def test_cutout_fraction_zero_is_identity(rng):
    x = rng.normal(size=(3, 2, 5, 5))
    assert np.array_equal(cutout(x, 0.0, rng), x)


def test_cutout_mask_shared_across_channels(rng):
    x = np.ones((4, 3, 8, 8))
    out = cutout(x, 0.5, rng)
    for s in range(4):
        zero_sets = [set(zip(*np.where(out[s, c] == 0))) for c in range(3)]
        assert zero_sets[0] == zero_sets[1] == zero_sets[2]
        assert len(zero_sets[0]) == 16


# ---- translation ------------------------------------------------------------

def test_shift_zero_is_identity(rng):
    x = rng.normal(size=(3, 2, 3, 3))
    assert np.array_equal(shift(x, [0, 0, 0], [0, 0, 0]), x)


def test_shift_by_one_pixel():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4)
    assert np.allclose(shift(x, [1], [0]).ravel(), [0.0, 1.0, 2.0, 3.0])


def test_shift_beyond_map_is_all_zero():
    x = np.ones((2, 1, 2, 2))
    assert np.all(shift(x, [3, 0], [0, -2]) == 0)


def test_shift_is_per_sample():
    x = np.arange(8.0).reshape(2, 1, 1, 4)
    out = shift(x, [1, -1], [0, 0])
    assert np.array_equal(out[:, 0, 0], [[0.0, 0.0, 1.0, 2.0], [5.0, 6.0, 7.0, 0.0]])


def test_translation_mass_inequality(rng):
    x = np.abs(rng.normal(size=(8, 2, 6, 6)))
    out = translation(x, 0.4, rng)
    assert out.sum() <= x.sum() + 1e-12


def test_translation_shift_shared_across_channels(rng):
    x = rng.normal(size=(4, 3, 6, 6))
    out = translation(x, 0.4, np.random.default_rng(7))
    ref = translation(x[:, :1], 0.4, np.random.default_rng(7))
    # re-running with the same stream on channel 0 alone reproduces channel 0
    assert np.array_equal(out[:, :1], ref)


def test_box_mask_does_not_alias_its_table():
    first = augment._boxes(np.random.default_rng(0), 4, 8, 8, 3, 3)
    first[...] = True
    again = augment._boxes(np.random.default_rng(0), 4, 8, 8, 3, 3)
    assert again.shape == (4, 1, 8, 8) and again.sum() == 4 * 3 * 3


def test_box_table_is_read_only():
    table = augment._box_table(8, 8, 3, 3)
    assert table.shape == (6, 6, 8, 8) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0, 0] = False


def test_cutmix_box_tables_are_bounded_by_the_map_side(rng):
    augment._box_table.cache_clear()
    x = rng.normal(size=(4, 1, 8, 8))
    labels = one_hot(rng.integers(0, 2, size=4), 2)
    for _ in range(200):
        cutmix(x, labels, alpha=0.5, rng=rng)
    assert augment._box_table.cache_info().currsize <= 9  # one per side: rh == rw


# ---- cutmix -----------------------------------------------------------------

def test_cutmix_lambda_one_is_identity(rng):
    x = rng.normal(size=(4, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=4), 2)
    out = cutmix(x, labels, alpha=1.0, rng=rng, lam=1.0)
    assert np.array_equal(out.tensor, x)
    assert np.array_equal(out.labels, labels)


def test_cutmix_area_ratio_sets_label_mix(rng):
    x = rng.normal(size=(2, 1, 4, 4))
    labels = np.eye(2)
    # lam=0.75 on a 4x4 map pastes a 2x2 region: effective mix 1 - 4/16
    out = cutmix(x, labels, alpha=1.0, rng=rng, lam=0.75)
    assert out.lam == pytest.approx(0.75)
    assert np.allclose(np.sort(out.labels, axis=1)[:, 0], 0.25)


def test_cutmix_pasted_pixels_equal_partner(rng):
    x = rng.normal(size=(3, 2, 6, 6))
    labels = one_hot([0, 1, 0], 2)
    seed_rng = np.random.default_rng(11)
    out = cutmix(x, labels, alpha=1.0, rng=seed_rng, lam=0.4)
    # every output pixel comes verbatim from the sample or some partner
    for s in range(3):
        from_self = np.isclose(out.tensor[s], x[s])
        from_any = from_self.copy()
        for t in range(3):
            from_any |= np.isclose(out.tensor[s], x[t])
        assert from_any.all()
        # pasted coordinates identical across channels
        assert np.array_equal(from_self[0], from_self[1])


def test_cutmix_rejects_single_sample(rng):
    with pytest.raises(DegenerateBatchError):
        cutmix(np.zeros((1, 1, 4, 4)), np.array([[1.0, 0.0]]), 1.0, rng)


# ---- rotation ---------------------------------------------------------------

def test_rotation_zero_angle_is_identity(rng):
    x = rng.normal(size=(3, 2, 5, 5))
    assert np.array_equal(rotate(x, [0.0, 0.0, 0.0]), x)


def test_rotation_180_reverses_grid():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    assert np.allclose(rotate(x, [180.0])[0, 0], [[4.0, 3.0], [2.0, 1.0]])


def test_rotation_90_permutes_pixels(rng):
    x = rng.normal(size=(1, 1, 6, 6))
    out = rotate(x, [90.0])
    assert np.allclose(np.sort(out.ravel()), np.sort(x.ravel()))


def test_rotation_angle_is_per_sample(rng):
    x = rng.normal(size=(2, 1, 4, 4))
    out = rotate(x, [0.0, 180.0])
    assert np.array_equal(out[0], x[0])
    assert np.array_equal(out[1], x[1, :, ::-1, ::-1])


def test_rotation_rejects_non_square(rng):
    with pytest.raises(ShapeError):
        rotation(np.zeros((1, 1, 3, 4)), 10.0, rng)


# ---- standard input augmentations -------------------------------------------

def test_flip_is_involution(rng):
    x = rng.normal(size=(4, 2, 3, 3))
    decide = np.array([True, False, True, True])
    assert np.array_equal(flip_horizontal(flip_horizontal(x, decide), decide), x)


def test_flip_reverses_width():
    x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3)
    assert np.allclose(flip_horizontal(x, [True]).ravel(), [3.0, 2.0, 1.0])


def test_random_crop_without_pad_is_identity(rng):
    x = rng.normal(size=(2, 1, 4, 4))
    labels = one_hot([0, 1], 2)
    out = apply_at_position(AugSpec(kind="random_crop", pad=0), x, labels, rng)
    assert np.array_equal(out.tensor, x)


def test_random_crop_sample_is_a_bounded_shift(rng):
    pad = 2
    x = rng.normal(size=(16, 2, 5, 5))
    out = apply_at_position(AugSpec(kind="random_crop", pad=pad), x,
                            one_hot(np.zeros(16, dtype=int), 2), rng).tensor
    offsets = [(dx, dy) for dx in range(-pad, pad + 1) for dy in range(-pad, pad + 1)]
    for s in range(16):
        assert any(np.array_equal(out[s : s + 1], shift(x[s : s + 1], [dx], [dy]))
                   for dx, dy in offsets)


# ---- position dispatch ------------------------------------------------------

def test_apply_cutout_scales_with_map_side(rng):
    labels = one_hot([0, 1], 2)
    out = apply_at_position(AugSpec(kind="cutout", mask_fraction=0.5),
                            np.ones((2, 1, 8, 8)), labels, rng, position=1)
    assert (out.tensor[0] == 0).sum() == 16  # 4x4 mask on an 8x8 map


def test_input_only_kinds_rejected_at_hidden_positions(rng):
    labels = one_hot([0, 1], 2)
    x = np.ones((2, 1, 4, 4))
    for kind in ("rotation", "random_crop", "horizontal_flip"):
        with pytest.raises(PolicyError):
            apply_at_position(AugSpec(kind=kind), x, labels, rng, position=1)
        apply_at_position(AugSpec(kind=kind), x, labels,
                          np.random.default_rng(0), position=0)


def test_same_stream_same_spec_same_outcome_at_any_position(rng):
    labels = one_hot([0, 1, 1], 2)
    x = rng.normal(size=(3, 1, 6, 6))
    spec = AugSpec(kind="cutout", mask_fraction=0.5)
    a = apply_at_position(spec, x, labels, np.random.default_rng(5), position=0)
    b = apply_at_position(spec, x, labels, np.random.default_rng(5), position=2)
    assert np.array_equal(a.tensor, b.tensor)


def test_fraction_geometry_tracks_resolution():
    # same stream on side S and side 2S: anchors agree within one pixel of
    # scaling and the zeroed area scales exactly with the map
    for seed in range(50):
        small = cutout(np.ones((1, 1, 4, 4)), 0.5, np.random.default_rng(seed))
        large = cutout(np.ones((1, 1, 8, 8)), 0.5, np.random.default_rng(seed))
        assert (small == 0).sum() == 4 and (large == 0).sum() == 16
        sr, sc = [idx.min() for idx in np.where(small[0, 0] == 0)]
        lr, lc = [idx.min() for idx in np.where(large[0, 0] == 0)]
        assert abs(lr - 2 * sr) <= 1 and abs(lc - 2 * sc) <= 1


def test_label_convexity_property(rng):
    x = rng.normal(size=(6, 1, 4, 4))
    labels = one_hot(rng.integers(0, 3, size=6), 3)
    for kind in ("mixup", "cutmix"):
        out = apply_at_position(AugSpec(kind=kind, alpha=1.0), x, labels, rng)
        assert np.all(out.labels >= -1e-12)
        assert np.allclose(out.labels.sum(axis=1), 1.0, atol=1e-6)
        assert 0.0 <= out.lam <= 1.0


# ---- oracle: the per-sample loops the batched kernels replaced ----------------
#
# These are the sample-by-sample kernels as they stood before batching. The
# batched kernels must reproduce them bit for bit, including where the rng
# stream is left after the call.

def _ref_anchor(rng, span):
    return min(int(rng.random() * (span + 1)), span)


def _ref_shift_sample(img, dx, dy):
    out = np.zeros_like(img)
    _, h, w = img.shape
    if abs(dx) >= w or abs(dy) >= h:
        return out
    y0, y1 = max(0, dy), h + min(0, dy)
    x0, x1 = max(0, dx), w + min(0, dx)
    out[:, y0:y1, x0:x1] = img[:, max(0, -dy) : h + min(0, -dy), max(0, -dx) : w + min(0, -dx)]
    return out


def _ref_rotate_sample(img, degrees):
    _, h, w = img.shape
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


def _ref_crop_shifted(batch, pad, ox, oy):
    _, _, h, w = batch.shape
    padded = np.pad(batch, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return padded[:, :, oy : oy + h, ox : ox + w]


def _ref_apply(spec, x, labels, rng):
    """(tensor, labels, lam, grad_fn) of the per-sample kernels for one spec."""
    b, _, h, w = x.shape
    if spec.kind == "cutout":
        side = int(round(spec.mask_fraction * min(h, w)))
        keep = np.ones((b, 1, h, w), dtype=x.dtype)
        if side > 0:
            for s in range(b):
                top = _ref_anchor(rng, h - side)
                left = _ref_anchor(rng, w - side)
                keep[s, 0, top : top + side, left : left + side] = 0.0
        return x * keep, labels, 1.0, lambda g: g * keep
    if spec.kind == "mixup":
        lam = float(rng.beta(spec.alpha, spec.alpha))
        perm = rng.permutation(b)

        def mixup_grad(g):
            gx = lam * g
            np.add.at(gx, perm, (1.0 - lam) * g)
            return gx

        return (lam * x + (1.0 - lam) * x[perm],
                lam * labels + (1.0 - lam) * labels[perm], lam, mixup_grad)
    if spec.kind == "cutmix":
        lam = float(rng.beta(spec.alpha, spec.alpha))
        perm = rng.permutation(b)
        rh = int(round(h * np.sqrt(1.0 - lam)))
        rw = int(round(w * np.sqrt(1.0 - lam)))
        paste = np.zeros((b, 1, h, w), dtype=x.dtype)
        if rh > 0 and rw > 0:
            for s in range(b):
                top = _ref_anchor(rng, h - rh)
                left = _ref_anchor(rng, w - rw)
                paste[s, 0, top : top + rh, left : left + rw] = 1.0
        lam_eff = 1.0 - (rh * rw) / (h * w)

        def cutmix_grad(g):
            gx = g * (1.0 - paste)
            np.add.at(gx, perm, g * paste)
            return gx

        return (x * (1.0 - paste) + x[perm] * paste,
                lam_eff * labels + (1.0 - lam_eff) * labels[perm], lam_eff, cutmix_grad)
    if spec.kind == "translation":
        shifts = []
        for _ in range(b):
            fx = float(rng.uniform(0.0, spec.shift_fraction_max))
            fy = float(rng.uniform(0.0, spec.shift_fraction_max))
            sx = 1 if rng.integers(0, 2) else -1
            sy = 1 if rng.integers(0, 2) else -1
            shifts.append((sx * int(round(fx * w)), sy * int(round(fy * h))))

        def shift_all(t, sign):
            out = np.empty_like(t)
            for s, (dx, dy) in enumerate(shifts):
                out[s] = _ref_shift_sample(t[s], sign * dx, sign * dy)
            return out

        return shift_all(x, 1), labels, 1.0, lambda g: shift_all(g, -1)
    out = np.empty_like(x)
    for s in range(b):
        if spec.kind == "rotation":
            angle = float(rng.uniform(-spec.degree_range, spec.degree_range))
            out[s] = _ref_rotate_sample(x[s], angle)
        else:  # random_crop
            ox = int(rng.integers(0, 2 * spec.pad + 1))
            oy = int(rng.integers(0, 2 * spec.pad + 1))
            out[s] = _ref_crop_shifted(x[s : s + 1], spec.pad, ox, oy)[0]
    return out, labels, 1.0, None


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ORACLE_KINDS = ("cutout", "cutmix", "rotation", "translation", "random_crop", "mixup")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_batched_kernels_match_per_sample_oracle(kind, dtype):
    cases = np.random.default_rng([ORACLE_KINDS.index(kind), np.dtype(dtype).itemsize])
    for case in range(300):
        b, c = int(cases.integers(2, 7)), int(cases.integers(1, 4))
        h = int(cases.integers(1, 10))
        w = h if kind == "rotation" else int(cases.integers(1, 10))
        x = cases.normal(size=(b, c, h, w)).astype(dtype)
        x.flat[cases.integers(0, x.size, size=2)] = [np.nan, -0.0]
        labels = one_hot(cases.integers(0, 3, size=b), 3)
        spec = AugSpec(kind=kind, alpha=float(cases.uniform(0.2, 2.0)),
                       mask_fraction=float(cases.uniform(0.0, 1.0)),
                       shift_fraction_max=float(cases.uniform(0.0, 1.0)),
                       degree_range=float(cases.choice([10.0, 45.0, 180.0, 720.0])),
                       pad=int(cases.integers(0, 5)))
        # input-only kinds route no gradient, so they draw no upstream g
        g = None if kind in INPUT_ONLY_KINDS else cases.normal(size=x.shape).astype(dtype)
        # the mixing kernels also run at hidden taps, on batch-innermost maps
        layouts = (np.ascontiguousarray,) + ((batch_innermost_view,)
                                             if kind in MIXING_KINDS else ())
        for layout in layouts:
            new_rng, ref_rng = (np.random.default_rng([case, 7]) for _ in range(2))
            got = apply_at_position(spec, layout(x), labels, new_rng)
            ref_x, ref_labels, ref_lam, ref_grad = _ref_apply(spec, x, labels, ref_rng)
            where = (f"{kind} {np.dtype(dtype).name} {layout.__name__} case {case} "
                     f"shape {x.shape}")
            assert _same_bits(got.tensor, ref_x), where
            assert _same_bits(got.labels, ref_labels), where
            assert got.lam == ref_lam, where
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state, where
            if ref_grad is None:
                assert got.grad_fn is None, where
            else:
                assert _same_bits(got.grad_fn(layout(g)), ref_grad(g)), where
