"""Augmentation kernel tests: exact small cases plus the shared-parameter,
label-convexity, and degenerate-identity properties."""

import numpy as np
import pytest

from adalase.augment import (AugSpec, apply_at_position, crop_shifted, cutmix,
                             cutout, flip_horizontal, mixup, rotate_sample,
                             rotation, shift_sample, translation)
from adalase.engine.losses import one_hot
from adalase.errors import (ConfigError, DegenerateBatchError, PolicyError,
                            ShapeError)


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
    img = rng.normal(size=(2, 3, 3))
    assert np.array_equal(shift_sample(img, 0, 0), img)


def test_shift_by_one_pixel():
    img = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4)
    assert np.allclose(shift_sample(img, 1, 0).ravel(), [0.0, 1.0, 2.0, 3.0])


def test_shift_beyond_map_is_all_zero():
    img = np.ones((1, 2, 2))
    assert np.all(shift_sample(img, 3, 0) == 0)


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
    img = rng.normal(size=(2, 5, 5))
    assert np.array_equal(rotate_sample(img, 0.0), img)


def test_rotation_180_reverses_grid():
    img = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2)
    assert np.allclose(rotate_sample(img, 180.0)[0], [[4.0, 3.0], [2.0, 1.0]])


def test_rotation_90_permutes_pixels(rng):
    img = rng.normal(size=(1, 6, 6))
    out = rotate_sample(img, 90.0)
    assert np.allclose(np.sort(out.ravel()), np.sort(img.ravel()))


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


def test_center_crop_after_pad_is_identity(rng):
    x = rng.normal(size=(2, 1, 4, 4))
    assert np.array_equal(crop_shifted(x, 1, 1, 1), x)


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
