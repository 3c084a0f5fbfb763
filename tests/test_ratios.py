"""Acceptance-ratio state: initialization, sampling, updates, schedules."""

import logging

import numpy as np
import pytest

from adalase.errors import ConfigError
from adalase.ratios import (AcceptanceRatios, AdaLaseConfig, RatioSchedule,
                            adalase_update, averaged_update, init_ratios,
                            sample_position, schedule_ratios)

CFG = AdaLaseConfig(eta=1.0)


def _valid(ratios, tol=1e-9):
    q = ratios.q
    return (abs(q.sum() - 1.0) <= tol and q.min() >= ratios.d - tol
            and q.max() <= 1.0 - ratios.d + tol)


# ---- initialization ----------------------------------------------------------

def test_init_two_positions():
    r = init_ratios(2)
    assert np.allclose(r.q, [0.5, 0.5]) and r.d == pytest.approx(0.05)


def test_init_six_positions():
    r = init_ratios(6)
    assert np.allclose(r.q, np.full(6, 1 / 6))


def test_init_lower_limit_scales_with_positions():
    assert init_ratios(5, d_scale=0.5).d == pytest.approx(0.1)


def test_init_rejects_single_position():
    with pytest.raises(ConfigError):
        init_ratios(1)


def test_config_validation():
    with pytest.raises(ConfigError):
        AdaLaseConfig(eta=0.0)
    with pytest.raises(ConfigError):
        AdaLaseConfig(avg_window=-1)
    with pytest.raises(ConfigError):
        AdaLaseConfig(d_scale=1.0)
    with pytest.raises(ConfigError):
        AdaLaseConfig(dot_normalization="softmax")


# ---- sampling ----------------------------------------------------------------

def test_degenerate_mass_always_selected(rng):
    r = AcceptanceRatios(q=np.array([1.0, 0.0]), d=0.0)
    assert all(sample_position(r, rng) == 0 for _ in range(200))


def test_sampling_frequencies_match_ratios():
    rng = np.random.default_rng(42)
    r = AcceptanceRatios(q=np.array([0.3, 0.7]), d=0.05)
    draws = np.array([sample_position(r, rng) for _ in range(100_000)])
    assert abs((draws == 1).mean() - 0.7) < 0.01


def test_sample_position_matches_rng_choice():
    # the inverse CDF is what rng.choice(K, p=...) runs: same draws, same stream
    qrng = np.random.default_rng(5)
    for k in range(2, 7):
        qs = [qrng.dirichlet(np.ones(k)) for _ in range(4)]
        with_zero = qrng.dirichlet(np.ones(k))
        with_zero[k // 2] = 0.0
        for q in qs + [with_zero / with_zero.sum()]:
            r = AcceptanceRatios(q=q, d=0.0)
            ours, ref = np.random.default_rng(k), np.random.default_rng(k)
            got = [sample_position(r, ours) for _ in range(2000)]
            want = [int(ref.choice(k, p=q / q.sum())) for _ in range(2000)]
            assert got == want
            assert ours.bit_generator.state == ref.bit_generator.state


def test_sampling_is_seed_deterministic():
    r = init_ratios(4)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    seq1 = [sample_position(r, rng1) for _ in range(50)]
    seq2 = [sample_position(r, rng2) for _ in range(50)]
    assert seq1 == seq2


# ---- single update -----------------------------------------------------------

def test_zero_dot_leaves_ratios_unchanged():
    r = init_ratios(3)
    out = adalase_update(r, 1, 0.0, CFG)
    assert np.array_equal(out.q, r.q)


def test_update_arithmetic_small_positive_dot():
    r = AcceptanceRatios(q=np.array([0.5, 0.5]), d=0.05)
    out = adalase_update(r, 0, 0.2, AdaLaseConfig(eta=0.1))
    assert np.allclose(out.q, [0.509804, 0.490196], atol=1e-6)


def test_update_arithmetic_clamped_negative_dot():
    r = AcceptanceRatios(q=np.array([0.10, 0.90]), d=0.05)
    out = adalase_update(r, 0, -1.0, AdaLaseConfig(eta=1.0))
    assert np.allclose(out.q, [0.052632, 0.947368], atol=1e-6)


def test_non_finite_dots_rejected(caplog):
    r = init_ratios(2)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with caplog.at_level(logging.WARNING, logger="adalase.ratios"):
            out = adalase_update(r, 0, bad, CFG)
        assert out is r
    assert "non-finite" in caplog.text


def test_position_out_of_range():
    with pytest.raises(ConfigError):
        adalase_update(init_ratios(2), 5, 0.1, CFG)


def test_positive_dot_raises_target_and_lowers_rest():
    r = init_ratios(4)
    out = adalase_update(r, 2, 0.1, CFG)
    assert out.q[2] > r.q[2]
    for i in (0, 1, 3):
        assert out.q[i] < r.q[i]
    neg = adalase_update(r, 2, -0.1, CFG)
    assert neg.q[2] < r.q[2]
    for i in (0, 1, 3):
        assert neg.q[i] > r.q[i]


def test_eta_dot_product_invariance():
    r = AcceptanceRatios(q=np.array([0.4, 0.35, 0.25]), d=0.1 / 3)
    a = adalase_update(r, 0, 0.08, AdaLaseConfig(eta=1.0))
    b = adalase_update(r, 0, 0.8, AdaLaseConfig(eta=0.1))
    assert np.allclose(a.q, b.q, atol=1e-15)


def test_revivability_floor_never_breached():
    r = init_ratios(3)
    for _ in range(500):
        r = adalase_update(r, 0, -10.0, CFG)
        assert _valid(r)
        assert r.q[0] >= r.d - 1e-9
    # a crushed position can still climb back
    recovered = adalase_update(r, 0, +10.0, CFG)
    assert recovered.q[0] > r.q[0]


def test_simplex_closure_fuzz():
    rng = np.random.default_rng(777)
    r = init_ratios(5)
    for _ in range(20_000):
        l = int(rng.integers(0, 5))
        dot = float(rng.normal() * 10.0 ** rng.integers(-2, 4))
        r = adalase_update(r, l, dot, CFG)
        assert _valid(r)


# ---- averaged update ----------------------------------------------------------

def test_window_of_identical_entries_equals_single_update():
    r = init_ratios(3)
    single = adalase_update(r, 1, 0.07, CFG)
    windowed = averaged_update(r, [(1, 0.07)] * 6, CFG)
    assert np.allclose(windowed.q, single.q, atol=1e-15)


def test_window_with_cancelling_dots_is_noop():
    r = init_ratios(3)
    out = averaged_update(r, [(1, 0.3), (1, -0.3)], CFG)
    assert np.allclose(out.q, r.q, atol=1e-15)


def test_window_of_one_matches_per_iteration_update_bitwise():
    rng = np.random.default_rng(4)
    r = init_ratios(4)
    for _ in range(200):
        l = int(rng.integers(0, 4))
        dot = float(rng.normal())
        a = adalase_update(r, l, dot, CFG)
        b = averaged_update(r, [(l, dot)], CFG)
        assert np.array_equal(a.q, b.q)
        r = a


def test_empty_window_is_noop():
    r = init_ratios(2)
    assert averaged_update(r, [], CFG) is r


def test_window_drops_non_finite_entries():
    r = init_ratios(3)
    out = averaged_update(r, [(0, float("nan")), (1, 0.1)], CFG)
    ref = adalase_update(r, 1, 0.1, CFG)
    assert np.array_equal(out.q, ref.q)


def test_window_drops_a_position_whose_mean_overflows(caplog):
    r = init_ratios(3)
    with caplog.at_level(logging.WARNING, logger="adalase.ratios"):
        out = averaged_update(r, [(0, 1e308), (0, 1e308), (1, 0.1)], CFG)
    assert np.array_equal(out.q, adalase_update(r, 1, 0.1, CFG).q)
    assert "non-finite" in caplog.text


def test_multi_position_window_stays_valid():
    rng = np.random.default_rng(5)
    r = init_ratios(4)
    buf = [(int(rng.integers(0, 4)), float(rng.normal())) for _ in range(32)]
    out = averaged_update(r, buf, CFG)
    assert _valid(out)


# ---- schedules ----------------------------------------------------------------

def test_schedule_uniform():
    assert np.allclose(schedule_ratios(RatioSchedule(shape="uniform"), 6), np.full(6, 1 / 6))


def test_schedule_fixed_one_hot():
    assert np.allclose(schedule_ratios(RatioSchedule(shape="fixed", fixed_index=0), 6),
                       [1, 0, 0, 0, 0, 0])


def test_schedule_linear_increasing():
    assert np.allclose(schedule_ratios(RatioSchedule(shape="linear_inc"), 3),
                       [1 / 6, 2 / 6, 3 / 6])


def test_schedule_linear_decreasing():
    assert np.allclose(schedule_ratios(RatioSchedule(shape="linear_dec"), 3),
                       [3 / 6, 2 / 6, 1 / 6])


def test_schedule_mountain_and_valley_shapes():
    mountain = schedule_ratios(RatioSchedule(shape="mountain"), 6)
    assert mountain.argmax() in (2, 3) and mountain[0] == mountain[-1]
    valley = schedule_ratios(RatioSchedule(shape="valley"), 6)
    assert valley.argmin() in (2, 3) and valley[0] == valley[-1]
    assert valley[0] == valley.max()
    for q in (mountain, valley):
        assert q.sum() == pytest.approx(1.0)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        RatioSchedule(shape="spiral")
    with pytest.raises(ConfigError):
        schedule_ratios(RatioSchedule(shape="fixed", fixed_index=9), 3)
