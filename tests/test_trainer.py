"""Training loop: schedule math, optimizer, iteration contract, audits."""

import hashlib
import math

import numpy as np
import pytest

from adalase.augment import AugSpec
from adalase.data import gen_synthetic, split_dataset
from adalase.engine.losses import one_hot
from adalase.errors import AuditError, ConfigError
from adalase.ratios import AdaLaseConfig, RatioSchedule, init_ratios
from adalase.trainer import (OptimizerState, SelectionAudit, Splits,
                             TrainConfig, adalase_iteration, audit_worst_layer,
                             cosine_lr, dataset_loss, evaluate,
                             probe_layer_losses, sgd_momentum_step, train)
from conftest import tiny_mlp


def small_splits(seed=0, n=120, train_count=80, test_count=40, noise=0.05):
    full = gen_synthetic("striped_patches", n, seed, side=4, noise=noise)
    tr, _, te = split_dataset(full, train_count, 0, test_count, seed)
    return Splits(train=tr, test=te)


def quick_config(**overrides):
    base = dict(epochs=2, batch_size=16, base_lr=0.05, momentum=0.9, seed=0,
                train_aug=AugSpec(kind="cutout", mask_fraction=0.5),
                pseudo_val_aug=AugSpec(kind="rotation", degree_range=10.0),
                adalase=AdaLaseConfig(eta=0.5))
    base.update(overrides)
    return TrainConfig(**base)


# ---- learning-rate schedule ---------------------------------------------------

def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 0.1) == pytest.approx(0.1)
    assert cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-15)


def test_cosine_lr_midpoint():
    assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05)


def test_cosine_lr_rejects_out_of_range():
    with pytest.raises(ConfigError):
        cosine_lr(101, 100, 0.1)


# ---- optimizer -----------------------------------------------------------------

def test_momentum_zero_is_plain_sgd(rng):
    net = tiny_mlp(0)
    theta = net.param_vector()
    g = rng.normal(size=theta.size)
    opt = OptimizerState(velocity=np.zeros_like(theta), momentum=0.0,
                         base_lr=0.1, current_lr=0.1)
    sgd_momentum_step(net, g, opt)
    assert np.allclose(net.param_vector(), theta - 0.1 * g, atol=1e-15)


def test_momentum_accumulates_velocity(rng):
    net = tiny_mlp(1)
    theta0 = net.param_vector()
    g = rng.normal(size=theta0.size)
    opt = OptimizerState(velocity=np.zeros_like(theta0), momentum=0.9,
                         base_lr=0.1, current_lr=0.1)
    sgd_momentum_step(net, g, opt)
    theta1 = net.param_vector()
    sgd_momentum_step(net, g, opt)
    delta2 = net.param_vector() - theta1
    assert np.allclose(delta2, -0.1 * g * 1.9, atol=1e-12)


def test_zero_gradient_keeps_parameters_fixed():
    net = tiny_mlp(2)
    theta = net.param_vector()
    opt = OptimizerState(velocity=np.zeros_like(theta), momentum=0.9,
                         base_lr=0.1, current_lr=0.1)
    for _ in range(5):
        sgd_momentum_step(net, np.zeros_like(theta), opt)
    assert np.array_equal(net.param_vector(), theta)


def test_gradient_shape_mismatch_rejected():
    net = tiny_mlp(3)
    opt = OptimizerState(velocity=np.zeros(net.num_params()), momentum=0.9,
                         base_lr=0.1, current_lr=0.1)
    with pytest.raises(ConfigError):
        sgd_momentum_step(net, np.zeros(3), opt)


# ---- single iteration -----------------------------------------------------------

def test_self_aligned_gradients_give_nonnegative_dot(rng):
    net = tiny_mlp(4)
    x = rng.normal(size=(8, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=8), 2)
    cfg = quick_config(train_aug=AugSpec(kind="none"))
    opt = OptimizerState(velocity=np.zeros(net.num_params()), momentum=0.9,
                         base_lr=0.01, current_lr=0.01, total_steps=10)
    ratios = init_ratios(net.num_taps)
    _, _, l, dot = adalase_iteration(net, (x, labels), (x, labels), ratios, opt,
                                     cfg, np.random.default_rng(0),
                                     np.random.default_rng(1))
    # pseudo and training batches are identical with no augmentation, so the
    # dot is a squared norm
    assert dot >= 0.0
    assert 0 <= l < net.num_taps


def test_iteration_without_pseudo_batch_skips_dot(rng):
    net = tiny_mlp(5)
    x = rng.normal(size=(8, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=8), 2)
    cfg = quick_config()
    opt = OptimizerState(velocity=np.zeros(net.num_params()), momentum=0.9,
                         base_lr=0.01, current_lr=0.01, total_steps=10)
    theta = net.param_vector().copy()
    loss, ploss, _, dot = adalase_iteration(net, (x, labels), None,
                                            init_ratios(2), opt, cfg,
                                            np.random.default_rng(0),
                                            np.random.default_rng(1))
    assert dot is None and ploss is None and np.isfinite(loss)
    assert not np.array_equal(net.param_vector(), theta)


# ---- full training loop ----------------------------------------------------------

def test_training_is_seed_deterministic():
    splits = small_splits()
    cfg = quick_config()
    results = []
    for _ in range(2):
        net = tiny_mlp(10)
        results.append(train(net, splits, cfg))
    a, b = results
    assert [r.__dict__ for r in a.report] == [r.__dict__ for r in b.report]
    assert a.ratio_history == b.ratio_history
    assert a.audit.selected == b.audit.selected


def test_training_loss_decreases_on_separable_toy():
    splits = small_splits(noise=0.01)
    cfg = quick_config(epochs=4, train_aug=AugSpec(kind="none"),
                       schedule=RatioSchedule(shape="uniform"))
    net = tiny_mlp(11)
    result = train(net, splits, cfg)
    losses = [r.train_loss for r in result.report]
    assert losses[-1] <= losses[0] + 1e-6


def test_fixed_schedule_selects_one_position_only():
    splits = small_splits()
    cfg = quick_config(schedule=RatioSchedule(shape="fixed", fixed_index=0))
    result = train(tiny_mlp(12), splits, cfg)
    assert set(result.audit.selected) == {0}


def test_ratio_history_has_one_snapshot_per_epoch_plus_init():
    splits = small_splits()
    cfg = quick_config(epochs=3)
    result = train(tiny_mlp(13), splits, cfg)
    assert len(result.ratio_history) == 4
    assert np.allclose(result.ratio_history[0], [0.5, 0.5])


def test_window_cadence_stays_on_bounded_simplex():
    splits = small_splits()
    ada = AdaLaseConfig(eta=0.5, avg_window=2)
    window = train(tiny_mlp(15), splits, quick_config(update_cadence="window", adalase=ada))
    epoch = train(tiny_mlp(15), splits, quick_config(adalase=ada))
    d = window.final_ratios.d
    for q in window.ratio_history:
        assert sum(q) == pytest.approx(1.0, abs=1e-9)
        assert d - 1e-12 <= min(q) and max(q) <= 1.0 - d + 1e-12
    assert window.ratio_history[-1] != window.ratio_history[0]
    assert window.ratio_history != epoch.ratio_history


def test_empty_training_set_rejected():
    splits = small_splits()
    empty = Splits(train=split_dataset(splits.train, 0, 0, 0, 0)[0],
                   test=splits.test)
    with pytest.raises(ConfigError):
        train(tiny_mlp(14), empty, quick_config())


def test_mixing_aug_requires_pairable_batches():
    with pytest.raises(ConfigError):
        quick_config(batch_size=1, train_aug=AugSpec(kind="mixup"))


# ---- probing -------------------------------------------------------------------

def test_probe_with_identity_aug_is_position_independent(rng):
    splits = small_splits()
    net = tiny_mlp(15)
    losses = probe_layer_losses(net, splits.test, AugSpec(kind="none"),
                                range(net.num_taps), rng)
    assert losses[0] == pytest.approx(losses[1], rel=1e-12)


def test_probe_never_touches_parameters(rng):
    splits = small_splits()
    net = tiny_mlp(16)
    before = hashlib.sha256(net.param_vector().tobytes()).hexdigest()
    probe_layer_losses(net, splits.test, AugSpec(kind="cutout", mask_fraction=0.5),
                       range(net.num_taps), rng)
    after = hashlib.sha256(net.param_vector().tobytes()).hexdigest()
    assert before == after


# ---- selection audit --------------------------------------------------------------

def _audit(selected, uniform, worst):
    a = SelectionAudit(selected=list(selected), uniform_selected=list(uniform),
                       epoch_of_iter=[0] * len(selected), worst_by_epoch=list(worst))
    return a


def test_audit_coordinates_arithmetic():
    selected = [0] * 10 + [1] * 90
    uniform = [0] * 20 + [1] * 80
    x, y = audit_worst_layer(_audit(selected, uniform, [0]))
    assert x == pytest.approx(-0.1)
    assert y == pytest.approx(1.0)


def test_audit_identical_selections_give_zero_x():
    selected = [0, 1] * 50
    x, _ = audit_worst_layer(_audit(selected, selected, [0]))
    assert x == 0.0


def test_audit_alternating_worst_gives_zero_y():
    selected = [0] * 100
    uniform = [1] * 100
    a = SelectionAudit(selected=selected, uniform_selected=uniform,
                       epoch_of_iter=[i % 2 for i in range(100)],
                       worst_by_epoch=[0, 1])
    _, y = audit_worst_layer(a)
    assert y == 0.0


def test_audit_requires_probe_data():
    with pytest.raises(AuditError):
        audit_worst_layer(SelectionAudit())


# ---- evaluation ---------------------------------------------------------------

def test_evaluate_memorized_set_is_perfect():
    full = gen_synthetic("two_gaussians", 120, seed=0, side=4, noise=0.05,
                         separation=10.0)
    tr, _, te = split_dataset(full, 80, 0, 40, seed=0)
    splits = Splits(train=tr, test=te)
    cfg = quick_config(epochs=12, base_lr=0.2, train_aug=AugSpec(kind="none"),
                       schedule=RatioSchedule(shape="fixed", fixed_index=0))
    net = tiny_mlp(17)
    train(net, splits, cfg)
    assert evaluate(net, splits.train) >= 0.99


def test_evaluate_invariant_to_batch_size():
    splits = small_splits()
    net = tiny_mlp(18)
    accs = {evaluate(net, splits.test, batch_size=b) for b in (1, 7, 64, 1000)}
    assert len(accs) == 1


def test_dataset_loss_matches_manual_mean():
    splits = small_splits()
    net = tiny_mlp(19)
    from adalase.engine.losses import cross_entropy
    y = one_hot(splits.test.labels, 2)
    expected, _ = cross_entropy(net.predict(splits.test.images), y)
    assert dataset_loss(net, splits.test, batch_size=13) == pytest.approx(expected)
