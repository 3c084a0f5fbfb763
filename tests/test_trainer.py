"""Training loop: schedule math, optimizer, iteration contract, audits."""

import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from adalase.augment import AugSpec
from adalase.data import Dataset, gen_synthetic, pseudo_val_batch, split_dataset
from adalase.engine.layers import Conv2d, Dense, MaxPool2x2, ReLU, ResidualBlock
from adalase.engine import losses
from adalase.engine.losses import one_hot
from adalase.errors import AuditError, ConfigError, NonFiniteError, StateError
from adalase import trainer
from adalase.ratios import (AcceptanceRatios, AdaLaseConfig, RatioSchedule, init_ratios,
                            sample_position)
from adalase.trainer import (OptimizerState, SelectionAudit, Splits,
                             TrainConfig, adalase_iteration, audit_worst_layer,
                             cosine_lr, dataset_loss, evaluate,
                             probe_layer_losses, sgd_momentum_step, train)
from conftest import tiny_cnn, tiny_mlp


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


def test_soft_labels_are_checked_once_per_loss(monkeypatch):
    # an iteration with a pseudo-val draw and mixup at a hidden tap: only
    # cross_entropy checks labels, once for each of its two losses
    calls = []
    original = losses.check_soft_labels
    def counted(labels):
        calls.append(1)
        return original(labels)
    for mod in [m for name, m in sys.modules.items() if name.startswith("adalase")]:
        if getattr(mod, "check_soft_labels", None) is original:
            monkeypatch.setattr(mod, "check_soft_labels", counted)
    splits = small_splits()
    net = tiny_cnn(3, side=4)
    q = np.zeros(net.num_taps)
    q[1] = 1.0
    cfg = quick_config(train_aug=AugSpec(kind="mixup", alpha=1.0))
    opt = OptimizerState(velocity=np.zeros(net.num_params()), momentum=0.9,
                         base_lr=0.01, current_lr=0.01, total_steps=10)
    rng = np.random.default_rng(0)
    pseudo = pseudo_val_batch(splits.test, 8, cfg.pseudo_val_aug, rng)
    train_batch = splits.train.images[:8], one_hot(splits.train.labels[:8], 2)
    _, _, l, _ = adalase_iteration(net, train_batch, pseudo, AcceptanceRatios(q=q, d=0.0),
                                   opt, cfg, rng, rng)
    assert l == 1 and len(calls) == 2


# ReLU propagates NaN, so a NaN input row, like a NaN output bias, reaches the
# logits and the loss: the guard fires at the loss, before any gradient
@pytest.mark.parametrize("where,pseudo,what", [
    ("input", False, "training loss"), ("input", True, "pseudo-validation loss"),
    ("bias", False, "training loss"), ("bias", True, "pseudo-validation loss")])
def test_non_finite_value_raises_before_any_state_changes(where, pseudo, what, rng):
    net = tiny_mlp(6)
    x = rng.normal(size=(8, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=8), 2)
    bad = x.copy()
    if where == "input":
        bad[3] = np.nan
    else:
        net.layers[-1].b[0] = np.nan
    train_batch, pseudo_batch = ((x, labels), (bad, labels)) if pseudo else ((bad, labels), None)
    opt = OptimizerState(velocity=rng.normal(size=net.num_params()), momentum=0.9,
                         base_lr=0.01, current_lr=0.01, t=3, total_steps=10)
    theta, velocity = net.param_vector(), opt.velocity.copy()
    with pytest.raises(NonFiniteError) as exc:
        adalase_iteration(net, train_batch, pseudo_batch, init_ratios(2), opt, quick_config(),
                          np.random.default_rng(0), np.random.default_rng(1))
    position = sample_position(init_ratios(2), np.random.default_rng(0))
    assert (exc.value.what, exc.value.position) == (what, position)
    assert str(exc.value) == f"non-finite {what} at position P{position}"
    assert net.param_vector().tobytes() == theta.tobytes()
    assert np.array_equal(opt.velocity, velocity) and opt.t == 3


@pytest.mark.parametrize("schedule,row_iter", [("adaptive", 0), ("uniform", 2)])
def test_train_names_epoch_and_iteration_of_a_non_finite_gradient(schedule, row_iter):
    splits = small_splits()
    order = np.random.default_rng([0, 0]).permutation(len(splits.train))  # batch_iter's epoch 0
    splits.train.images[order[16 * row_iter]] = np.nan
    cfg = quick_config(schedule=RatioSchedule(shape=schedule))
    net = tiny_mlp(16)
    theta = net.param_vector()
    with pytest.raises(NonFiniteError) as exc:
        train(net, splits, cfg)
    assert (exc.value.epoch, exc.value.iteration) == (0, row_iter)
    assert f" at epoch 0, iteration {row_iter}, position P{exc.value.position}" in str(exc.value)
    # the failing iteration takes no step: only the row_iter before it moved theta
    assert (net.param_vector().tobytes() == theta.tobytes()) == (row_iter == 0)


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


@pytest.mark.parametrize("batch_size", [16, 24])  # 80 samples: 5 full batches, or 4 with a short one
def test_epoch_cadence_is_a_window_of_one_epoch(batch_size):
    splits = small_splits()
    runs = []
    for cadence, window in (("epoch", 1), ("window", math.ceil(80 / batch_size))):
        cfg = quick_config(epochs=3, batch_size=batch_size, update_cadence=cadence,
                           adalase=AdaLaseConfig(eta=0.5, avg_window=window))
        r = train(tiny_mlp(20), splits, cfg)
        runs.append((r.ratio_history, r.audit.selected, [rec.train_loss for rec in r.report]))
    assert runs[0] == runs[1]
    assert runs[0][0][-1] != runs[0][0][0]


def test_true_validation_never_reads_the_test_split():
    full = gen_synthetic("striped_patches", 150, 0, side=4, noise=0.05)
    tr, va, te = split_dataset(full, 80, 30, 40, 0)
    noise = replace(te, images=np.random.default_rng(1).random(te.images.shape))
    cfg = quick_config(epochs=3, val_mode="true", probe=True)
    runs = []
    for test in (te, noise):
        r = train(tiny_mlp(21), Splits(train=tr, test=test, val=va), cfg)
        runs.append((r.ratio_history, r.audit.selected, r.audit.worst_by_epoch,
                     [replace(rec, test_acc=None) for rec in r.report]))
    assert runs[0] == runs[1]
    assert runs[0][0][-1] != runs[0][0][0]


def test_empty_training_set_rejected():
    splits = small_splits()
    empty = Splits(train=split_dataset(splits.train, 0, 0, 0, 0)[0],
                   test=splits.test)
    with pytest.raises(ConfigError):
        train(tiny_mlp(14), empty, quick_config())


def test_mixing_aug_requires_pairable_batches():
    with pytest.raises(ConfigError):
        quick_config(batch_size=1, train_aug=AugSpec(kind="mixup"))


@pytest.mark.parametrize("kind", ["mixup", "cutmix"])
@pytest.mark.parametrize("counts,overrides,field", [
    ((129, 40), {"batch_size": 64}, "train.batch_size"),  # 129 = 2 * 64 + 1
    ((80, 257), {"probe": True, "eval_batch_size": 256}, "train.eval_batch_size"),
])
def test_one_sample_mixing_batch_rejected_before_training(kind, counts, overrides, field):
    # splits built in code: no config holds their sizes, so train itself must check
    splits = small_splits(n=sum(counts), train_count=counts[0], test_count=counts[1])
    net = tiny_mlp(16)
    theta = net.param_vector()
    with pytest.raises(ConfigError, match=f"^{field}: "):
        train(net, splits, quick_config(train_aug=AugSpec(kind=kind), **overrides))
    assert np.array_equal(net.theta, theta)


def test_splits_with_different_class_counts_rejected_before_training():
    splits = small_splits()
    three = Splits(train=replace(splits.train, num_classes=3), test=splits.test)
    net = tiny_mlp(22, classes=3)
    theta = net.param_vector()
    with pytest.raises(ConfigError, match="class count"):
        train(net, three, quick_config(probe=True))
    assert np.array_equal(net.theta, theta)


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
                       worst_by_epoch=list(worst))
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


def _leaves(net):
    """Every layer of ``net`` with the residual blocks opened up."""
    leaves = []
    for layer in net.layers:
        block = isinstance(layer, ResidualBlock)
        leaves += [layer.conv1, layer.relu1, layer.conv2, layer.relu2] if block else [layer]
    return leaves


def test_evaluate_keeps_no_state_for_backward(rng):
    # a forward-only pass drops every array backward would read; conv patches are the largest
    net = tiny_cnn(20)
    net.forward_with_tap(rng.normal(size=(4, 1, 6, 6)), one_hot([0, 1, 1, 0], 2))
    evaluate(net, Dataset(rng.random(size=(10, 1, 6, 6)), np.arange(10) % 2, 2), batch_size=4)
    leaves = _leaves(net)
    assert sum(isinstance(leaf, Conv2d) for leaf in leaves) == 5
    kept = {Conv2d: "_cols", ReLU: "_mask", MaxPool2x2: "_arg", Dense: "_x2"}
    for leaf in leaves:
        if type(leaf) in kept:
            assert getattr(leaf, kept[type(leaf)]) is None, type(leaf).__name__
    with pytest.raises(StateError):
        net.backward()


def test_loss_only_passes_keep_no_patches():
    # the val-loss pass and the probes only read the loss, so they keep no conv patches,
    # and they return the same loss bitwise as passes that keep them
    splits = small_splits()
    net = tiny_cnn(24, side=4)
    convs = [leaf for leaf in _leaves(net) if isinstance(leaf, Conv2d)]
    aug = AugSpec(kind="mixup", alpha=1.0)
    ds = splits.test
    for tap in range(net.num_taps):
        rng = np.random.default_rng(tap)
        want = 0.0
        for start in range(0, len(ds), 16):
            x = ds.images[start : start + 16]
            y = one_hot(ds.labels[start : start + 16], 2)
            _, loss, _ = net.forward_with_tap(x, y, tap=tap, aug=aug, rng=rng)
            want += loss * x.shape[0]
        want /= len(ds)
        assert all(conv._cols is not None for conv in convs)
        got = dataset_loss(net, ds, 16, tap=tap, aug=aug, rng=np.random.default_rng(tap))
        assert got == want
        assert all(conv._cols is None for conv in convs)
        with pytest.raises(StateError):
            net.backward()


def test_training_forward_keeps_width_only_patches(rng):
    # each conv keeps C*k*(H+2p)*Wo*B patch values: its unfold runs along the width only
    b, side = 5, 6
    net = tiny_cnn(25, side=side, width=3)
    net.forward_with_tap(rng.normal(size=(b, 1, side, side)), one_hot(np.arange(b) % 2, 2))
    convs = [leaf for leaf in _leaves(net) if isinstance(leaf, Conv2d)]
    sides = [side] * 3 + [side // 2] * 2  # the stem and block 1, then block 2 after the pool
    assert len(convs) == len(sides)
    for conv, h in zip(convs, sides):
        k, p = conv.kernel, conv.pad
        want = conv.in_channels * k * (h + 2 * p) * (h + 2 * p - k + 1) * b
        assert conv._cols.size == want


@pytest.mark.parametrize("model", ["tiny_cnn", "tiny_mlp"])
@pytest.mark.parametrize("aug", ["none", "mixup"])
def test_float32_network_computes_in_float32(monkeypatch, model, aug):
    # float64 data and labels go in; every activation, gradient and update stays float32
    seen = []
    for cls in (Conv2d, ReLU, MaxPool2x2):
        def forward(self, x, keep=True, _original=cls.forward):
            out = _original(self, x, keep=keep)
            seen.append((type(self).__name__, out.dtype))
            return out
        monkeypatch.setattr(cls, "forward", forward)
    opts = []
    original_step = trainer.sgd_momentum_step
    def step(net, grads, opt):
        opts.append(opt)
        return original_step(net, grads, opt)
    monkeypatch.setattr(trainer, "sgd_momentum_step", step)

    splits = small_splits()
    net = {"tiny_cnn": tiny_cnn, "tiny_mlp": tiny_mlp}[model](25, side=4, dtype=np.float32)
    x = splits.train.images[:8]
    y = one_hot(splits.train.labels[:8], 2)
    assert x.dtype == y.dtype == np.float64
    spec = AugSpec(kind=aug, alpha=1.0)
    logits, _, mixed = net.forward_with_tap(x, y, tap=1, aug=spec, rng=np.random.default_rng(0))
    assert logits.dtype == mixed.dtype == np.float32
    assert net.backward().dtype == np.float32
    assert net.predict(x).dtype == np.float32
    cfg = quick_config(epochs=1, train_aug=spec)
    train(net, splits, cfg)
    assert net.theta.dtype == np.float32
    assert opts and all(opt.velocity.dtype == np.float32 for opt in opts)
    names = {name for name, _ in seen}
    assert names == ({"Conv2d", "ReLU", "MaxPool2x2"} if model == "tiny_cnn" else {"ReLU"})
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}

