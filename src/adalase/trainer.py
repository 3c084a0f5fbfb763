"""Training loop with adaptive augmentation-position selection.

Each iteration (adaptive mode): compute the pseudo-validation gradient at the
current weights, sample a tap position from the acceptance ratios, take a
momentum-SGD step on the tap-augmented training loss, and buffer the inner
product of the two gradients for the windowed ratio update. Cosine annealing
drives the learning rate. Separate seeded rng streams back position sampling,
augmentation, pseudo-validation draws, the uniform audit counterfactual, and
probing, so enabling one feature never perturbs another.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .augment import MIXING_KINDS, AugSpec
from .data import batch_iter, pseudo_val_batch
from .engine.losses import cross_entropy, grad_dot, one_hot
from .errors import AuditError, ConfigError
from .ratios import (AcceptanceRatios, AdaLaseConfig, RatioSchedule,
                     averaged_update, init_ratios, sample_position,
                     schedule_ratios)

# rng stream tags; fixed so adding features never reshuffles existing streams
_POS, _AUG, _PSEUDO, _UNIFORM, _PROBE = 1, 2, 3, 4, 5


def cosine_lr(t, total_steps, lr0):
    """Cosine annealing: lr0 * (1 + cos(pi * t / T)) / 2."""
    if not 0 <= t <= total_steps:
        raise ConfigError(f"step {t} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / total_steps))


@dataclass
class OptimizerState:
    velocity: np.ndarray
    momentum: float
    base_lr: float
    current_lr: float
    t: int = 0
    total_steps: int = 1


def sgd_momentum_step(net, grads, opt):
    """v <- mu*v + g; theta <- theta - lr*v."""
    grads = np.asarray(grads)
    if grads.shape != opt.velocity.shape:
        raise ConfigError(f"gradient length {grads.shape} != velocity {opt.velocity.shape}")
    opt.velocity *= opt.momentum
    opt.velocity += grads
    net.theta -= opt.current_lr * opt.velocity


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    base_lr: float = 0.1
    momentum: float = 0.9
    schedule: RatioSchedule = field(default_factory=RatioSchedule)
    train_aug: AugSpec = field(default_factory=lambda: AugSpec(kind="mixup", alpha=1.0))
    pseudo_val_aug: AugSpec = field(default_factory=lambda: AugSpec(kind="rotation",
                                                                    degree_range=10.0))
    adalase: AdaLaseConfig = field(default_factory=AdaLaseConfig)
    seed: int = 0
    val_mode: str = "pseudo"  # pseudo | true
    ratio_updates: bool = True
    update_cadence: str = "epoch"  # epoch | window
    probe: bool = False
    eval_batch_size: int = 256

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1", field="epochs")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1", field="batch_size")
        if not self.base_lr > 0:
            raise ConfigError("base_lr must be > 0", field="base_lr")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0,1)", field="momentum")
        if self.batch_size < 2 and self.train_aug.kind in MIXING_KINDS:
            raise ConfigError("batch_size must be >= 2 for mixing augmentations",
                              field="batch_size")
        if self.val_mode not in ("pseudo", "true"):
            raise ConfigError("val_mode must be 'pseudo' or 'true'", field="val_mode")
        if self.update_cadence not in ("epoch", "window"):
            raise ConfigError("update_cadence must be 'epoch' or 'window'",
                              field="update_cadence")


@dataclass
class Splits:
    train: object
    test: object
    val: object = None


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    pseudo_loss: Optional[float]
    val_loss: Optional[float]
    test_acc: float
    q: tuple
    probe_losses: Optional[tuple] = None


@dataclass
class SelectionAudit:
    """Per-iteration selections plus the probe-derived worst position per epoch."""
    selected: list = field(default_factory=list)
    uniform_selected: list = field(default_factory=list)
    epoch_of_iter: list = field(default_factory=list)
    worst_by_epoch: list = field(default_factory=list)

    @property
    def n_all(self):
        return len(self.selected)


@dataclass
class TrainResult:
    report: list
    ratio_history: list  # (epochs+1) snapshots of q, index 0 = init
    audit: SelectionAudit
    final_ratios: AcceptanceRatios


def evaluate(net, test_set, batch_size=256):
    """Argmax accuracy; ties resolve to the lowest class index."""
    correct = 0
    for start in range(0, len(test_set), batch_size):
        x = test_set.images[start : start + batch_size]
        y = test_set.labels[start : start + batch_size]
        logits = net.predict(x)
        correct += int((logits.argmax(axis=1) == y).sum())
    return correct / len(test_set)


def dataset_loss(net, ds, batch_size=256):
    total, n = 0.0, 0
    for start in range(0, len(ds), batch_size):
        x = ds.images[start : start + batch_size]
        y = one_hot(ds.labels[start : start + batch_size], ds.num_classes)
        loss, _ = cross_entropy(net.predict(x), y)
        total += loss * x.shape[0]
        n += x.shape[0]
    return total / n


def probe_layer_losses(net, val_set, aug, positions, rng, batch_size=256):
    """Validation loss of the current snapshot with ``aug`` applied at each position.

    Pure read: parameters are untouched (forward only, gradients never taken).
    """
    losses = []
    for pos in positions:
        total, n = 0.0, 0
        for start in range(0, len(val_set), batch_size):
            x = val_set.images[start : start + batch_size]
            y = one_hot(val_set.labels[start : start + batch_size], val_set.num_classes)
            _, loss, _ = net.forward_with_tap(x, y, tap=pos, aug=aug, rng=rng)
            total += loss * x.shape[0]
            n += x.shape[0]
        losses.append(total / n)
    net._forward_ready = False
    return losses


def adalase_iteration(net, train_batch, pseudo_batch, ratios, opt, cfg,
                      pos_rng, aug_rng):
    """One adaptive-selection step; returns (train_loss, selected position, dot).

    Both gradients are evaluated at the pre-step weights. The weight update
    happens last, so any propagated error leaves all state unchanged.
    """
    x, labels = train_batch
    g_da = None
    pseudo_loss = None
    if pseudo_batch is not None:
        px, plabels = pseudo_batch
        _, pseudo_loss, _ = net.forward_with_tap(px, plabels)
        g_da = net.backward()
    l = sample_position(ratios, pos_rng)
    _, loss, _ = net.forward_with_tap(x, labels, tap=l, aug=cfg.train_aug, rng=aug_rng)
    g_train = net.backward()
    dot = None
    if g_da is not None:
        dot = grad_dot(g_da, g_train)
        if cfg.adalase.dot_normalization == "cosine":
            dot /= float(np.linalg.norm(g_da) * np.linalg.norm(g_train) + 1e-12)
    opt.current_lr = cosine_lr(opt.t, opt.total_steps, opt.base_lr)
    sgd_momentum_step(net, g_train, opt)
    opt.t += 1
    return loss, pseudo_loss, l, dot


def train(net, splits, cfg, train_seed=None):
    """Run the full loop; deterministic given (seed, config, data)."""
    train_set = splits.train
    if len(train_set) == 0:
        raise ConfigError("training dataset is empty")
    if len(splits.test) == 0:
        raise ConfigError("test dataset is empty")
    seed = cfg.seed if train_seed is None else train_seed
    num_classes = train_set.num_classes
    iters_per_epoch = math.ceil(len(train_set) / cfg.batch_size)
    total_steps = cfg.epochs * iters_per_epoch
    k = net.num_taps
    adaptive = cfg.schedule.shape == "adaptive"
    d = cfg.adalase.d_scale / k
    if adaptive:
        ratios = init_ratios(k, cfg.adalase.d_scale)
    else:
        ratios = AcceptanceRatios(q=schedule_ratios(cfg.schedule, k), d=d)

    opt = OptimizerState(velocity=np.zeros(net.num_params()), momentum=cfg.momentum,
                         base_lr=cfg.base_lr, current_lr=cfg.base_lr,
                         total_steps=total_steps)
    pos_rng = np.random.default_rng([seed, _POS])
    aug_rng = np.random.default_rng([seed, _AUG])
    pseudo_rng = np.random.default_rng([seed, _PSEUDO])
    uniform_rng = np.random.default_rng([seed, _UNIFORM])

    val_source = splits.val if splits.val is not None else splits.test
    audit = SelectionAudit()
    buffer = []
    report = []
    ratio_history = [tuple(ratios.q)]

    for epoch in range(cfg.epochs):
        losses, pseudo_losses = [], []
        for bx, by in batch_iter(train_set, cfg.batch_size, seed, epoch):
            labels = one_hot(by, num_classes)
            pseudo_batch = None
            if adaptive:
                if cfg.val_mode == "true":
                    idx = pseudo_rng.choice(len(val_source),
                                            size=min(cfg.batch_size, len(val_source)),
                                            replace=False)
                    pseudo_batch = (val_source.images[idx],
                                    one_hot(val_source.labels[idx], num_classes))
                else:
                    pseudo_batch = pseudo_val_batch(train_set, cfg.batch_size,
                                                    cfg.pseudo_val_aug, pseudo_rng)
            loss, ploss, l, dot = adalase_iteration(
                net, (bx, labels), pseudo_batch, ratios, opt, cfg, pos_rng, aug_rng)
            losses.append(loss)
            if ploss is not None:
                pseudo_losses.append(ploss)
            audit.selected.append(l)
            audit.uniform_selected.append(int(uniform_rng.integers(0, k)))
            audit.epoch_of_iter.append(epoch)
            if adaptive and cfg.ratio_updates and dot is not None:
                buffer.append((l, dot))
                if cfg.update_cadence == "window" and len(buffer) >= cfg.adalase.avg_window:
                    ratios = averaged_update(ratios, buffer, cfg.adalase)
                    buffer = []
        if adaptive and cfg.ratio_updates and cfg.update_cadence == "epoch" and buffer:
            ratios = averaged_update(ratios, buffer, cfg.adalase)
            buffer = []

        probe = None
        if cfg.probe:
            probe_rng = np.random.default_rng([seed, _PROBE, epoch])
            probe = probe_layer_losses(net, val_source, cfg.train_aug,
                                       range(k), probe_rng,
                                       batch_size=cfg.eval_batch_size)
            audit.worst_by_epoch.append(int(np.argmax(probe)))
        val_loss = dataset_loss(net, splits.val, cfg.eval_batch_size) if splits.val is not None else None
        record = EpochRecord(
            epoch=epoch,
            lr=cosine_lr(opt.t, total_steps, cfg.base_lr),
            train_loss=float(np.mean(losses)),
            pseudo_loss=float(np.mean(pseudo_losses)) if pseudo_losses else None,
            val_loss=val_loss,
            test_acc=evaluate(net, splits.test, cfg.eval_batch_size),
            q=tuple(ratios.q),
            probe_losses=tuple(probe) if probe is not None else None,
        )
        report.append(record)
        ratio_history.append(tuple(ratios.q))

    return TrainResult(report=report, ratio_history=ratio_history, audit=audit,
                       final_ratios=ratios)


def audit_worst_layer(audit):
    """Selection-quality coordinates for one run.

    x = (n_ada - n_uni) / n_all, where n_ada / n_uni count how often the
    adaptive path / a paired uniform draw hit the probed worst position of
    the iteration's epoch. y = spread of worst-position tallies / n_all
    (|n_p0 - n_p1| when there are two positions).
    """
    if not audit.worst_by_epoch:
        raise AuditError("no probe data recorded; enable probing to audit selections")
    if audit.n_all == 0:
        raise AuditError("no iterations recorded")
    n_ada = n_uni = 0
    tallies = {}
    for sel, uni, epoch in zip(audit.selected, audit.uniform_selected, audit.epoch_of_iter):
        worst = audit.worst_by_epoch[epoch]
        tallies[worst] = tallies.get(worst, 0) + 1
        if sel == worst:
            n_ada += 1
        if uni == worst:
            n_uni += 1
    counts = list(tallies.values())
    spread = max(counts) - (min(counts) if len(tallies) > 1 else 0)
    x = (n_ada - n_uni) / audit.n_all
    y = abs(spread) / audit.n_all
    return x, y
