"""Training loop with adaptive augmentation-position selection.

Each iteration (adaptive mode): compute the pseudo-validation gradient at the
current weights, sample a tap position from the acceptance ratios, take a
momentum-SGD step on the tap-augmented training loss, and buffer the inner
product of the two gradients. A full buffer is flushed into one averaged ratio
update: ``adalase.avg_window`` entries, or one epoch's iterations when it is 0
(the default). Cosine annealing drives the learning rate. Separate seeded rng
streams back position sampling, augmentation, pseudo-validation draws, the
uniform audit counterfactual, and probing, so enabling one feature never
perturbs another.
"""

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .augment import INPUT_ONLY_KINDS, MIXING_KINDS, AugSpec
from .data import batch_iter, pseudo_val_batch
from .engine.losses import cross_entropy, grad_dot, one_hot
from .errors import AuditError, ConfigError, NonFiniteError
from .ratios import (AcceptanceRatios, AdaLaseConfig, RatioSchedule,
                     averaged_update, init_ratios, sample_position,
                     schedule_ratios)

# rng stream tags; fixed so adding features never reshuffles existing streams
_POS, _AUG, _PSEUDO, _UNIFORM, _PROBE = 1, 2, 3, 4, 5

log = logging.getLogger(__name__)


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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", field="seed")
        if self.eval_batch_size < 1:
            raise ConfigError("eval_batch_size must be >= 1", field="eval_batch_size")
        if self.batch_size < 2 and self.train_aug.kind in MIXING_KINDS:
            raise ConfigError("batch_size must be >= 2 for mixing augmentations",
                              field="batch_size")
        input_only_ok = (self.schedule.shape == "fixed" and self.schedule.fixed_index == 0
                         and not self.probe)
        if self.train_aug.kind in INPUT_ONLY_KINDS and not input_only_ok:
            # any other schedule, or a probe, applies train_aug at a hidden position
            raise ConfigError(f"{self.train_aug.kind} is input-only; it needs schedule "
                              "'fixed' with fixed_index 0 and no probe", field="train_aug")
        if self.pseudo_val_aug.kind in MIXING_KINDS:
            raise ConfigError(f"pseudo-validation augmentation must be input-space, "
                              f"got {self.pseudo_val_aug.kind!r}", field="pseudo_val_aug")
        if self.val_mode not in ("pseudo", "true"):
            raise ConfigError("val_mode must be 'pseudo' or 'true'", field="val_mode")


def check_sample_counts(cfg, n_train, n_probe):
    """Reject a config that ``n_train`` training samples cannot serve.

    The run has ``epochs`` times ceil(n_train / batch_size) iterations, and an
    ``adalase.avg_window`` longer than that never fills, so the ratios would
    never move (a trailing partial window is dropped). A mixing ``train_aug``
    cannot mix a one-sample batch: ``n_train`` samples go in batches of
    ``batch_size`` and, with ``probe``, the ``n_probe`` validation-source
    samples in batches of ``eval_batch_size``. The last of n samples in
    batches of b is alone when n = 1 (mod b).
    """
    total = cfg.epochs * math.ceil(n_train / cfg.batch_size)
    if cfg.adalase.avg_window > total:
        raise ConfigError(f"avg_window {cfg.adalase.avg_window} exceeds the run's {total} "
                          "iterations, so the ratios would never update",
                          field="train.adalase.avg_window")
    if cfg.train_aug.kind not in MIXING_KINDS:
        return
    for name, what, n, size, used in (
            ("batch_size", "training", n_train, cfg.batch_size, True),
            ("eval_batch_size", "probe", n_probe, cfg.eval_batch_size, cfg.probe)):
        if used and n > 0 and (n - 1) % size == 0:
            raise ConfigError(f"{n} {what} samples in batches of {size} leave a batch of "
                              f"one, which {cfg.train_aug.kind} cannot mix",
                              field=f"train.{name}")


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
    worst_by_epoch: list = field(default_factory=list)

    @property
    def n_all(self):
        return len(self.selected)


@dataclass
class TrainResult:
    report: list
    audit: SelectionAudit
    final_ratios: AcceptanceRatios


@dataclass
class CleanBatch:
    """One batch of a clean forward: its one-hot labels and logits, and, for
    the probes, the map that enters each tap (the input batch at tap 0), all
    read-only."""
    labels: np.ndarray
    logits: np.ndarray
    taps: Optional[list]


def clean_pass(net, ds, batch_size=256, taps=False):
    """One forward over ``ds`` in batches of ``batch_size``, keeping nothing for
    backward; returns a ``CleanBatch`` per batch, with its tap maps if ``taps``.

    ``evaluate``, ``dataset_loss`` and ``probe_layer_losses`` read ``ds``
    through it and make no forward of their own.
    """
    batches = []
    for start in range(0, len(ds), batch_size):
        labels = one_hot(ds.labels[start : start + batch_size], ds.num_classes, net.theta.dtype)
        x = ds.images[start : start + batch_size]
        logits, maps = net.predict(x, taps=True) if taps else (net.predict(x), None)
        labels.flags.writeable = logits.flags.writeable = False
        batches.append(CleanBatch(labels, logits, maps))
    return batches


def evaluate(clean):
    """Argmax accuracy over ``clean``, a ``clean_pass``; ties resolve to the
    lowest class index."""
    correct = total = 0
    for batch in clean:
        correct += int((batch.logits.argmax(axis=1) == batch.labels.argmax(axis=1)).sum())
        total += len(batch.labels)
    return correct / total


def dataset_loss(clean, net=None, tap=None, aug=None, rng=None):
    """Mean loss over ``clean``, a ``clean_pass``, weighted by batch size.

    Without ``tap`` it is the loss of the cached logits. With ``tap`` each
    batch resumes ``net`` at that tap from its cached map, with ``aug``
    applied there. Pure read: parameters are untouched and layers keep
    nothing for backward.
    """
    total = 0.0
    for batch in clean:
        if tap is None:
            loss, _ = cross_entropy(batch.logits, batch.labels)
        else:
            _, loss, _ = net.forward_with_tap(batch.taps[tap], batch.labels, tap=tap,
                                              aug=aug, rng=rng, resume=True)
        total += loss * len(batch.labels)
    return total / sum(len(batch.labels) for batch in clean)


def probe_layer_losses(net, clean, aug, positions, rng):
    """Loss of the current snapshot over ``clean``, a ``clean_pass`` that kept
    its tap maps, with ``aug`` applied at each position."""
    return [dataset_loss(clean, net, tap=pos, aug=aug, rng=rng) for pos in positions]


def adalase_iteration(net, train_batch, pseudo_batch, ratios, opt, cfg,
                      pos_rng, aug_rng):
    """One adaptive-selection step; returns (train_loss, pseudo_loss, position, dot).

    Both gradients are evaluated at the pre-step weights. The weight update
    happens last, so any propagated error leaves all state unchanged; a NaN or
    infinite loss or gradient raises ``NonFiniteError`` naming the position.
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
    for what, finite in (
            ("pseudo-validation loss", pseudo_loss is None or math.isfinite(pseudo_loss)),
            ("training loss", math.isfinite(loss))):
        if not finite:
            raise NonFiniteError(what, l)
    dot = None if g_da is None else grad_dot(g_da, g_train)
    if dot is None or not math.isfinite(dot):
        # a NaN or inf entry in either gradient makes the dot NaN or inf, so a
        # finite dot clears both; an inf dot of finite gradients is buffered
        for what, g in (("pseudo-validation gradient", g_da), ("training gradient", g_train)):
            if g is not None and not np.isfinite(g).all():
                raise NonFiniteError(what, l)
    if dot is not None and cfg.adalase.dot_normalization == "cosine":
        # the 2-norm as np.linalg.norm computes it for a 1-D float array
        norms = np.sqrt(g_da.dot(g_da)) * np.sqrt(g_train.dot(g_train))
        dot /= float(norms + 1e-12)
    opt.current_lr = cosine_lr(opt.t, opt.total_steps, opt.base_lr)
    sgd_momentum_step(net, g_train, opt)
    opt.t += 1
    return loss, pseudo_loss, l, dot


def train(net, splits, cfg, train_seed=None):
    """Run the full loop; deterministic given (seed, config, data).

    Each split's images are cast to ``net.theta``'s dtype once per run, into
    new datasets (none is copied that has it already; ``splits`` is left as
    it is), and every one-hot label matrix is built in that dtype, so no pass
    converts its batch.
    """
    dtype = net.theta.dtype
    train_set, test_set, val_set = (
        ds if ds is None else replace(ds, images=ds.images.astype(dtype, copy=False))
        for ds in (splits.train, splits.test, splits.val))
    if len(train_set) == 0:
        raise ConfigError("training dataset is empty")
    if len(test_set) == 0:
        raise ConfigError("test dataset is empty")
    counts = {ds.num_classes for ds in (train_set, test_set, val_set) if ds is not None}
    if len(counts) > 1:
        raise ConfigError(f"splits disagree on the class count: {sorted(counts)}")
    val_source = val_set if val_set is not None else test_set
    check_sample_counts(cfg, len(train_set), len(val_source))
    seed = cfg.seed if train_seed is None else train_seed
    num_classes = train_set.num_classes
    iters_per_epoch = math.ceil(len(train_set) / cfg.batch_size)
    total_steps = cfg.epochs * iters_per_epoch
    k = net.num_taps
    adaptive = cfg.schedule.shape == "adaptive"
    if adaptive:
        ratios = init_ratios(k, cfg.adalase.d_scale)
    else:
        ratios = AcceptanceRatios(q=schedule_ratios(cfg.schedule, k), d=cfg.adalase.d_scale / k)

    opt = OptimizerState(velocity=np.zeros_like(net.theta), momentum=cfg.momentum,
                         base_lr=cfg.base_lr, current_lr=cfg.base_lr,
                         total_steps=total_steps)
    pos_rng = np.random.default_rng([seed, _POS])
    aug_rng = np.random.default_rng([seed, _AUG])
    pseudo_rng = np.random.default_rng([seed, _PSEUDO])

    if val_set is None and ((adaptive and cfg.val_mode == "true") or cfg.probe):
        log.warning("no validation split: val_mode 'true' batches and probes use the test split")
    pseudo_source, pseudo_aug = ((val_source, AugSpec(kind="none")) if cfg.val_mode == "true"
                                 else (train_set, cfg.pseudo_val_aug))
    window = cfg.adalase.avg_window or iters_per_epoch
    # the uniform counterfactual in one call: the same draws, one per iteration
    uniform = np.random.default_rng([seed, _UNIFORM]).integers(0, k, size=total_steps)
    audit = SelectionAudit(uniform_selected=uniform.tolist())
    buffer = []
    report = []

    for epoch in range(cfg.epochs):
        losses, pseudo_losses = [], []
        for it, (bx, by) in enumerate(batch_iter(train_set, cfg.batch_size, seed, epoch)):
            labels = one_hot(by, num_classes, dtype)
            pseudo_batch = (pseudo_val_batch(pseudo_source, cfg.batch_size, pseudo_aug,
                                             pseudo_rng) if adaptive else None)
            try:
                loss, ploss, l, dot = adalase_iteration(
                    net, (bx, labels), pseudo_batch, ratios, opt, cfg, pos_rng, aug_rng)
            except NonFiniteError as exc:
                raise NonFiniteError(exc.what, exc.position, epoch, it) from None
            losses.append(loss)
            if ploss is not None:
                pseudo_losses.append(ploss)
            audit.selected.append(l)
            if adaptive:
                buffer.append((l, dot))
                if len(buffer) >= window:
                    ratios = averaged_update(ratios, buffer, cfg.adalase)
                    buffer = []

        # one clean pass per split read: the validation source's serves the
        # probes and val_loss, and test_acc too when it is the test split.
        # No pass outlives the epoch end: kept through the next epoch, they
        # slowed cnn-adaptive's training iterations by 1-2%.
        val_pass = clean_pass(net, val_source, cfg.eval_batch_size, taps=cfg.probe)
        probe = None
        if cfg.probe:
            probe_rng = np.random.default_rng([seed, _PROBE, epoch])
            probe = probe_layer_losses(net, val_pass, cfg.train_aug, range(k), probe_rng)
            audit.worst_by_epoch.append(int(np.argmax(probe)))
        val_loss = dataset_loss(val_pass) if val_set is not None else None
        test_acc = evaluate(val_pass if val_set is None
                            else clean_pass(net, test_set, cfg.eval_batch_size))
        del val_pass
        record = EpochRecord(
            epoch=epoch,
            lr=cosine_lr(opt.t, total_steps, cfg.base_lr),
            train_loss=float(np.mean(losses)),
            pseudo_loss=float(np.mean(pseudo_losses)) if pseudo_losses else None,
            val_loss=val_loss,
            test_acc=test_acc,
            q=tuple(ratios.q),
            probe_losses=tuple(probe) if probe is not None else None,
        )
        report.append(record)

    return TrainResult(report=report, audit=audit, final_ratios=ratios)


def audit_worst_layer(audit):
    """Selection-quality coordinates for one run.

    x = (n_ada - n_uni) / n_all, where n_ada / n_uni count how often the
    adaptive path / a paired uniform draw hit the probed worst position of
    the iteration's epoch (every epoch has the same number of iterations).
    y = spread of worst-position tallies / n_all (|n_p0 - n_p1| when there
    are two positions).
    """
    if not audit.worst_by_epoch:
        raise AuditError("no probe data recorded; enable probing to audit selections")
    if audit.n_all == 0:
        raise AuditError("no iterations recorded")
    n_ada = n_uni = 0
    tallies = {}
    for i, (sel, uni) in enumerate(zip(audit.selected, audit.uniform_selected)):
        worst = audit.worst_by_epoch[i * len(audit.worst_by_epoch) // audit.n_all]
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
