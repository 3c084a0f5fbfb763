"""Acceptance suite: one check per shipped guarantee, one verdict line each.

Each test prints a single PASS/FAIL line (straight to the terminal, bypassing
capture) so the suite doubles as a checklist.
"""

import json
import time

import numpy as np
import pytest

from adalase import config as cfgmod
from adalase.augment import AugSpec, apply_at_position, cutout, mixup, cutmix
from adalase.data import gen_synthetic, split_dataset
from adalase.engine.builders import build_mlp, build_tiny_cnn
from adalase.engine.losses import grad_dot, one_hot
from adalase.engine.network import finite_diff_grad
from adalase.ratios import (AcceptanceRatios, AdaLaseConfig, RatioSchedule,
                            adalase_update, init_ratios)
from adalase.trainer import Splits, TrainConfig, audit_worst_layer, train
from conftest import tiny_cnn, tiny_mlp


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _preset_run(cfg, seed):
    splits = cfgmod.make_splits(cfg)
    net = cfgmod.make_network(cfg, splits, seed=seed)
    return train(net, splits, cfgmod.make_train_config(cfg), train_seed=seed), splits


# 1 -----------------------------------------------------------------------------

def test_acceptance_gradient_correctness(capsys):
    """Backward pass vs central differences on 20 random tiny networks."""
    start = time.perf_counter()
    augs = [None,
            AugSpec(kind="cutout", mask_fraction=0.5),
            AugSpec(kind="translation", shift_fraction_max=0.3),
            AugSpec(kind="mixup", alpha=1.0),
            AugSpec(kind="cutmix", alpha=1.0)]
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng([trial, 1000])
        if trial % 2 == 0:
            net = tiny_mlp(trial, side=4, hidden=4)
            x = rng.normal(size=(4, 1, 4, 4))
        else:
            net = tiny_cnn(trial, side=6, width=2)
            x = rng.normal(size=(3, 1, 6, 6))
        assert net.num_params() <= 10_000
        labels = one_hot(rng.integers(0, 2, size=x.shape[0]), 2)
        aug = augs[trial % len(augs)]
        tap = None if aug is None else int(rng.integers(0, net.num_taps))
        seed = 5000 + trial
        net.forward_with_tap(x, labels, tap=tap, aug=aug,
                             rng=np.random.default_rng(seed))
        g = net.backward()
        g_fd = finite_diff_grad(net, x, labels, tap=tap, aug=aug, rng_seed=seed)
        rel = np.abs(g - g_fd).max() / (np.abs(g_fd).max() + 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 120
    report(capsys, "gradient correctness", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


# 2 -----------------------------------------------------------------------------

def test_acceptance_inner_product_oracle(capsys):
    """The ratio-update dot equals a naive-loop inner product on 100 pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    pairs = []
    for _ in range(95):
        n = int(rng.integers(100, 2000))
        pairs.append((rng.normal(size=n), rng.normal(size=n)))
    for trial in range(5):  # plus gradients from real backward passes
        net = tiny_mlp(trial)
        x = rng.normal(size=(4, 1, 4, 4))
        labels = one_hot(rng.integers(0, 2, size=4), 2)
        net.forward_with_tap(x, labels)
        ga = net.backward()
        net.forward_with_tap(rng.normal(size=(4, 1, 4, 4)), labels)
        pairs.append((ga, net.backward()))
    for a, b in pairs:
        naive = 0.0
        for u, v in zip(a.tolist(), b.tolist()):
            naive += u * v
        rel = abs(grad_dot(a, b) - naive) / max(abs(naive), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10
    report(capsys, "inner-product oracle", ok,
           f"100 pairs, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


# 3 -----------------------------------------------------------------------------

def test_acceptance_hypergradient_sign(capsys):
    """On quadratic models with identity curvature, the ratio update moves each
    position in the direction that lowers the validation loss after one step."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    k, n, lr, delta = 3, 8, 0.01, 1e-5
    cfg = AdaLaseConfig(eta=1e-3)
    agree = total = 0
    for _ in range(100):
        theta = rng.normal(size=n)
        b = rng.normal(size=n)
        anchors = rng.normal(size=(k, n))
        l = int(rng.integers(0, k))
        q = np.full(k, 1.0 / k)
        # the same inner product the training loop feeds to the update
        dot = grad_dot(theta - b, theta - anchors[l])
        out = adalase_update(AcceptanceRatios(q=q.copy(), d=0.1 / k), l, dot, cfg)
        update_sign = np.sign(out.q[l] - q[l])

        def val_after_step(ql):
            weights = q.copy()
            weights[l] = ql
            step = sum(w * (theta - a) for w, a in zip(weights, anchors))
            theta_next = theta - lr * step
            return 0.5 * float(((theta_next - b) ** 2).sum())

        hyper = -(val_after_step(q[l] + delta) - val_after_step(q[l] - delta)) / (2 * delta)
        if update_sign == 0 or abs(hyper) < 1e-12:
            continue
        total += 1
        agree += int(update_sign == np.sign(hyper))
    elapsed = time.perf_counter() - start
    frac = agree / max(total, 1)
    ok = total >= 90 and frac >= 0.95 and elapsed < 120
    report(capsys, "one-step hypergradient sign", ok,
           f"{agree}/{total} agree, {elapsed:.1f}s")
    assert ok


# 4 -----------------------------------------------------------------------------

def test_acceptance_final_ratio_tracks_better_position(capsys):
    """Two-tap MLP with cutout: in most runs the final ratio favors the
    position whose epoch-averaged probe loss is lower."""
    start = time.perf_counter()
    cfg = cfgmod.load_config("mlp-fig3")
    assert cfg["train"]["val_mode"] == "true" and cfg["train"]["probe"]
    wins = 0
    runs = 20
    for seed in range(runs):
        result, _ = _preset_run(cfg, seed)
        mean_probe = np.mean([r.probe_losses for r in result.report], axis=0)
        better = int(np.argmin(mean_probe))
        if result.final_ratios.q[better] > 0.5:
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins / runs >= 0.7 and elapsed < 1800
    report(capsys, "final ratio favors lower-loss position", ok,
           f"{wins}/{runs} runs, {elapsed:.1f}s")
    assert ok


# 5 -----------------------------------------------------------------------------

def test_acceptance_worst_layer_selected_less_than_uniform(capsys):
    """Adaptive selection hits the probed worst position no more often than a
    paired uniform draw, averaged over 10 seeded runs."""
    start = time.perf_counter()
    cfg = cfgmod.load_config("mlp-fig5")
    xs = []
    for seed in range(10):
        result, _ = _preset_run(cfg, seed)
        x, _ = audit_worst_layer(result.audit)
        xs.append(x)
    mean_x = float(np.mean(xs))
    elapsed = time.perf_counter() - start
    ok = mean_x <= 0.0 and elapsed < 1800
    report(capsys, "worst-layer avoidance", ok,
           f"mean x {mean_x:+.3f} over 10 runs, {elapsed:.1f}s")
    assert ok


# 6 -----------------------------------------------------------------------------

def test_acceptance_lower_limit_does_not_change_ranking(capsys):
    """Final position ranking is stable across the lower-limit sweep."""
    start = time.perf_counter()
    base = cfgmod.load_config("sweep-kd")
    kds = (0.1, 0.2, 0.3, 0.4, 0.5)
    same = total = 0
    for seed in range(10):
        rankings = []
        for kd in kds:
            cfg = json.loads(json.dumps(base))
            cfg["train"]["adalase"]["d_scale"] = kd
            result, _ = _preset_run(cfg, seed)
            rankings.append(tuple(np.argsort(result.final_ratios.q)))
        for i in range(len(kds)):
            for j in range(i + 1, len(kds)):
                total += 1
                same += int(rankings[i] == rankings[j])
    elapsed = time.perf_counter() - start
    ok = same / total >= 0.7 and elapsed < 1800
    report(capsys, "lower-limit ranking stability", ok,
           f"{same}/{total} shared-seed pairs agree, {elapsed:.1f}s")
    assert ok


# 7 -----------------------------------------------------------------------------

def test_acceptance_simplex_invariant_fuzz(capsys):
    """One million ratio updates with adversarial dot magnitudes never leave
    the bounded simplex, in under a minute."""
    import logging
    logging.getLogger("adalase.ratios").setLevel(logging.ERROR)
    rng = np.random.default_rng(7)
    n = 1_000_000
    k = 6
    cfg = AdaLaseConfig(eta=1.0)
    mags = 10.0 ** rng.uniform(-3, 308, size=n)
    dots = np.where(rng.random(n) < 0.5, mags, -mags)
    nan_at = rng.choice(n, size=1000, replace=False)
    dots[nan_at] = np.nan
    positions = rng.integers(0, k, size=n)
    state = init_ratios(k)
    start = time.perf_counter()
    violations = 0
    tol = 1e-9
    for i in range(n):
        state = adalase_update(state, int(positions[i]), float(dots[i]), cfg)
        q = state.q
        if (abs(q.sum() - 1.0) > tol or q.min() < state.d - tol
                or q.max() > 1.0 - state.d + tol):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60
    report(capsys, "simplex invariant fuzz", ok,
           f"10^6 updates, {violations} violations, {elapsed:.1f}s")
    assert ok


# 8 -----------------------------------------------------------------------------

def test_acceptance_uniform_schedule_equivalence(capsys):
    """A uniform schedule and the adaptive path with frozen ratios produce
    bitwise-identical weights from the same seed."""
    start = time.perf_counter()
    full = gen_synthetic("striped_patches", 120, seed=0, side=4, noise=0.1)
    tr, _, te = split_dataset(full, 80, 0, 40, seed=0)
    splits = Splits(train=tr, test=te)

    def run(schedule_shape, ratio_updates):
        net = tiny_mlp(30)
        cfg = TrainConfig(epochs=3, batch_size=16, base_lr=0.05, momentum=0.9,
                          seed=0, schedule=RatioSchedule(shape=schedule_shape),
                          train_aug=AugSpec(kind="cutout", mask_fraction=0.5),
                          ratio_updates=ratio_updates)
        result = train(net, splits, cfg)
        return net.param_vector(), result

    theta_uniform, res_u = run("uniform", ratio_updates=True)
    theta_frozen, res_f = run("adaptive", ratio_updates=False)
    identical = (np.array_equal(theta_uniform, theta_frozen)
                 and [r.train_loss for r in res_u.report]
                 == [r.train_loss for r in res_f.report]
                 and res_u.audit.selected == res_f.audit.selected)
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 300
    report(capsys, "uniform-schedule equivalence", ok,
           f"bitwise identical: {identical}, {elapsed:.1f}s")
    assert ok


# 9 -----------------------------------------------------------------------------

def test_acceptance_kernel_property_suite(capsys):
    """Channel-sharing, label convexity, degenerate identity, and exact zero
    counts hold across 1000 random cases each."""
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    failures = []

    for _ in range(1000):  # channel-sharing
        b, c = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        side = int(rng.integers(4, 9))
        x = rng.normal(size=(b, c, side, side)) + 10.0  # keep pixels nonzero
        out = cutout(x, 0.5, rng)
        changed = out != x
        if not all(np.array_equal(changed[s, 0], changed[s, ch])
                   for s in range(b) for ch in range(1, c)):
            failures.append("channel-sharing")
            break

    for _ in range(1000):  # label convexity
        b = int(rng.integers(2, 7))
        x = rng.normal(size=(b, 1, 4, 4))
        labels = one_hot(rng.integers(0, 3, size=b), 3)
        kind = ("mixup", "cutmix")[int(rng.integers(0, 2))]
        out = apply_at_position(AugSpec(kind=kind, alpha=1.0), x, labels, rng)
        if not (np.all(out.labels >= -1e-12)
                and np.allclose(out.labels.sum(axis=1), 1.0, atol=1e-6)
                and 0.0 <= out.lam <= 1.0):
            failures.append("label convexity")
            break

    for _ in range(1000):  # degenerate parameters are identities
        b = int(rng.integers(2, 5))
        side = int(rng.integers(3, 7))
        x = rng.normal(size=(b, 1, side, side))
        labels = one_hot(rng.integers(0, 2, size=b), 2)
        cases = (
            cutout(x, 0.0, rng),
            mixup(x, labels, 1.0, rng, lam=1.0).tensor,
            cutmix(x, labels, 1.0, rng, lam=1.0).tensor,
            apply_at_position(AugSpec(kind="translation", shift_fraction_max=0.0),
                              x, labels, rng).tensor,
        )
        if not all(np.array_equal(case, x) for case in cases):
            failures.append("degenerate identity")
            break

    for _ in range(1000):  # exact zero count
        side = int(rng.integers(2, 10))
        frac = float(rng.random())
        mask_side = int(round(frac * side))
        out = cutout(np.ones((1, 1, side, side)), frac, rng)
        if (out == 0).sum() != mask_side * mask_side:
            failures.append("zero count")
            break

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    report(capsys, "kernel property suite", ok,
           f"4x1000 cases, failures: {failures or 'none'}, {elapsed:.1f}s")
    assert ok


# 10 ----------------------------------------------------------------------------

def test_acceptance_adaptive_matches_uniform_accuracy(capsys):
    """Adaptive selection stays within 2 accuracy points of the uniform
    schedule on the small residual CNN, averaged over 5 seeds. A miss is
    reported for investigation rather than failed outright."""
    start = time.perf_counter()
    means = {}
    for preset in ("cnn-uniform", "cnn-adalase"):
        cfg = cfgmod.load_config(preset)
        accs = []
        for seed in range(5):
            result, _ = _preset_run(cfg, seed)
            accs.append(result.report[-1].test_acc)
        means[preset] = float(np.mean(accs))
    gap = means["cnn-adalase"] - means["cnn-uniform"]
    elapsed = time.perf_counter() - start
    ok = abs(gap) <= 0.02 and elapsed < 3600
    report(capsys, "adaptive vs uniform accuracy", ok,
           f"uniform {means['cnn-uniform']:.4f}, adaptive {means['cnn-adalase']:.4f}, "
           f"gap {gap:+.4f}, {elapsed:.1f}s")
    if not ok:
        with capsys.disabled():
            print("[acceptance] investigation: adaptive/uniform accuracy gap "
                  f"{gap:+.4f} exceeds 0.02; inspect per-seed metrics and the "
                  "ratio trajectories before treating this as a regression")
    assert elapsed < 3600


# 11 ----------------------------------------------------------------------------

def _float64_twin(cfg, splits, seed):
    """The network ``make_network`` builds for ``cfg``, in float64."""
    mdl, shape, classes = cfg["model"], splits.train.input_shape, splits.train.num_classes
    if mdl["kind"] == "mlp":
        return build_mlp(shape, mdl["hidden"], classes, seed, dtype=np.float64)
    return build_tiny_cnn(shape, classes, seed, width=mdl["width"], dtype=np.float64)


def test_acceptance_float32_matches_float64(capsys):
    """Config-built networks compute in float32. On mlp-fig3 and on a smaller
    copy of cnn-adalase, over 8 seeds each, float32 ends within 0.02 of
    float64's final test accuracy on average, and within 0.05 max-abs of its
    final q on every seed."""
    start = time.perf_counter()
    small_cnn = cfgmod.load_config("cnn-adalase")
    small_cnn["dataset"].update(train_count=500, test_count=100)
    small_cnn["train"]["epochs"] = 3
    details, ok = [], True
    for name, cfg in (("mlp-fig3", cfgmod.load_config("mlp-fig3")), ("cnn-adalase", small_cnn)):
        splits = cfgmod.make_splits(cfg)
        train_cfg = cfgmod.make_train_config(cfg)
        acc_gaps, q_gaps = [], []
        for seed in range(8):
            finals = []
            for net in (cfgmod.make_network(cfg, splits, seed=seed),
                        _float64_twin(cfg, splits, seed)):
                result = train(net, splits, train_cfg, train_seed=seed)
                finals.append((net.theta.dtype, result.report[-1].test_acc,
                               np.array(result.final_ratios.q)))
            (dt32, acc32, q32), (dt64, acc64, q64) = finals
            assert (dt32, dt64) == (np.float32, np.float64)
            acc_gaps.append(acc32 - acc64)
            q_gaps.append(float(np.abs(q32 - q64).max()))
        mean_gap = float(np.mean(acc_gaps))
        ok = ok and abs(mean_gap) <= 0.02 and max(q_gaps) <= 0.05
        details.append(f"{name}: mean acc gap {mean_gap:+.4f}, max final-q gap "
                       f"{max(q_gaps):.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600
    report(capsys, "float32 parity", ok, f"{'; '.join(details)}, 8 seeds each, {elapsed:.1f}s")
    assert ok
