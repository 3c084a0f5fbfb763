"""Engine tests: layers, losses, network plumbing, gradients, checkpoints."""

import math
import os

import numpy as np
import pytest

from adalase.augment import AugSpec
from adalase.engine.builders import build_mlp, build_tiny_cnn
from adalase.engine.checkpoint import load_weights, save_weights
from adalase.engine.layers import Conv2d, Dense, MaxPool2x2, ReLU
from adalase.engine.losses import check_soft_labels, cross_entropy, grad_dot, one_hot
from adalase.engine.network import Network, finite_diff_grad
from adalase.errors import (DataFormatError, ShapeError, StateError,
                            TapRangeError, ValidationError)
from conftest import perturb_params, tiny_cnn, tiny_mlp


# ---- losses -----------------------------------------------------------------

def test_cross_entropy_equal_logits_gives_log_num_classes():
    for c in (2, 5, 10):
        logits = np.zeros((3, c))
        labels = one_hot(np.zeros(3, dtype=int), c)
        loss, _ = cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(c), rel=1e-12)


def test_cross_entropy_confident_correct_beats_uniform():
    logits = np.array([[4.0, 0.0, 0.0]])
    labels = one_hot([0], 3)
    loss, _ = cross_entropy(logits, labels)
    assert loss < math.log(3)


def test_cross_entropy_soft_label_closed_form():
    loss, _ = cross_entropy(np.array([[0.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert loss == pytest.approx(math.log(2), rel=1e-12)


def test_cross_entropy_gradient_matches_softmax_minus_labels():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 5))
    labels = one_hot(rng.integers(0, 5, size=4), 5)
    _, dlogits = cross_entropy(logits, labels)
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    assert np.allclose(dlogits, (probs - labels) / 4, atol=1e-12)


def test_cross_entropy_large_logits_stay_finite():
    loss, dlogits = cross_entropy(np.array([[1e4, -1e4]]), np.array([[1.0, 0.0]]))
    assert np.isfinite(loss) and np.all(np.isfinite(dlogits))


def test_soft_labels_must_normalize():
    with pytest.raises(ValidationError):
        check_soft_labels(np.array([[0.7, 0.7]]))
    checked = check_soft_labels(np.array([[0.5, 0.5]]))
    assert checked.shape == (1, 2)


def test_grad_dot_small_example():
    assert grad_dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_grad_dot_self_product_nonnegative(rng):
    g = rng.normal(size=257)
    assert grad_dot(g, g) >= 0.0


def test_grad_dot_length_mismatch():
    with pytest.raises(ShapeError):
        grad_dot(np.zeros(3), np.zeros(4))


# ---- individual layers ------------------------------------------------------

def test_dense_linear_gradient_is_input():
    rng = np.random.default_rng(0)
    layer = Dense(2, 3, rng, bias=False)
    x = np.array([1.0, 2.0]).reshape(1, 2, 1, 1)
    layer.forward(x)
    layer.backward(np.ones((1, 3, 1, 1)))
    assert np.allclose(layer.gw, np.array([[1.0, 2.0]] * 3))


def test_zero_input_biasfree_net_has_zero_gradient():
    rng = np.random.default_rng(1)
    net = Network([Dense(4, 2, rng, bias=False), ReLU(), Dense(2, 2, rng, bias=False)],
                  taps=[0, 2])
    x = np.zeros((2, 1, 2, 2))
    net.forward_with_tap(x, one_hot([0, 1], 2))
    assert np.all(net.backward() == 0.0)


def test_finite_diff_zero_for_constant_loss():
    # zero input makes the loss independent of the weights
    rng = np.random.default_rng(2)
    net = Network([Dense(4, 3, rng, bias=False)], taps=[0])
    g = finite_diff_grad(net, np.zeros((1, 1, 2, 2)), one_hot([1], 3))
    assert np.allclose(g, 0.0, atol=1e-9)


def test_relu_masks_gradient():
    layer = ReLU()
    x = np.array([[-1.0, 2.0]]).reshape(1, 2, 1, 1)
    out = layer.forward(x)
    assert np.allclose(out.ravel(), [0.0, 2.0])
    g = layer.backward(np.ones_like(x))
    assert np.allclose(g.ravel(), [0.0, 1.0])


def test_maxpool_floor_shapes_and_first_max_ties():
    pool = MaxPool2x2()
    x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
    assert pool.forward(x).shape == (1, 1, 2, 2)
    tie = np.ones((1, 1, 2, 2))
    pool.forward(tie)
    g = pool.backward(np.ones((1, 1, 1, 1)))
    assert g[0, 0, 0, 0] == 1.0 and g.sum() == 1.0  # first element wins the tie


@pytest.mark.parametrize("h,w,k,pad", [
    (5, 5, 3, 0), (6, 7, 3, 1), (4, 4, 2, 0), (8, 5, 3, 2), (3, 5, 1, 0),
])
def test_conv_output_shape_floor_formula(h, w, k, pad):
    rng = np.random.default_rng(0)
    conv = Conv2d(2, 3, k, rng, pad=pad)
    out = conv.forward(rng.normal(size=(2, 2, h, w)))
    assert out.shape == (2, 3, h + 2 * pad - k + 1, w + 2 * pad - k + 1)


def test_conv_kernel_too_large_raises():
    rng = np.random.default_rng(0)
    conv = Conv2d(1, 1, 5, rng)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 1, 3, 3)))


@pytest.mark.parametrize("pad", [-1, 3, 4])
def test_conv_pad_outside_kernel_raises(pad):
    with pytest.raises(ShapeError):
        Conv2d(1, 1, 3, np.random.default_rng(0), pad=pad)


# Reference conv: the looped im2col/col2im and einsum passes that Conv2d used
# before its input gradient became a flipped-kernel convolution.

def _looped_im2col(x, k, pad):
    b, c, h, w = x.shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + ho, j : j + wo]
    return cols.reshape(b, c * k * k, ho * wo), ho, wo


def _looped_col2im(cols, x_shape, k, pad, ho, wo):
    b, c, h, w = x_shape
    cols = cols.reshape(b, c, k, k, ho, wo)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            xp[:, :, i : i + ho, j : j + wo] += cols[:, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


def _reference_conv(x, w, bias, gy, k, pad):
    """(y, gw, gb, gx) of one forward and backward pass."""
    cols, ho, wo = _looped_im2col(x, k, pad)
    y = np.einsum("of,bfp->bop", w, cols) + bias[None, :, None]
    g = gy.reshape(gy.shape[0], gy.shape[1], ho * wo)
    gw = np.einsum("bop,bfp->of", g, cols)
    gx = _looped_col2im(np.einsum("of,bop->bfp", w, g), x.shape, k, pad, ho, wo)
    return y.reshape(gy.shape), gw, g.sum(axis=(0, 2)), gx


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("k,pad", [(k, pad) for k in (1, 2, 3, 5) for pad in range(k)])
def test_conv_matches_looped_einsum_reference(k, pad, dtype, rtol):
    rng = np.random.default_rng(10 * k + pad)
    conv = Conv2d(3, 4, k, rng, pad=pad, dtype=dtype)
    conv.b[:] = rng.normal(size=4)
    x = rng.normal(size=(2, 3, 6, 7)).astype(dtype)
    y = conv.forward(x)
    gy = rng.normal(size=y.shape).astype(dtype)
    gx = conv.backward(gy)
    expected = _reference_conv(x, conv.w, conv.b, gy, k, pad)
    for name, got, want in zip(("y", "gw", "gb", "gx"), (y, conv.gw, conv.gb, gx), expected):
        assert got.dtype == dtype and got.shape == want.shape, name
        # scale-relative: entries that cancel to near zero carry the max's error
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max(),
                                   err_msg=name)


# ---- network plumbing -------------------------------------------------------

def test_tap_validation():
    rng = np.random.default_rng(0)
    layers = [Dense(4, 4, rng), ReLU(), Dense(4, 2, rng)]
    with pytest.raises(TapRangeError):
        Network(list(layers), taps=[1, 2])  # tap 0 must mark the input
    with pytest.raises(TapRangeError):
        Network(list(layers), taps=[0, 2, 2])
    with pytest.raises(TapRangeError):
        Network(list(layers), taps=[0, 3])


def test_backward_before_forward_raises():
    net = tiny_mlp(0)
    with pytest.raises(StateError):
        net.backward()


def test_identity_augmentation_is_bitwise_noop(rng):
    net = tiny_mlp(5)
    x = rng.normal(size=(3, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=3), 2)
    plain = net.predict(x)
    logits_none, _, out_labels = net.forward_with_tap(x, labels)
    logits_tap, _, _ = net.forward_with_tap(
        x, labels, tap=1, aug=AugSpec(kind="none"), rng=rng)
    assert np.array_equal(plain, logits_none)
    assert np.array_equal(plain, logits_tap)
    assert np.array_equal(labels, out_labels)


def test_degenerate_cutout_matches_plain_forward(rng):
    net = tiny_mlp(6)
    x = rng.normal(size=(3, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=3), 2)
    plain, _, _ = net.forward_with_tap(x, labels)
    masked, _, _ = net.forward_with_tap(
        x, labels, tap=1, aug=AugSpec(kind="cutout", mask_fraction=0.0), rng=rng)
    assert np.array_equal(plain, masked)


def test_mixup_with_full_lambda_keeps_first_partner(rng):
    from adalase.augment import mixup
    x = rng.normal(size=(4, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=4), 2)
    outcome = mixup(x, labels, alpha=1.0, rng=rng, lam=1.0)
    assert np.array_equal(outcome.tensor, x)
    assert np.array_equal(outcome.labels, labels)


def test_gradient_vector_order_is_topology_function(rng):
    a, b = tiny_mlp(7), tiny_mlp(7)
    x = rng.normal(size=(2, 1, 4, 4))
    labels = one_hot([0, 1], 2)
    a.forward_with_tap(x, labels)
    b.forward_with_tap(x, labels)
    assert np.array_equal(a.backward(), b.backward())


def test_tap_out_of_range_raises(rng):
    net = tiny_mlp(8)
    with pytest.raises(TapRangeError):
        net.forward_with_tap(np.zeros((1, 1, 4, 4)), one_hot([0], 2),
                             tap=5, aug=AugSpec(kind="cutout"), rng=rng)


def test_input_rank_and_batch_checks():
    net = tiny_mlp(9)
    with pytest.raises(ShapeError):
        net.forward_with_tap(np.zeros((1, 16)), one_hot([0], 2))
    with pytest.raises(ShapeError):
        net.forward_with_tap(np.zeros((2, 1, 4, 4)), one_hot([0], 2))


def test_param_vector_round_trip(rng):
    net = tiny_cnn(1)
    vec = rng.normal(size=net.num_params())
    net.set_param_vector(vec)
    assert np.array_equal(net.param_vector(), vec)
    with pytest.raises(ShapeError):
        net.set_param_vector(vec[:-1])


def test_layer_weights_and_grads_are_views_of_flat_buffers(rng):
    net = tiny_cnn(2)
    conv = net.layers[2].conv2
    assert np.shares_memory(conv.w, net.theta) and np.shares_memory(conv.gw, net.grad)
    net.forward_with_tap(rng.normal(size=(2, 1, 6, 6)), one_hot([0, 1], 2))
    g = net.backward()
    names = [name for name, _ in net.named_params()]
    offset = sum(p.size for _, p in net.named_params()[:names.index("layer2.conv2.w")])
    assert np.array_equal(g[offset : offset + conv.gw.size], conv.gw.ravel())
    net.set_param_vector(np.zeros(net.num_params()))
    assert not conv.w.any()


# ---- gradient oracle --------------------------------------------------------

def _max_rel_err(analytic, numeric):
    scale = np.abs(numeric).max() + 1e-12
    return np.abs(analytic - numeric).max() / scale


def test_mlp_gradient_matches_finite_differences(rng):
    net = tiny_mlp(11)
    x = rng.normal(size=(4, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=4), 2)
    net.forward_with_tap(x, labels)
    g = net.backward()
    g_fd = finite_diff_grad(net, x, labels)
    assert _max_rel_err(g, g_fd) < 1e-6


def test_cnn_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    net = tiny_cnn(12)
    x = rng.normal(size=(3, 1, 6, 6))
    labels = one_hot(rng.integers(0, 2, size=3), 2)
    net.forward_with_tap(x, labels)
    g = net.backward()
    g_fd = finite_diff_grad(net, x, labels)
    assert _max_rel_err(g, g_fd) < 1e-5


@pytest.mark.parametrize("kind", ["cutout", "translation", "mixup", "cutmix"])
def test_augmented_gradient_matches_finite_differences(kind, rng):
    net = tiny_mlp(13)
    x = rng.normal(size=(4, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=4), 2)
    aug = AugSpec(kind=kind, mask_fraction=0.5, shift_fraction_max=0.3, alpha=1.0)
    seed = 314
    net.forward_with_tap(x, labels, tap=1, aug=aug, rng=np.random.default_rng(seed))
    g = net.backward()
    g_fd = finite_diff_grad(net, x, labels, tap=1, aug=aug, rng_seed=seed)
    assert _max_rel_err(g, g_fd) < 1e-5


# ---- checkpoints ------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, rng):
    net = tiny_cnn(21)
    path = os.path.join(tmp_path, "w.adlw")
    save_weights(net, path)
    other = tiny_cnn(22)
    assert not np.array_equal(other.param_vector(), net.param_vector())
    load_weights(other, path)
    assert np.array_equal(other.param_vector(), net.param_vector())


def test_checkpoint_rejects_wrong_topology(tmp_path):
    net = build_mlp((1, 4, 4), 4, 2, seed=0)
    path = os.path.join(tmp_path, "w.adlw")
    save_weights(net, path)
    wrong_shape = build_mlp((1, 4, 4), 9, 2, seed=0)
    with pytest.raises(DataFormatError):
        load_weights(wrong_shape, path)
    wrong_arch = build_tiny_cnn((1, 6, 6), 2, seed=0, width=2)
    with pytest.raises(DataFormatError):
        load_weights(wrong_arch, path)


def test_checkpoint_rejects_truncation_and_trailing(tmp_path):
    net = build_mlp((1, 4, 4), 4, 2, seed=0)
    path = os.path.join(tmp_path, "w.adlw")
    save_weights(net, path)
    blob = open(path, "rb").read()
    short = os.path.join(tmp_path, "short.adlw")
    with open(short, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(DataFormatError):
        load_weights(build_mlp((1, 4, 4), 4, 2, seed=0), short)
    long = os.path.join(tmp_path, "long.adlw")
    with open(long, "wb") as fh:
        fh.write(blob + b"\x00")
    with pytest.raises(DataFormatError):
        load_weights(build_mlp((1, 4, 4), 4, 2, seed=0), long)
    bad = os.path.join(tmp_path, "bad.adlw")
    with open(bad, "wb") as fh:
        fh.write(b"NOPE" + blob[4:])
    with pytest.raises(DataFormatError):
        load_weights(build_mlp((1, 4, 4), 4, 2, seed=0), bad)


def test_mlp_hidden_must_be_square():
    with pytest.raises(ValueError):
        build_mlp((1, 4, 4), 5, 2, seed=0)
