"""Engine tests: layers, losses, network plumbing, gradients, checkpoints."""

import math
import os

import numpy as np
import pytest

from adalase.augment import AugSpec
from adalase.engine.builders import build_mlp, build_tiny_cnn
from adalase.engine.checkpoint import load_weights, save_weights
from adalase.engine import layers
from adalase.engine.layers import (Conv2d, Dense, GlobalAvgPool, MaxPool2x2, ReLU, Reshape,
                                   ResidualBlock)
from adalase.engine import losses
from adalase.engine.losses import check_soft_labels, cross_entropy, grad_dot, one_hot
from adalase.engine.network import Network, finite_diff_grad
from adalase.errors import (DataFormatError, PolicyError, ShapeError, StateError,
                            TapRangeError, ValidationError)
from conftest import (batch_innermost_view, is_batch_innermost, perturb_params, tiny_cnn,
                      tiny_mlp)


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


def _cross_entropy_reference(logits, soft_labels):
    """The formula as first written, one fresh array per step."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    log_probs = shifted - np.log(total)
    batch = logits.shape[0]
    loss = float(-(soft_labels * log_probs).sum() / batch)
    return loss, (probs - soft_labels) / batch


@pytest.mark.parametrize("labels_dtype", ["same", np.float64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_bytes_match_reference(dtype, labels_dtype):
    # from C = 8 on, numpy's pairwise row sums stop being sequential; B = 37 is
    # the batch whose 1/B is inexact, so a division cannot pass as a product
    rng = np.random.default_rng(11)
    for b in (1, 37, 64, 256):
        for c in (2, 3, 10, 5, 7, 8):
            soft = rng.dirichlet(np.ones(c), size=b)
            hard = one_hot(rng.integers(0, c, size=b), c)
            wide = rng.choice([-1e4, 1e4], size=(b, c))
            with_nan = rng.normal(0, 3, (b, c))
            with_nan[b // 2, b % c] = np.nan  # a NaN row max, at column 0 for some (b, c)
            for logits, labels in ((rng.normal(0, 3, (b, c)), soft),
                                   (rng.normal(0, 3, (b, c)), hard), (wide, hard), (wide, soft),
                                   (with_nan, soft)):
                logits = logits.astype(dtype)
                labels = labels.astype(dtype if labels_dtype == "same" else labels_dtype)
                before = logits.tobytes(), labels.tobytes()
                loss, dlogits = cross_entropy(logits, labels)
                ref_loss, ref_dlogits = _cross_entropy_reference(logits, labels)
                where = f"B={b} C={c} {np.dtype(dtype).name}"
                assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes(), where
                assert dlogits.dtype == ref_dlogits.dtype, where
                assert dlogits.tobytes() == ref_dlogits.tobytes(), where
                assert (logits.tobytes(), labels.tobytes()) == before, where


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_cross_entropy_integer_logits_match_reference(dtype):
    logits = np.array([[3, -2, 0], [1, 1, 4]], dtype=dtype)
    labels = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    loss, dlogits = cross_entropy(logits, labels)
    ref_loss, ref_dlogits = _cross_entropy_reference(logits, labels)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert dlogits.dtype == ref_dlogits.dtype and dlogits.tobytes() == ref_dlogits.tobytes()


# The loss as it stood before its call count was cut, kept verbatim as a byte
# oracle: a row fold started from +0.0, a copied row max, and a result_type
# round trip whatever the labels' dtype.

_ORACLE_FOLD_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _row_sums_oracle(a):
    if a.dtype not in _ORACLE_FOLD_DTYPES or not 0 < a.shape[1] < 8:
        return a.sum(axis=1)
    total = a[:, 0] + 0.0  # numpy's sum starts from +0.0, so a -0.0 row sums to +0.0
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _check_soft_labels_oracle(labels):
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"soft labels must be 2-D, got shape {labels.shape}")
    worst = float(np.abs(_row_sums_oracle(labels) - 1.0).max(initial=0.0))
    if not worst <= losses.LABEL_ROW_SUM_TOL:  # a NaN row fails too
        raise ValidationError(f"soft-label rows must sum to 1 (max deviation {worst:.3e})")
    return labels


def _cross_entropy_oracle(logits, soft_labels):
    logits = np.asarray(logits)
    soft_labels = _check_soft_labels_oracle(soft_labels)
    if logits.shape != soft_labels.shape:
        raise ShapeError(f"logits {logits.shape} vs labels {soft_labels.shape}")
    row_max = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, j], out=row_max)
    shifted = logits - row_max[:, None]
    exp = np.exp(shifted)
    total = _row_sums_oracle(exp)
    log_total = np.log(total)
    log_probs = shifted.astype(log_total.dtype, copy=False)  # integer logits exp to a float
    for j in range(logits.shape[1]):
        log_probs[:, j] -= log_total
        exp[:, j] /= total  # probs
    dtype = np.result_type(exp, soft_labels)
    log_probs = log_probs.astype(dtype, copy=False)
    log_probs *= soft_labels
    batch = logits.shape[0]
    loss = float(-log_probs.sum() / batch)
    dlogits = exp.astype(dtype, copy=False)
    dlogits -= soft_labels
    dlogits /= batch
    return loss, dlogits


def _outcome(fn, logits, labels):
    """Loss bytes, dlogits dtype and bytes, or the exception type and message."""
    try:
        with np.errstate(all="ignore"):
            loss, dlogits = fn(logits, labels)
    except (ShapeError, ValidationError) as exc:
        return type(exc), str(exc)
    return np.float64(loss).tobytes(), dlogits.dtype, dlogits.tobytes()


@pytest.mark.parametrize("labels_dtype", ["same", "other"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_is_bitwise_the_oracle(dtype, labels_dtype):
    # B = 1..256 over the row fold (C < 8) and numpy's sum (C >= 8); logits
    # rows with +-inf, NaN and -0.0 (one row of only -0.0), and label rows that
    # hold -0.0 or fail the check
    rng = np.random.default_rng(24)
    other = np.float64 if dtype == np.float32 else np.float32
    for b in (1, 2, 63, 64, 144, 256):
        for c in range(1, 10):
            normal = rng.normal(0, 3, (b, c))
            special = normal.copy()
            hit = rng.random((b, c)) < 0.15
            special[hit] = rng.choice([np.inf, -np.inf, np.nan, -0.0], size=hit.sum())
            special[0] = -0.0
            wide = rng.choice([-1e4, 1e4], size=(b, c))
            hard = one_hot(rng.integers(0, c, size=b), c)
            hard[-1] = np.where(hard[-1] == 0.0, -0.0, 1.0)
            bad = rng.dirichlet(np.ones(c), size=b)
            bad[b // 2, c // 2] = rng.choice([np.nan, np.inf, -np.inf, 2.0])
            zero = hard.copy()
            zero[0] = -0.0  # a label row of only -0.0 sums to zero: it fails the check
            for logits in (normal, special, wide):
                for labels in (rng.dirichlet(np.ones(c), size=b), hard, bad, zero):
                    logits = logits.astype(dtype)
                    labels = labels.astype(dtype if labels_dtype == "same" else other)
                    before = logits.tobytes(), labels.tobytes()
                    got = _outcome(cross_entropy, logits, labels)
                    assert got == _outcome(_cross_entropy_oracle, logits, labels), (b, c)
                    assert (logits.tobytes(), labels.tobytes()) == before, (b, c)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_sums_are_bitwise_numpy_row_sums(dtype, order):
    rng = np.random.default_rng(5)
    for c in range(13):
        for _ in range(20):
            a = rng.normal(size=(97, c)) * 10.0 ** rng.integers(-30, 30, size=(97, c))
            a[rng.random(a.shape) < 0.1] = -0.0
            a[rng.random(a.shape) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
            a = np.asarray(a.astype(dtype), order=order)
            with np.errstate(all="ignore"):
                got, want = losses._row_sums(a), a.sum(axis=1)
            if 1 < c < 8:  # the fold starts from a0 + a1: a row of only -0.0 sums to -0.0
                want[(a == 0).all(axis=1) & np.signbit(a).all(axis=1)] = -0.0
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (c, order)


@pytest.mark.parametrize("labels", [
    np.array([[True, True]]),  # a bool fold would be a logical OR, 1 per row
    np.array([[1, 1], [1, 0]]),
    np.array([[1.0, 2.0 ** -11, 2.0 ** -11]], dtype=np.float16),  # 1 + 2**-10 summed in float32
    np.zeros((3, 0)), np.zeros((3, 0), dtype=np.float32)])
def test_label_rows_are_summed_as_numpy_sums_them(labels):
    with pytest.raises(ValidationError, match="soft-label rows must sum to 1"):
        check_soft_labels(labels)
    with pytest.raises(ValidationError, match="soft-label rows must sum to 1"):
        cross_entropy(np.zeros(labels.shape), labels)


def test_integer_and_bool_one_hot_rows_pass_the_check():
    for labels in (np.array([[1, 0], [0, 1]]), np.array([[True, False, False]])):
        assert check_soft_labels(labels) is labels


def _one_hot_reference(class_ids, num_classes, dtype):
    ids = np.asarray(class_ids, dtype=np.int64)
    out = np.zeros((ids.shape[0], num_classes), dtype=dtype)
    out[np.arange(ids.shape[0]), ids] = 1.0
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_hot_is_bitwise_the_scattered_identity(dtype):
    rng = np.random.default_rng(2)
    for c in range(1, 11):
        for ids in (rng.integers(0, c, size=37), [], [c - 1]):
            got, want = one_hot(ids, c, dtype), _one_hot_reference(ids, c, dtype)
            assert got.dtype == want.dtype and got.shape == want.shape, c
            assert got.tobytes() == want.tobytes(), c


def test_one_hot_returns_a_fresh_writeable_array():
    first = one_hot([0, 1, 1], 3, np.float32)
    assert first.flags.writeable
    first[:] = 7.0
    assert np.array_equal(one_hot([0, 1, 1], 3, np.float32), np.eye(3, dtype=np.float32)[[0, 1, 1]])


def test_non_finite_label_row_fails_the_check():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="soft-label rows must sum to 1"):
            check_soft_labels(np.array([[0.5, 0.5], [bad, 0.0]]))
    assert check_soft_labels(np.zeros((0, 3))).shape == (0, 3)  # no rows, nothing to fail


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


def test_finite_diff_rejects_float32_network():
    # a float32 loss cannot resolve a 1e-5 bump: the oracle would be silently wrong
    net = tiny_mlp(3, dtype=np.float32)
    with pytest.raises(StateError, match="float32"):
        finite_diff_grad(net, np.zeros((1, 1, 4, 4)), one_hot([1], 2))


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


def _pool_windows(x):
    b, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    windows = x[:, :, : 2 * ho, : 2 * wo].reshape(b, c, ho, 2, wo, 2)
    return windows.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, ho, wo, 4)


@pytest.mark.parametrize("case", ["random", "tied", "nan"])
def test_maxpool_forward_is_bitwise_flat_max_at_first_argmax(case):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 2, 7, 6))
    if case == "tied":
        x = rng.integers(-1, 2, size=x.shape).astype(float)
    elif case == "nan":
        x[rng.random(x.shape) < 0.2] = np.nan
    flat = _pool_windows(x)
    want = flat.max(axis=-1)
    pool = MaxPool2x2()
    for layout in (np.ascontiguousarray, batch_innermost_view):
        y = pool.forward(layout(x))
        assert y.shape == want.shape and y.tobytes() == want.tobytes(), layout.__name__
        assert is_batch_innermost(y), layout.__name__
        # first max wins: a NaN counts as the max, as in argmax
        for idx in np.ndindex(*want.shape):
            window = list(flat[idx])
            first = next(i for i, v in enumerate(window) if v == want[idx] or np.isnan(v))
            assert pool._arg[idx] == first, (layout.__name__, idx)


def _put_along_axis_pool_backward(x, gy):
    """The routing MaxPool2x2.backward used before it wrote to corner views:
    ``gy`` put at the flat window argmax, then the windows folded back."""
    b, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    arg = _pool_windows(x).argmax(axis=-1)
    gflat = np.zeros((b, c, ho, wo, 4), dtype=gy.dtype)
    np.put_along_axis(gflat, arg[..., None], gy[..., None], axis=-1)
    gx = np.zeros(x.shape, dtype=gy.dtype)
    gx[:, :, : 2 * ho, : 2 * wo] = (
        gflat.reshape(b, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, 2 * ho, 2 * wo)
    )
    return gx


@pytest.mark.parametrize("case", ["random", "tied", "nan", "odd"])
def test_maxpool_backward_matches_put_along_axis_reference(case):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 2, 7, 5) if case == "odd" else (3, 2, 6, 8))
    if case == "tied":
        x = rng.integers(-1, 2, size=x.shape).astype(float)
    elif case == "nan":
        x[rng.random(x.shape) < 0.2] = np.nan
    gy = rng.normal(size=(3, 2, x.shape[2] // 2, x.shape[3] // 2))
    want = _put_along_axis_pool_backward(x, gy)
    pool = MaxPool2x2()
    for layout in (np.ascontiguousarray, batch_innermost_view):
        pool.forward(layout(x))
        got = pool.backward(layout(gy))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert is_batch_innermost(got), layout.__name__
        # equal as values: an unrouted corner may hold -0.0 where the reference has +0.0
        assert np.array_equal(got, want), layout.__name__


@pytest.mark.parametrize("shape", [(64, 8, 4, 4), (5, 3, 3, 3), (7, 2, 5, 6), (4, 3, 1, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_global_avg_pool_bytes_do_not_depend_on_the_input_layout(shape, dtype):
    # the mean is taken on the (C, H, W, B) buffer: on a batch-innermost view the
    # bytes are those of numpy's own mean, and a C-ordered copy gives the same
    x = np.random.default_rng(5).normal(size=shape).astype(dtype)
    x.flat[::11] = np.float32(1e4)  # large terms make the summation order show
    x.flat[7] = np.nan
    want = batch_innermost_view(x).mean(axis=(2, 3), keepdims=True)
    pool = GlobalAvgPool()
    for layout in (np.ascontiguousarray, batch_innermost_view):
        got = pool.forward(layout(x))
        assert got.shape == want.shape and got.dtype == want.dtype, layout.__name__
        assert got.tobytes() == want.tobytes(), layout.__name__


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


def _channel_major_view(a):
    """Same values as ``a``, laid out as the (C, B, H, W) buffer behind a
    (B, C, H, W) view."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("k,pad", [(k, pad) for k in (1, 2, 3, 5) for pad in range(k)])
def test_conv_matches_looped_einsum_reference(k, pad, dtype, rtol):
    rng = np.random.default_rng(10 * k + pad)
    conv = Conv2d(3, 4, k, rng, pad=pad, dtype=dtype)
    conv.b[:] = rng.normal(size=4)
    x = rng.normal(size=(2, 3, 6, 7)).astype(dtype)
    gy = rng.normal(size=(2, 4, 7 + 2 * pad - k, 8 + 2 * pad - k)).astype(dtype)
    expected = _reference_conv(x, conv.w, conv.b, gy, k, pad)
    for layout in (np.ascontiguousarray, _channel_major_view, batch_innermost_view):
        conv.gw[:] = 0
        conv.gb[:] = 0
        xl, gyl = layout(x), layout(gy)
        assert np.array_equal(xl, x) and np.array_equal(gyl, gy)
        y = conv.forward(xl)
        gx = conv.backward(gyl)
        for name, got, want in zip(("y", "gw", "gb", "gx"), (y, conv.gw, conv.gb, gx),
                                   expected):
            msg = f"{name} ({layout.__name__})"
            assert got.dtype == dtype and got.shape == want.shape, msg
            # scale-relative: entries that cancel to near zero carry the max's error
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max(),
                                       err_msg=msg)


@pytest.mark.parametrize("b,c,o,h,w,k,pad,dtype,rtol", [
    (1, 3, 4, 6, 7, 3, 1, np.float64, 1e-12),  # one-sample batch
    (2, 3, 4, 3, 6, 3, 0, np.float64, 1e-12),  # Ho = 1: each row-offset view is one padded row
    (2, 3, 4, 6, 3, 3, 0, np.float64, 1e-12),  # Wo = 1
    (64, 8, 8, 8, 8, 3, 1, np.float32, 1e-5),  # tiny_cnn block at 8x8
    (64, 8, 8, 4, 4, 3, 1, np.float32, 1e-5),  # tiny_cnn block at 4x4
    (64, 1, 8, 8, 8, 3, 1, np.float32, 1e-5),  # tiny_cnn stem
], ids=["batch1", "ho1", "wo1", "block8x8", "block4x4", "stem"])
def test_conv_row_offset_edges_match_reference(b, c, o, h, w, k, pad, dtype, rtol):
    rng = np.random.default_rng(b + h + w)
    conv = Conv2d(c, o, k, rng, pad=pad, dtype=dtype)
    conv.b[:] = rng.normal(size=o)
    x = batch_innermost_view(rng.normal(size=(b, c, h, w)).astype(dtype))
    gy = batch_innermost_view(
        rng.normal(size=(b, o, h + 2 * pad - k + 1, w + 2 * pad - k + 1)).astype(dtype))
    expected = _reference_conv(*(a.astype(np.float64) for a in (x, conv.w, conv.b, gy)),
                               k, pad)
    y = conv.forward(x)
    gx = conv.backward(gy)
    for name, got, want in zip(("y", "gw", "gb", "gx"), (y, conv.gw, conv.gb, gx), expected):
        assert got.dtype == dtype and got.shape == want.shape, name
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


@pytest.mark.parametrize("build,side", [(tiny_mlp, 4), (tiny_cnn, 6)])
def test_backward_after_predict_raises(build, side, rng):
    # predict drops the layer caches backward would read
    net = build(0)
    x = rng.normal(size=(3, 1, side, side))
    net.forward_with_tap(x, one_hot([0, 1, 0], 2))
    net.predict(rng.normal(size=x.shape))
    with pytest.raises(StateError):
        net.backward()


@pytest.mark.parametrize("tap,kind,scale,error", [
    (1, "rotation", 1.0, PolicyError),  # input-only kind at a hidden tap
    (None, "none", 1.5, ValidationError),  # bad labels, caught by the loss
    (1, "mixup", 1.5, ValidationError),  # bad labels mixed at a hidden tap
])
def test_backward_after_a_failed_forward_raises(tap, kind, scale, error, rng):
    # the failed pass may have run layers on the new batch, so a backward
    # would mix two batches' caches
    net = tiny_cnn(0)
    x1, x2 = rng.normal(size=(2, 4, 1, 6, 6))
    y = one_hot([0, 1, 0, 1], 2)
    net.forward_with_tap(x1, y)
    with pytest.raises(error):
        net.forward_with_tap(x2, scale * y, tap=tap, aug=AugSpec(kind=kind), rng=rng)
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


def test_a_resumed_pass_needs_a_tap_and_keeps_nothing(rng):
    # a resumed pass never ran the layers before its tap, so it cannot arm backward
    net = tiny_mlp(8)
    x, y = rng.normal(size=(2, 1, 4, 4)), one_hot([0, 1], 2)
    _, acts = net.predict(x, taps=True)
    with pytest.raises(StateError, match="resumed"):
        net.forward_with_tap(acts[1], y, resume=True)
    _, want, _ = net.forward_with_tap(x, y)
    _, got, _ = net.forward_with_tap(acts[1], y, tap=1, resume=True)
    assert got == want
    with pytest.raises(StateError):
        net.backward()


def test_input_rank_and_batch_checks():
    net = tiny_mlp(9)
    with pytest.raises(ShapeError):
        net.forward_with_tap(np.zeros((1, 16)), one_hot([0], 2))
    with pytest.raises(ShapeError):
        net.forward_with_tap(np.zeros((2, 1, 4, 4)), one_hot([0], 2))
    with pytest.raises(ShapeError):
        net.forward_with_tap(np.zeros((1, 1, 4, 4)), 1.0)  # no batch axis


@pytest.mark.parametrize("build,side", [(tiny_cnn, 6), (tiny_mlp, 4)])
def test_nan_input_row_gives_nan_logits_in_that_row_only(build, side):
    net = build(21)
    x = np.random.default_rng(21).normal(size=(4, 1, side, side))
    x[2] = np.nan
    logits = net.predict(x)
    assert np.isnan(logits[2]).all()
    assert np.isfinite(np.delete(logits, 2, axis=0)).all()


def test_activations_stay_batch_innermost(monkeypatch):
    # every patch copy in im2col moves runs of B values only if the maps it
    # reads are (C, H, W, B) buffers: a transposing copy here would undo that
    net = tiny_cnn(22, side=6, width=3)
    outputs = []

    def record(layer, name, arg=False):
        forward = layer.forward

        def wrapped(x, **kwargs):
            y = forward(x, **kwargs)
            outputs.append((name, x if arg else y))
            return y
        monkeypatch.setattr(layer, "forward", wrapped)

    for i, layer in enumerate(net.layers):
        if isinstance(layer, ResidualBlock):
            record(layer.conv1, f"layer{i}.conv1")
            record(layer.relu1, f"layer{i}.relu1")
            record(layer.conv2, f"layer{i}.conv2")
            record(layer.relu2, f"layer{i}.sum", arg=True)
            record(layer.relu2, f"layer{i}.relu2")
        elif isinstance(layer, (Conv2d, ReLU, MaxPool2x2)):
            record(layer, f"layer{i}.{type(layer).__name__}")
    net.predict(np.random.default_rng(22).normal(size=(5, 1, 6, 6)))
    assert len(outputs) == 13
    for name, y in outputs:
        assert min(y.shape) > 1 and is_batch_innermost(y), name


@pytest.mark.parametrize("tap", range(4))
def test_mixup_at_any_tap_keeps_the_conv_stack_batch_innermost(monkeypatch, tap):
    # past the stem every map is a (B, C, H, W) view of a (C, H, W, B) buffer,
    # mixed or not, and so is every gradient the conv stack hands down; Dense
    # and GlobalAvgPool take their gradients from the dense head
    net = tiny_cnn(23, side=6, width=3)
    seen = []
    for cls in (Conv2d, ReLU, ResidualBlock, MaxPool2x2, GlobalAvgPool, Dense):
        def forward(self, x, _original=cls.forward, **kwargs):
            if self is not net.layers[0]:
                seen.append((f"{type(self).__name__}.forward", x))
            return _original(self, x, **kwargs)
        monkeypatch.setattr(cls, "forward", forward)
        if cls not in (GlobalAvgPool, Dense):
            def backward(self, gy, _original=cls.backward, **kwargs):
                seen.append((f"{type(self).__name__}.backward", gy))
                return _original(self, gy, **kwargs)
            monkeypatch.setattr(cls, "backward", backward)
    b = 8
    x = np.random.default_rng(23).normal(size=(b, 1, 6, 6))
    net.forward_with_tap(x, one_hot(np.arange(b) % 2, 2), tap=tap,
                         aug=AugSpec(kind="mixup"), rng=np.random.default_rng(tap))
    net.backward()
    assert len(seen) == 27  # 14 inputs past layer 0, 13 gradients
    for name, a in seen:
        assert min(a.shape[:2]) > 1 and is_batch_innermost(a), name


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


def _full_chain_grad(net, x_shape):
    """Flat gradient of the last forward_with_tap by the whole reverse chain:
    layer 0's input gradient included, and a tap-0 grad_fn applied to it."""
    net.grad.fill(0)
    g = net._dlogits.reshape(net._logits_shape)
    for i in range(len(net.layers) - 1, -1, -1):
        g = net.layers[i].backward(g)
        if i == net._tap_layer and net._aug_grad_fn is not None:
            g = net._aug_grad_fn(g)
    assert g.shape == x_shape
    return net.grad_vector()


@pytest.mark.parametrize("build,conv_inputs", [(tiny_mlp, 0), (tiny_cnn, 4)])
@pytest.mark.parametrize("tap", [None, 0, 1])
def test_layer0_never_computes_an_input_gradient(build, conv_inputs, tap, monkeypatch):
    net = build(14)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, 1, 6, 6) if build is tiny_cnn else (4, 1, 4, 4))
    labels = one_hot(rng.integers(0, 2, size=4), 2)
    aug = AugSpec(kind="mixup", alpha=1.0) if tap is not None else None
    net.forward_with_tap(x, labels, tap=tap, aug=aug, rng=np.random.default_rng(15))
    full = _full_chain_grad(net, x.shape)

    unfolds, grad_fn_calls, layer0_out = [], [], []
    real_im2col, real_grad_fn = layers.im2col, net._aug_grad_fn
    monkeypatch.setattr(layers, "im2col", lambda *a: unfolds.append(a) or real_im2col(*a))
    if real_grad_fn is not None:
        net._aug_grad_fn = lambda g: grad_fn_calls.append(g) or real_grad_fn(g)
    layer0_backward = net.layers[0].backward
    net.layers[0].backward = lambda *a, **kw: layer0_out.append(layer0_backward(*a, **kw))
    got = net.backward()
    assert got.tobytes() == full.tobytes()
    assert layer0_out == [None]
    assert len(unfolds) == conv_inputs  # one per conv above layer 0, none for the stem
    assert len(grad_fn_calls) == (tap == 1)  # a tap-0 grad_fn would act on the input


@pytest.mark.parametrize("kind", ["Dense", "Conv2d", "ResidualBlock", "ReLU", "MaxPool2x2",
                                  "GlobalAvgPool", "Reshape"])
def test_every_layer_kind_works_at_index_0(kind):
    rng = np.random.default_rng(18)
    first = {"Dense": lambda: Dense(36, 5, rng),
             "Conv2d": lambda: Conv2d(1, 2, 3, rng, pad=1),
             "ResidualBlock": lambda: ResidualBlock(1, rng),
             "ReLU": ReLU, "MaxPool2x2": MaxPool2x2, "GlobalAvgPool": GlobalAvgPool,
             "Reshape": lambda: Reshape(4, 3, 3)}[kind]()
    x = np.random.default_rng(19).normal(size=(3, 1, 6, 6))
    features = int(np.prod(first.forward(x).shape[1:]))
    net = perturb_params(Network([first, Dense(features, 2, rng)], taps=[0, 1]),
                         np.random.default_rng(20))
    labels = one_hot([0, 1, 1], 2)
    net.forward_with_tap(x, labels)
    full = _full_chain_grad(net, x.shape)
    net.forward_with_tap(x, labels)
    assert net.backward().tobytes() == full.tobytes()


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
    # ADLW stores float64, which holds every float32 value exactly
    for dtype in (np.float64, np.float32):
        net = tiny_cnn(21, dtype=dtype)
        path = os.path.join(tmp_path, "w.adlw")
        save_weights(net, path)
        other = tiny_cnn(22, dtype=dtype)
        assert not np.array_equal(other.param_vector(), net.param_vector())
        load_weights(other, path)
        assert other.theta.dtype == dtype
        assert other.theta.tobytes() == net.theta.tobytes()


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


class _HalfWrittenFile:
    """A file whose ``write`` stores half of the data, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("No space left on device")


@pytest.mark.parametrize("failure", ["params", "write", "rename"])
def test_a_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch, failure):
    net = build_mlp((1, 4, 4), 4, 2, seed=0)
    path = os.path.join(tmp_path, "w.adlw")
    save_weights(net, path)
    before = open(path, "rb").read()
    other = build_mlp((1, 4, 4), 4, 2, seed=1)
    if failure == "params":  # the second parameter cannot be read
        params = other.named_params()
        def named_params():
            yield params[0]
            raise RuntimeError("parameter read failed")
        monkeypatch.setattr(other, "named_params", named_params)
    with monkeypatch.context() as patch:
        if failure == "write":
            fdopen = os.fdopen
            patch.setattr(os, "fdopen", lambda *a, **k: _HalfWrittenFile(fdopen(*a, **k)))
        elif failure == "rename":
            def replace(src, dst):
                raise OSError("rename failed")
            patch.setattr(os, "replace", replace)
        with pytest.raises((RuntimeError, OSError)):
            save_weights(other, path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["w.adlw"]


def test_mlp_hidden_must_be_square():
    with pytest.raises(ValueError):
        build_mlp((1, 4, 4), 5, 2, seed=0)
