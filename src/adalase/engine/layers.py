"""Layer primitives with explicit forward/backward passes.

All activations are rank-4 arrays (batch, channels, height, width). Dense
layers flatten internally and emit (batch, features, 1, 1) so taps can sit
between any pair of layers without special-casing ranks.

The conv stack keeps its maps batch-innermost: every hidden map and gradient
of a ``tiny_cnn`` pass is a (B, C, H, W) view of a (C, H, W, B) buffer. Conv,
pooling and residual results are batch-innermost whatever layout they are
given (the residual sum is formed in place on the fresh conv output), ReLU
keeps its input's memory order, and a hidden-tap mixup keeps it too
(``augment._partners``). So every patch copy in ``im2col`` moves runs of B
contiguous values, and the conv backward reads its output gradient as a
matrix without a copy. ``GlobalAvgPool`` reduces the (C, H, W, B) buffer, so
its output bytes do not depend on its input's layout.
"""

import math

import numpy as np

from ..errors import ShapeError


def _uniform_init(rng, shape, fan_in, dtype):
    # symmetric uniform scaled by fan-in
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def im2col(x, k, pad):
    """Width-only unfold of the zero-padded map, batch innermost: (C*k, Hp*Wo*B).

    Row ``(c, j)`` is channel ``c`` shifted by kernel column ``j``, and column
    ``(y, x, b)`` is padded row ``y``, output column ``x`` and sample ``b``. So
    the patches of kernel row ``i`` are the contiguous column range of padded
    rows ``i .. i+Ho-1``, and a conv pass is k GEMMs on views (``_row_gemms``).
    Returns the patches and (Ho, Wo).
    """
    b, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = hp - k + 1, wp - k + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv kernel {k} does not fit input {h}x{w} with pad {pad}")
    xp = np.zeros((c, hp, wp, b), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(1, 2, 3, 0)
    sc, sh, sw, sb = xp.strides
    # window[c, j, y, x, b] = xp[c, y, x + j, b], a view on xp's own strides; the
    # ndarray constructor builds it in about 1 us, as_strided in about 6
    win = np.ndarray((c, k, hp, wo, b), xp.dtype, xp, 0, (sc, sw, sh, sw, sb))
    return win.reshape(c * k, hp * wo * b), ho, wo


def _row_gemms(w4, cols, ho):
    """Stride-1 conv of kernel ``w4`` (O, C, k, k) over ``im2col`` patches ``cols``.

    The sum over kernel rows ``i`` of ``w4[:, :, i, :]`` times the patch columns
    of padded rows ``i .. i+ho-1``: k GEMMs on views, no copy of the patches.
    Returns (O, ho*Wo*B).
    """
    o, c, k, _ = w4.shape
    rows = w4.transpose(2, 0, 1, 3).reshape(k, o, c * k)
    n = cols.shape[1] // (ho + k - 1)  # columns per padded row: Wo*B
    y = rows[0] @ cols[:, : ho * n]
    for i in range(1, k):
        y += rows[i] @ cols[:, i * n : (i + ho) * n]
    return y


class Layer:
    """Base layer. ``param_names`` lists parameter attributes in declaration
    order; the gradient of parameter ``w`` lives in ``gw``.

    ``forward`` keeps what ``backward`` needs; with ``keep=False`` (a
    forward-only pass) it keeps no arrays and drops those of the last pass.
    ``backward`` writes the parameter gradients, each entry once, over whatever
    ``gw``/``gb`` held, and returns the input gradient. Layers with parameters
    take ``input_grad=False`` to skip the input gradient and return None, as
    the network does for layer 0, whose input is data.
    """

    param_names = ()

    def declare_affine(self, out_features, fan_in, rng, dtype):
        """Declare weight ``w`` (out_features, fan_in) and bias ``b``."""
        self.w = _uniform_init(rng, (out_features, fan_in), fan_in, dtype)
        self.b = np.zeros(out_features, dtype=dtype)
        self.param_names = ("w", "b")
        for name in self.param_names:
            setattr(self, "g" + name, np.zeros_like(getattr(self, name)))

    def param_slots(self):
        """(checkpoint name, owning layer, attribute) for each parameter, in order."""
        return [(name, self, name) for name in self.param_names]

    def forward(self, x, keep=True):
        raise NotImplementedError

    def backward(self, gy, input_grad=True):
        raise NotImplementedError


class Dense(Layer):
    def __init__(self, in_features, out_features, rng, dtype=np.float64):
        self.in_features = in_features
        self.out_features = out_features
        self.declare_affine(out_features, in_features, rng, dtype)
        self._x2 = None

    def forward(self, x, keep=True):
        b = x.shape[0]
        x2 = x.reshape(b, -1)
        if x2.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expects {self.in_features} input features, got {x2.shape[1]} "
                f"from shape {x.shape}"
            )
        self._x2 = x2 if keep else None
        self._in_shape = x.shape
        y = x2 @ self.w.T
        y += self.b
        return y.reshape(b, self.out_features, 1, 1)

    def backward(self, gy, input_grad=True):
        b = gy.shape[0]
        g2 = gy.reshape(b, self.out_features)
        np.matmul(g2.T, self._x2, out=self.gw)
        np.add.reduce(g2, axis=0, out=self.gb)
        return (g2 @ self.w).reshape(self._in_shape) if input_grad else None


class Conv2d(Layer):
    """Stride-1 convolution as k GEMMs per pass over width-only patches.

    Outputs are (O, Ho, Wo, B) buffers handed on as (B, O, Ho, Wo) views. The
    weight gradient of kernel row ``i`` is ``(P_i @ g.T).T``, with ``P_i`` that
    row's patch view and ``g`` the output gradient as an (O, Ho*Wo*B) matrix:
    on (72, 4096) float32 patches OpenBLAS ran this orientation in half the
    time of ``g @ P.T``, and on smaller ones the two tie. The input gradient
    is itself a convolution: the output gradient, padded by ``kernel-1-pad``,
    against the kernel flipped in space and transposed in channels, so one
    ``im2col`` serves every pass.
    """

    def __init__(self, in_channels, out_channels, kernel, rng, pad=0, dtype=np.float64):
        if not 0 <= pad < kernel:
            raise ShapeError(f"conv pad must be in [0, {kernel}), got {pad}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = pad
        self.declare_affine(out_channels, in_channels * kernel * kernel, rng, dtype)

    def forward(self, x, keep=True):
        if x.shape[1] != self.in_channels:
            raise ShapeError(f"conv expects {self.in_channels} channels, got {x.shape[1]}")
        k = self.kernel
        self._cols = None  # the last pass's patches go before the next ones are built
        cols, ho, wo = im2col(x, k, self.pad)
        self._cols = cols if keep else None
        y = _row_gemms(self.w.reshape(self.out_channels, self.in_channels, k, k), cols, ho)
        y += self.b[:, None]
        return y.reshape(self.out_channels, ho, wo, x.shape[0]).transpose(3, 0, 1, 2)

    def backward(self, gy, input_grad=True):
        b, o, ho, wo = gy.shape
        c, k = self.in_channels, self.kernel
        g2 = gy.transpose(1, 2, 3, 0).reshape(o, -1)
        n = wo * b  # patch columns per padded row
        gw_rows = self.gw.reshape(o, c, k, k).transpose(2, 1, 3, 0)  # (k, C, k, O) view
        for i in range(k):
            gw_rows[i] = (self._cols[:, i * n : (i + ho) * n] @ g2.T).reshape(c, k, o)
        np.add.reduce(g2, axis=1, out=self.gb)
        if not input_grad:
            return None
        gcols, h, w = im2col(gy, k, k - 1 - self.pad)
        flipped = self.w.reshape(o, c, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _row_gemms(flipped, gcols, h).reshape(c, h, w, b).transpose(3, 0, 1, 2)


class ReLU(Layer):
    def forward(self, x, keep=True):
        self._mask = x > 0 if keep else None
        return np.maximum(x, 0.0)  # NaN stays NaN

    def backward(self, gy):
        return gy * self._mask


def _windows(a, ho, wo):
    """The 2x2 pooling windows of (B, C, H, W) map ``a`` as a (2, 2, C, Ho, Wo, B)
    view: ``[i, j]`` holds window corner (i, j), batch innermost."""
    t = a.transpose(1, 2, 3, 0)[:, : 2 * ho, : 2 * wo]
    return t.reshape(t.shape[0], ho, 2, wo, 2, t.shape[3]).transpose(2, 4, 0, 1, 3, 5)


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2; trailing odd row/column dropped (floor shapes).

    The forward copies the four window corners, from any input layout, into
    the rows of one contiguous (4, C*Ho*Wo*B) buffer and works on those rows,
    so ``y`` and the input gradient are batch-innermost. ``_arg`` holds the
    first corner at the max, or at the first NaN when the max is NaN, as
    ``argmax`` would. The backward routes ``gy`` into the four rows and
    scatters them into the input gradient in one copy.
    """

    def forward(self, x, keep=True):
        b, c, h, w = x.shape
        if h < 2 or w < 2:
            raise ShapeError(f"maxpool needs spatial dims >= 2, got {h}x{w}")
        ho, wo = h // 2, w // 2
        q = np.empty((4, c * ho * wo * b), dtype=x.dtype)
        q.reshape(2, 2, c, ho, wo, b)[...] = _windows(x, ho, wo)
        y = np.maximum(q[0], q[1])
        np.maximum(y, np.maximum(q[2], q[3]), out=y)
        self._arg = None
        if keep:
            # arg counts the corners before the first one equal to the max or NaN
            arg = np.zeros(y.size, dtype=np.int8)
            before = np.ones(y.size, dtype=bool)
            test = np.empty_like(before)
            for t in range(3):
                np.not_equal(q[t], y, out=test)
                before &= test
                np.equal(q[t], q[t], out=test)
                before &= test
                arg += before
            self._arg = arg.reshape(c, ho, wo, b).transpose(3, 0, 1, 2)
        self._x_shape = x.shape
        return y.reshape(c, ho, wo, b).transpose(3, 0, 1, 2)

    def backward(self, gy):
        b, c, h, w = self._x_shape
        ho, wo = h // 2, w // 2
        g, arg = gy.transpose(1, 2, 3, 0), self._arg.transpose(1, 2, 3, 0)
        rows = np.empty((4, c, ho, wo, b), dtype=gy.dtype)
        for t in range(4):
            np.multiply(g, arg == t, out=rows[t])
        # an odd trailing row or column is in no window: its gradient is zero
        gx = (np.zeros if h % 2 or w % 2 else np.empty)((c, h, w, b), dtype=gy.dtype)
        _windows(gx.transpose(3, 0, 1, 2), ho, wo)[...] = rows.reshape(2, 2, c, ho, wo, b)
        return gx.transpose(3, 0, 1, 2)


class ResidualBlock(Layer):
    """Two 3x3 conv+relu with identity skip: y = relu(x + conv2(relu(conv1(x))))."""

    def __init__(self, channels, rng, dtype=np.float64):
        self.conv1 = Conv2d(channels, channels, 3, rng, pad=1, dtype=dtype)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(channels, channels, 3, rng, pad=1, dtype=dtype)
        self.relu2 = ReLU()

    def param_slots(self):
        return [(f"{conv}.{name}", owner, attr) for conv in ("conv1", "conv2")
                for name, owner, attr in getattr(self, conv).param_slots()]

    def forward(self, x, keep=True):
        h = self.relu1.forward(self.conv1.forward(x, keep=keep), keep=keep)
        y = self.conv2.forward(h, keep=keep)
        y += x  # on the fresh conv output, so the sum is batch-innermost
        return self.relu2.forward(y, keep=keep)

    def backward(self, gy, input_grad=True):
        g = self.relu2.backward(gy)
        gh = self.conv2.backward(g)
        gx = self.conv1.backward(self.relu1.backward(gh), input_grad=input_grad)
        if gx is not None:
            gx += g
        return gx


class Reshape(Layer):
    """Reinterpret (B, F, 1, 1) features as a (B, C, H, W) map so spatial
    augmentations act on dense-layer activations."""

    def __init__(self, channels, height, width):
        self.shape = (channels, height, width)

    def forward(self, x, keep=True):
        b = x.shape[0]
        if math.prod(x.shape[1:]) != math.prod(self.shape):
            raise ShapeError(f"cannot reshape {x.shape[1:]} to {self.shape}")
        self._in_shape = x.shape
        return x.reshape(b, *self.shape)

    def backward(self, gy):
        return gy.reshape(self._in_shape)


class GlobalAvgPool(Layer):
    """Spatial mean per channel, on the (C, H, W, B) buffer whatever the input layout."""

    def forward(self, x, keep=True):
        b, c, h, w = x.shape
        self._x_shape = x.shape
        buf = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
        return buf.reshape(c, h * w, b).mean(axis=1).T.reshape(b, c, 1, 1)

    def backward(self, gy):
        b, c, h, w = self._x_shape
        gx = np.empty((c, h, w, b), dtype=gy.dtype)
        gx[...] = (gy.reshape(b, c).T / (h * w))[:, None, None, :]
        return gx.transpose(3, 0, 1, 2)
