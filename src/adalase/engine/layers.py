"""Layer primitives with explicit forward/backward passes.

All activations are rank-4 arrays (batch, channels, height, width). Dense
layers flatten internally and emit (batch, features, 1, 1) so taps can sit
between any pair of layers without special-casing ranks.
"""

import numpy as np

from ..errors import ShapeError


def _uniform_init(rng, shape, fan_in, dtype):
    # symmetric uniform scaled by fan-in
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def im2col(x, k, stride, pad):
    """Unfold (B,C,H,W) into (B, C*k*k, Ho*Wo) patches."""
    b, c, h, w = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv kernel {k} does not fit input {h}x{w} with pad {pad}")
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(b, c * k * k, ho * wo), ho, wo


def col2im(cols, x_shape, k, stride, pad, ho, wo):
    """Fold patch gradients back onto the (padded) input, accumulating overlaps."""
    b, c, h, w = x_shape
    cols = cols.reshape(b, c, k, k, ho, wo)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols[:, :, i, j]
    if pad:
        return xp[:, :, pad : pad + h, pad : pad + w]
    return xp


class Layer:
    """Base layer. ``param_names`` lists parameter attributes in declaration
    order; the gradient of parameter ``w`` lives in ``gw``."""

    param_names = ()

    def declare_affine(self, out_features, fan_in, rng, dtype, bias):
        """Declare weight ``w`` (out_features, fan_in) and optional bias ``b``."""
        self.w = _uniform_init(rng, (out_features, fan_in), fan_in, dtype)
        self.b = np.zeros(out_features, dtype=dtype) if bias else None
        self.param_names = ("w", "b") if bias else ("w",)
        for name in self.param_names:
            setattr(self, "g" + name, np.zeros_like(getattr(self, name)))

    def param_slots(self):
        """(checkpoint name, owning layer, attribute) for each parameter, in order."""
        return [(name, self, name) for name in self.param_names]

    def forward(self, x):
        raise NotImplementedError

    def backward(self, gy):
        raise NotImplementedError


class Dense(Layer):
    def __init__(self, in_features, out_features, rng, dtype=np.float64, bias=True):
        self.in_features = in_features
        self.out_features = out_features
        self.declare_affine(out_features, in_features, rng, dtype, bias)
        self._x2 = None

    def forward(self, x):
        b = x.shape[0]
        x2 = x.reshape(b, -1)
        if x2.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expects {self.in_features} input features, got {x2.shape[1]} "
                f"from shape {x.shape}"
            )
        self._x2 = x2
        self._in_shape = x.shape
        y = x2 @ self.w.T
        if self.b is not None:
            y = y + self.b
        return y.reshape(b, self.out_features, 1, 1)

    def backward(self, gy):
        b = gy.shape[0]
        g2 = gy.reshape(b, self.out_features)
        self.gw += g2.T @ self._x2
        if self.b is not None:
            self.gb += g2.sum(axis=0)
        return (g2 @ self.w).reshape(self._in_shape)


class Conv2d(Layer):
    def __init__(self, in_channels, out_channels, kernel, rng, stride=1, pad=0,
                 dtype=np.float64, bias=True):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.declare_affine(out_channels, in_channels * kernel * kernel, rng, dtype, bias)

    def forward(self, x):
        if x.shape[1] != self.in_channels:
            raise ShapeError(f"conv expects {self.in_channels} channels, got {x.shape[1]}")
        cols, ho, wo = im2col(x, self.kernel, self.stride, self.pad)
        self._cols = cols
        self._x_shape = x.shape
        self._ho, self._wo = ho, wo
        y = np.einsum("of,bfp->bop", self.w, cols)
        if self.b is not None:
            y = y + self.b[None, :, None]
        return y.reshape(x.shape[0], self.out_channels, ho, wo)

    def backward(self, gy):
        b = gy.shape[0]
        g = gy.reshape(b, self.out_channels, self._ho * self._wo)
        self.gw += np.einsum("bop,bfp->of", g, self._cols)
        if self.b is not None:
            self.gb += g.sum(axis=(0, 2))
        gcols = np.einsum("of,bop->bfp", self.w, g)
        return col2im(gcols, self._x_shape, self.kernel, self.stride, self.pad,
                      self._ho, self._wo)


class ReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0)

    def backward(self, gy):
        return np.where(self._mask, gy, 0)


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2; trailing odd row/column dropped (floor shapes)."""

    def forward(self, x):
        b, c, h, w = x.shape
        ho, wo = h // 2, w // 2
        if ho < 1 or wo < 1:
            raise ShapeError(f"maxpool needs spatial dims >= 2, got {h}x{w}")
        xc = x[:, :, : 2 * ho, : 2 * wo]
        windows = xc.reshape(b, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5)
        flat = windows.reshape(b, c, ho, wo, 4)
        self._arg = flat.argmax(axis=-1)  # first max wins ties: deterministic
        self._x_shape = x.shape
        return flat.max(axis=-1)

    def backward(self, gy):
        b, c, h, w = self._x_shape
        ho, wo = h // 2, w // 2
        gflat = np.zeros((b, c, ho, wo, 4), dtype=gy.dtype)
        np.put_along_axis(gflat, self._arg[..., None], gy[..., None], axis=-1)
        gx = np.zeros(self._x_shape, dtype=gy.dtype)
        gx[:, :, : 2 * ho, : 2 * wo] = (
            gflat.reshape(b, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, 2 * ho, 2 * wo)
        )
        return gx


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

    def forward(self, x):
        h = self.relu1.forward(self.conv1.forward(x))
        return self.relu2.forward(self.conv2.forward(h) + x)

    def backward(self, gy):
        g = self.relu2.backward(gy)
        gh = self.conv2.backward(g)
        gx = self.conv1.backward(self.relu1.backward(gh))
        return gx + g


class Reshape(Layer):
    """Reinterpret (B, F, 1, 1) features as a (B, C, H, W) map so spatial
    augmentations act on dense-layer activations."""

    def __init__(self, channels, height, width):
        self.shape = (channels, height, width)

    def forward(self, x):
        b = x.shape[0]
        if int(np.prod(x.shape[1:])) != int(np.prod(self.shape)):
            raise ShapeError(f"cannot reshape {x.shape[1:]} to {self.shape}")
        self._in_shape = x.shape
        return x.reshape(b, *self.shape)

    def backward(self, gy):
        return gy.reshape(self._in_shape)


class GlobalAvgPool(Layer):
    def forward(self, x):
        self._x_shape = x.shape
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, gy):
        _, _, h, w = self._x_shape
        return np.broadcast_to(gy / (h * w), self._x_shape).copy()
