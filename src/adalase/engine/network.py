"""Layer stack with augmentation tap positions and reverse-mode gradients."""

import numpy as np

from ..errors import ShapeError, StateError, TapRangeError
from .losses import cross_entropy


class Network:
    """Ordered layers plus tap positions P0..P(K-1) where augmentation may inject.

    A tap index k marks the activation entering ``layers[taps[k]]``; tap 0 is
    always the input. All parameters live in one flat buffer ``theta`` and all
    gradients in ``grad``, in declaration order: every layer's ``w``/``b`` and
    ``gw``/``gb`` are reshaped views into them, so the layout of the flat
    gradient is fixed by the topology.
    """

    def __init__(self, layers, taps):
        if not layers:
            raise ShapeError("network needs at least one layer")
        taps = list(taps)
        if not taps or taps[0] != 0:
            raise TapRangeError("tap 0 must mark the network input (layer index 0)")
        if any(b <= a for a, b in zip(taps, taps[1:])):
            raise TapRangeError(f"tap indices must be strictly increasing, got {taps}")
        if taps[-1] >= len(layers):
            raise TapRangeError(f"tap index {taps[-1]} beyond last layer {len(layers) - 1}")
        self.layers = layers
        self.taps = taps
        self._forward_ready = False
        self._slots = [(f"layer{i}.{name}", owner, attr) for i, layer in enumerate(layers)
                       for name, owner, attr in layer.param_slots()]
        params = [getattr(owner, attr) for _, owner, attr in self._slots]
        self.theta = np.concatenate([p.ravel() for p in params]) if params else np.zeros(0)
        self.grad = np.zeros_like(self.theta)
        offset = 0
        for (_, owner, attr), p in zip(self._slots, params):
            end = offset + p.size
            setattr(owner, attr, self.theta[offset:end].reshape(p.shape))
            setattr(owner, "g" + attr, self.grad[offset:end].reshape(p.shape))
            offset = end

    @property
    def num_taps(self):
        return len(self.taps)

    # ---- flat parameter buffer ----------------------------------------------

    def named_params(self):
        return [(name, getattr(owner, attr)) for name, owner, attr in self._slots]

    def num_params(self):
        return self.theta.size

    def param_vector(self):
        return self.theta.copy()

    def set_param_vector(self, vec):
        vec = np.asarray(vec)
        if vec.size != self.theta.size:
            raise ShapeError(f"expected {self.theta.size} params, got {vec.size}")
        self.theta[:] = vec.ravel()

    def grad_vector(self):
        return self.grad.copy()

    # ---- forward / backward -------------------------------------------------

    def predict(self, x):
        """Plain forward pass in ``theta``'s dtype; returns (batch, classes) logits.

        Layers keep no state for backward (``keep=False``) and drop what the
        last pass kept, so a pending backward is disarmed.
        """
        self._forward_ready = False
        cur = np.asarray(x, dtype=self.theta.dtype)
        for layer in self.layers:
            cur = layer.forward(cur, keep=False)
        return cur.reshape(cur.shape[0], -1)

    def forward_with_tap(self, x, labels, tap=None, aug=None, rng=None, keep=True):
        """Forward pass with one optional augmentation injected at tap ``tap``.

        Returns (logits, loss, mixed_labels). With aug=None (or kind "none")
        or tap=None the result is bitwise identical to a tapless pass. Input
        and labels are cast to ``theta``'s dtype, so the network computes in
        the dtype of its parameters. The labels are checked once, by the loss,
        after the layers have run. With ``keep=False`` (a loss-only pass)
        layers keep nothing for backward, and a later ``backward`` raises
        StateError; so does one after a forward that raised.
        """
        # looked up at call time: perfbench's tracer swaps ``augment.apply_at_position``
        from ..augment import apply_at_position

        self._forward_ready = False
        x = np.asarray(x, dtype=self.theta.dtype)
        labels = np.asarray(labels, dtype=self.theta.dtype)
        if x.ndim != 4:
            raise ShapeError(f"input must be rank-4 (B,C,H,W), got shape {x.shape}")
        if labels.shape[:1] != x.shape[:1]:  # a 0-d label array has no batch axis
            raise ShapeError(f"batch mismatch: input {x.shape} vs labels {labels.shape}")
        apply_aug = tap is not None and aug is not None and aug.kind != "none"
        if tap is not None and not (0 <= tap < self.num_taps):
            raise TapRangeError(f"tap {tap} out of range for {self.num_taps} positions")

        tap_layer = self.taps[tap] if apply_aug else -1
        aug_grad_fn = None
        cur = x
        cur_labels = labels
        for i, layer in enumerate(self.layers):
            if apply_aug and i == tap_layer:
                outcome = apply_at_position(aug, cur, cur_labels, rng, position=tap)
                cur = outcome.tensor
                cur_labels = outcome.labels
                aug_grad_fn = outcome.grad_fn
            cur = layer.forward(cur, keep=keep)

        logits = cur.reshape(cur.shape[0], -1)
        loss, dlogits = cross_entropy(logits, cur_labels)
        self._dlogits = dlogits
        self._logits_shape = cur.shape
        self._tap_layer = tap_layer
        self._aug_grad_fn = aug_grad_fn
        self._forward_ready = keep
        return logits, loss, cur_labels

    def backward(self):
        """Reverse pass for the last forward_with_tap; returns the flat gradient.

        The input is data, so the pass stops at layer 0's parameter gradients:
        no input gradient is formed and a tap-0 ``grad_fn`` is never applied.
        """
        if not self._forward_ready:
            raise StateError("backward called before forward_with_tap")
        self.grad.fill(0)
        g = self._dlogits.reshape(self._logits_shape)
        for i in range(len(self.layers) - 1, 0, -1):
            g = self.layers[i].backward(g)
            if i == self._tap_layer and self._aug_grad_fn is not None:
                g = self._aug_grad_fn(g)
        if self.layers[0].param_slots():
            self.layers[0].backward(g, input_grad=False)
        self._forward_ready = False
        return self.grad_vector()


def finite_diff_grad(net, x, labels, eps=1e-5, tap=None, aug=None, rng_seed=None):
    """Central-difference gradient oracle over all parameters (64-bit only).

    When an augmentation is supplied, every loss evaluation re-seeds its rng
    from ``rng_seed`` so the stochastic pass is held fixed. In float32 a bump
    of ``eps`` is lost in the loss's rounding, so a ``theta`` that is not
    float64 raises StateError.
    """
    if net.theta.dtype != np.float64:
        raise StateError(f"finite_diff_grad needs a float64 network, got theta dtype "
                         f"{net.theta.dtype}")

    def loss_at(vec):
        net.set_param_vector(vec)
        rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
        _, loss, _ = net.forward_with_tap(x, labels, tap=tap, aug=aug, rng=rng)
        return loss

    theta = net.param_vector()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = eps
        grad[i] = (loss_at(theta + bump) - loss_at(theta - bump)) / (2 * eps)
    net.set_param_vector(theta)
    return grad
