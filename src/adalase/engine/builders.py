"""Ready-made tap-instrumented architectures at desk scale."""

import numpy as np

from .layers import (Conv2d, Dense, GlobalAvgPool, MaxPool2x2, ReLU, Reshape,
                     ResidualBlock)
from .network import Network

# the layer index each tap marks, per model kind
TAPS = {"mlp": (0, 3), "tiny_cnn": (0, 2, 3, 5)}


def build_mlp(input_shape, hidden, num_classes, seed, dtype=np.float64):
    """Two-layer MLP with taps at the input (P0) and the hidden activation (P1).

    ``hidden`` must be a perfect square: the hidden activation is viewed as a
    single-channel square map so spatial augmentations apply at P1.
    """
    c, h, w = input_shape
    side = int(round(np.sqrt(hidden)))
    if side * side != hidden:
        raise ValueError(f"mlp hidden size must be a perfect square, got {hidden}")
    rng = np.random.default_rng(seed)
    layers = [
        Dense(c * h * w, hidden, rng, dtype=dtype),  # 0
        Reshape(1, side, side),                      # 1
        ReLU(),                                      # 2
        Dense(hidden, num_classes, rng, dtype=dtype),  # 3  <- P1 before it
    ]
    return Network(layers, taps=TAPS["mlp"])


def build_tiny_cnn(input_shape, num_classes, seed, width=8, dtype=np.float64):
    """Small residual CNN with four taps: input, after stem, after each block.

    Taps sit outside the residual blocks, on the block outputs.
    """
    c, h, w = input_shape
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(c, width, 3, rng, pad=1, dtype=dtype),   # 0 stem  <- P0 before it
        ReLU(),                                         # 1
        ResidualBlock(width, rng, dtype=dtype),         # 2       <- P1 before it
        MaxPool2x2(),                                   # 3       <- P2 before it
        ResidualBlock(width, rng, dtype=dtype),         # 4
        GlobalAvgPool(),                                # 5       <- P3 before it
        Dense(width, num_classes, rng, dtype=dtype),    # 6
    ]
    return Network(layers, taps=TAPS["tiny_cnn"])


def build_network(model_cfg, input_shape, num_classes, seed):
    """The network ``model_cfg`` names, computing in float32."""
    kind = model_cfg["kind"]
    if kind == "mlp":
        return build_mlp(input_shape, model_cfg["hidden"], num_classes, seed,
                         dtype=np.float32)
    if kind == "tiny_cnn":
        return build_tiny_cnn(input_shape, num_classes, seed, width=model_cfg["width"],
                              dtype=np.float32)
    raise ValueError(f"unknown model kind {kind!r}")
