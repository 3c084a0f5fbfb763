from .builders import build_mlp, build_network, build_tiny_cnn
from .checkpoint import load_weights, save_weights
from .layers import Conv2d, Dense, GlobalAvgPool, MaxPool2x2, ReLU, ResidualBlock
from .losses import cross_entropy, grad_dot, one_hot
from .network import Network, finite_diff_grad

__all__ = [
    "Network",
    "finite_diff_grad",
    "cross_entropy",
    "grad_dot",
    "one_hot",
    "Dense",
    "Conv2d",
    "ReLU",
    "MaxPool2x2",
    "ResidualBlock",
    "GlobalAvgPool",
    "build_mlp",
    "build_tiny_cnn",
    "build_network",
    "save_weights",
    "load_weights",
]
