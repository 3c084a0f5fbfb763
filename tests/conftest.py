"""Shared fixtures and helpers for the test suite."""

import struct

import numpy as np
import pytest

from adalase.engine.builders import build_mlp, build_tiny_cnn


def perturb_params(net, rng, scale=0.05):
    """Add small Gaussian noise to all parameters.

    Freshly built nets have zero biases, which parks some ReLU inputs exactly
    at the kink where central differences are one-sided. A tiny perturbation
    moves the activations off the kink without changing anything else.
    """
    vec = net.param_vector()
    net.set_param_vector(vec + rng.normal(0.0, scale, size=vec.size))
    return net


def batch_innermost_view(a):
    """Same values as ``a``, laid out as the (C, H, W, B) buffer behind a
    (B, C, H, W) view: the layout conv outputs hand to the next layer."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def is_batch_innermost(a):
    """Whether (B, C, H, W) array ``a`` is a view of a C-ordered (C, H, W, B) buffer."""
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


def write_idx_pair(tmp_path, images, labels):
    """Write (N, rows, cols) uint8 images and their labels as an IDX pair in
    directory ``tmp_path``; returns the two paths."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return str(img_path), str(lab_path)


def tiny_mlp(seed, side=4, hidden=4, classes=2, dtype=np.float64):
    net = build_mlp((1, side, side), hidden, classes, seed, dtype=dtype)
    return perturb_params(net, np.random.default_rng([seed, 97]))


def tiny_cnn(seed, side=6, classes=2, width=2, dtype=np.float64):
    net = build_tiny_cnn((1, side, side), classes, seed, width=width, dtype=dtype)
    return perturb_params(net, np.random.default_rng([seed, 97]))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
