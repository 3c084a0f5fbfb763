"""Latent data augmentation with adaptive tap-position selection."""

import os


def _apply_thread_cap():
    # BLAS reads its thread count when numpy loads, so this runs before any import of numpy
    cap = os.environ.get("ADALASE_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_apply_thread_cap()

from .augment import AugOutcome, AugSpec, apply_at_position, cutmix, cutout, mixup, rotation, translation
from .data import Dataset, batch_iter, gen_synthetic, load_cifar_bin, load_idx, pseudo_val_batch, subsample
from .engine import (Network, build_mlp, build_tiny_cnn, cross_entropy, finite_diff_grad,
                     grad_dot, load_weights, one_hot, save_weights)
from .ratios import (AcceptanceRatios, AdaLaseConfig, RatioSchedule, adalase_update,
                     averaged_update, init_ratios, sample_position, schedule_ratios)
from .trainer import (OptimizerState, Splits, TrainConfig, TrainResult, adalase_iteration,
                      audit_worst_layer, cosine_lr, evaluate, probe_layer_losses,
                      sgd_momentum_step, train)

__version__ = "0.1.0"
