"""Task-guided image denoising experiments.

A denoising network can be trained two ways: against clean pixels (the
usual route) or through the loss of the downstream segmentation or
classification network it feeds. This package implements both, plus the
no-denoising baselines, on deterministic synthetic phantom data, with an
8x8 block-DCT toolkit for comparing what each kind of denoiser keeps.
"""

from .autodiff import Tape, Tensor, backward
from .config import ExperimentConfig, parse_config
from .data import DatasetSpec, Sample, generate_dataset
from .dct import block_coefficients, frequency_gradient, spectrum_sd
from .metrics import MetricsReport, aggregate, evaluate_segmentation_sample, hausdorff
from .networks import Model, NetworkSpec, build_network, load_checkpoint, save_checkpoint
from .noise import NoiseSpec, apply_noise
from .optim import AdamState, adam_step, make_adam_state, xavier_uniform_init
from .rng import Rng, derive_seed
from .schemes import (
    TrainSettings,
    composed_task_loss,
    evaluate_scheme,
    train_application,
    train_denoiser_hv,
    train_denoiser_nnv,
)

__version__ = "0.1.0"
