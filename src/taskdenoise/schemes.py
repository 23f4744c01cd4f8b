"""The four experiment schemes and their training procedures.

TC and TD train the application network directly on clean or dirty images.
HV trains a denoiser on (dirty, clean) pairs with pixel MSE. NNV trains a
denoiser through the frozen clean-trained application network, minimizing
the task loss of the composition. Evaluation scores the application
network's prediction on each test image, dirty or denoised by the scheme's
denoiser, into the per-sample rows of :mod:`metrics`.

Whether the networks fit the data and each other is decided before any of
this runs, by ``config.check_fit``; called directly with networks that do
not fit, a procedure fails with the op's InvalidShapeError on its first
forward pass, before any update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as metrics_mod
from .autodiff import Tape, Tensor, backward, cross_entropy_loss, mse_loss
from .data import Sample
from .errors import ConfigError, InvalidInputError, TrainingDivergedError
from .metrics import MetricsReport
from .networks import Model
from .noise import NoiseSpec, apply_noise
from .optim import adam_step, make_adam_state
from .rng import Rng, derive_seed

TC, TD, HV, NNV = "tc", "td", "hv", "nnv"
SCHEME_KINDS = (TC, TD, HV, NNV)


@dataclass(frozen=True)
class TrainSettings:
    """Training hyperparameters shared by every network an experiment trains."""

    epochs_application: int = 30
    epochs_denoiser: int = 30
    learning_rate: float = 1e-3
    checkpoint_cadence: int = 1
    validation_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.epochs_application < 1 or self.epochs_denoiser < 1:
            raise ConfigError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.checkpoint_cadence < 1:
            raise ConfigError("checkpoint_cadence must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in [0, 1)")


@dataclass
class TrainResult:
    trace: list = field(default_factory=list)  # (epoch, train_loss, val_loss)
    best_epoch: int = 0
    best_val_loss: float = math.inf


def corrupt_samples(samples: list[Sample], noise_spec: NoiseSpec | None, split_label: str) -> list[Tensor]:
    """Dirty image per sample, with per-sample seeds derived from the spec seed."""
    if noise_spec is None:
        return [s.image for s in samples]
    out = []
    for i, s in enumerate(samples):
        per_sample = replace(noise_spec, seed=derive_seed(noise_spec.seed, f"{split_label}/{i}"))
        out.append(apply_noise(s.image, per_sample))
    return out


def composed_task_loss(denoiser: Model | None, application: Model, image: Tensor, target, train_denoiser: bool = False) -> Tensor:
    """Task loss of the (denoiser -> application) composition as one expression.

    With ``denoiser=None`` the image feeds the application directly, so the
    composed loss is bit-identical to the application-only loss.
    """
    h = image if denoiser is None else denoiser.forward(image, train=train_denoiser)
    return cross_entropy_loss(application.forward(h, train=False), target)


# ---------------------------------------------------------------------------
# Shared training loop


def _snapshot(model: Model) -> list[np.ndarray]:
    return [t.data.copy() for _, t in model.named_state()]


def _restore(model: Model, snapshot: list[np.ndarray]) -> None:
    for (_, t), data in zip(model.named_state(), snapshot):
        t.data = data


def _run_training(
    model: Model, samples: list[Sample], noise_spec: NoiseSpec | None, settings: TrainSettings,
    purpose: str, seed: int, loss_fn,
) -> TrainResult:
    """Adam training over the samples with best-validation checkpoint selection.

    Each sample's training image is drawn once, by ``corrupt_samples`` with
    ``noise_spec`` (the clean image without one). ``purpose``
    ("application" or "denoiser") picks the epoch count, and the shuffle
    order derives from the global ``seed`` and the purpose.
    ``loss_fn(image, sample, train)`` is the loss of one sample: recorded
    for the step with ``train=True``, computed for selection with
    ``train=False``. A held-out tail of the samples (validation_fraction)
    drives checkpoint selection; with no holdout the training loss is used
    instead.
    """
    items = list(zip(corrupt_samples(samples, noise_spec, "train"), samples))
    epochs = settings.epochs_application if purpose == "application" else settings.epochs_denoiser
    n_val = int(round(settings.validation_fraction * len(items)))
    n_val = min(n_val, len(items) - 1)
    train_items = items[: len(items) - n_val]
    val_items = items[len(items) - n_val :]

    trainable = [p for p in model.parameters() if p.requires_grad]
    state = make_adam_state(trainable, lr=settings.learning_rate)
    shuffle_rng = Rng(derive_seed(derive_seed(seed, f"train/{purpose}"), "shuffle"))
    result = TrainResult()
    best = _snapshot(model)

    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(train_items))
        total = 0.0
        for step, idx in enumerate(order):
            with Tape() as tape:
                loss = loss_fn(*train_items[int(idx)], True)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDivergedError(epoch, step)
                grads = backward(loss, tape)
            adam_step(trainable, grads, state)
            total += value
        train_loss = total / max(1, len(train_items))
        if val_items and (epoch % settings.checkpoint_cadence == 0 or epoch == epochs):
            val_loss = float(np.mean([loss_fn(*item, False).item() for item in val_items]))
        elif val_items:
            val_loss = math.nan
        else:
            val_loss = train_loss
        result.trace.append((epoch, train_loss, val_loss))
        if math.isfinite(val_loss) and val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best = _snapshot(model)
    if result.best_epoch:
        _restore(model, best)
    return result


# ---------------------------------------------------------------------------
# Scheme training procedures


def train_application(
    model: Model, samples: list[Sample], settings: TrainSettings, noise_spec: NoiseSpec | None = None, seed: int = 0
) -> TrainResult:
    """Train a segmentation/classification network on clean or dirty images."""

    def loss_fn(image: Tensor, sample: Sample, train: bool):
        return cross_entropy_loss(model.forward(image, train=train), sample.target)

    return _run_training(model, samples, noise_spec, settings, "application", seed, loss_fn)


def train_denoiser_hv(
    model: Model, samples: list[Sample], settings: TrainSettings, noise_spec: NoiseSpec, seed: int = 0
) -> TrainResult:
    """Train a denoiser on paired (dirty, clean) images with pixel MSE."""

    def loss_fn(image: Tensor, sample: Sample, train: bool):
        return mse_loss(model.forward(image, train=train), sample.image)

    return _run_training(model, samples, noise_spec, settings, "denoiser", seed, loss_fn)


def train_denoiser_nnv(
    model: Model, application: Model, samples: list[Sample], settings: TrainSettings, noise_spec: NoiseSpec, seed: int = 0
) -> TrainResult:
    """Train a denoiser through the frozen application network's task loss.

    Only the denoiser parameters update; the application network's weights
    are bit-identical before and after.
    """
    application.set_trainable(False)

    def loss_fn(image: Tensor, sample: Sample, train: bool):
        return composed_task_loss(model, application, image, sample.target, train_denoiser=train)

    try:
        return _run_training(model, samples, noise_spec, settings, "denoiser", seed, loss_fn)
    finally:
        application.set_trainable(True)


# ---------------------------------------------------------------------------
# Evaluation


def predict(application: Model, image: Tensor):
    """The application network's hard prediction for one image (dirty, or
    already denoised): the int32 class of each pixel, or of the image."""
    return application.forward(image, train=False).data.argmax(axis=0).astype(np.int32)


def evaluate_scheme(application: Model, test_samples: list[Sample], images: list[Tensor]) -> MetricsReport:
    """Score the application network on each test image (one per sample: the
    dirty image, or the scheme's denoised one) and report its (sample,
    class, metric, value) rows, scored right after each prediction.

    Neither model nor image is modified, so one set of images and one loaded
    model can serve every scheme.
    """
    if len(images) != len(test_samples):
        raise InvalidInputError(f"{len(images)} images for {len(test_samples)} test samples")
    num_classes = application.spec.num_classes
    rows = []
    for i, (image, sample) in enumerate(zip(images, test_samples)):
        pred = predict(application, image)
        if sample.target.ndim == 0:
            rows += [(i, "", "predicted", pred), (i, "", "top1", float(pred == sample.target))]
        else:
            scored = metrics_mod.evaluate_segmentation_sample(pred, sample.target, num_classes)
            rows += [(i, *row) for row in scored]
    return metrics_mod.report(rows)
