"""Synthesize dirty images from clean ones.

Intensities live on [0, 255]. Gaussian noise is additive i.i.d. per pixel;
Poisson noise draws photon counts at ``poisson_scale`` counts per intensity
unit and rescales. Clamping back into [0, 255] is the only nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import InvalidInputError, InvalidSpecError
from .rng import Rng

GAUSSIAN = "gaussian"
POISSON = "poisson"

INTENSITY_MAX = 255.0


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = GAUSSIAN
    mu: float = 0.0
    sigma: float = 0.0
    poisson_scale: float = 0.1  # counts per intensity unit
    seed: int = 0

    def validate(self) -> "NoiseSpec":
        if self.kind not in (GAUSSIAN, POISSON):
            raise InvalidSpecError(f"unknown noise kind {self.kind!r}")
        if self.kind == GAUSSIAN and self.sigma < 0:
            raise InvalidSpecError(f"gaussian sigma must be >= 0, got {self.sigma}")
        if self.kind == POISSON and self.poisson_scale <= 0:
            raise InvalidSpecError(f"poisson_scale must be > 0, got {self.poisson_scale}")
        return self

    def with_seed(self, seed: int) -> "NoiseSpec":
        return NoiseSpec(self.kind, self.mu, self.sigma, self.poisson_scale, seed)


def noise_tag(spec: NoiseSpec) -> str:
    """Label of a test noise in metrics file names and compare.csv rows.

    It leaves out ``mu`` and the seed, so a config whose test noises share a
    tag is rejected (``ExperimentConfig.validate``).
    """
    if spec.kind == GAUSSIAN:
        return f"gaussian_sigma{spec.sigma:g}"
    return f"poisson_scale{spec.poisson_scale:g}"


def gaussian_field(spec: NoiseSpec, shape: tuple) -> np.ndarray:
    """Pre-clamp additive Gaussian noise field (float64)."""
    spec.validate()
    if spec.kind != GAUSSIAN:
        raise InvalidSpecError(f"expected gaussian spec, got {spec.kind}")
    rng = Rng(spec.seed)
    n = int(np.prod(shape))
    return rng.gaussian(n, spec.mu, spec.sigma).reshape(shape)


def poisson_field(spec: NoiseSpec, image: np.ndarray) -> np.ndarray:
    """Pre-clamp Poisson resampling of an image (float64)."""
    spec.validate()
    if spec.kind != POISSON:
        raise InvalidSpecError(f"expected poisson spec, got {spec.kind}")
    if np.any(image < 0):
        raise InvalidInputError("poisson noise requires non-negative pixel values")
    rng = Rng(spec.seed)
    lam = spec.poisson_scale
    counts = rng.poisson(np.asarray(image, dtype=np.float64) * lam)
    return counts.astype(np.float64) / lam


def add_gaussian(image: Tensor, spec: NoiseSpec) -> Tensor:
    """image + N(mu, sigma^2) i.i.d. per pixel, clamped into [0, 255]."""
    field = gaussian_field(spec, image.shape)
    noisy = np.clip(image.data.astype(np.float64) + field, 0.0, INTENSITY_MAX)
    return Tensor(noisy.astype(np.float32))


def add_poisson(image: Tensor, spec: NoiseSpec) -> Tensor:
    """Poisson(scale * pixel) / scale per pixel, clamped into [0, 255]."""
    resampled = poisson_field(spec, image.data)
    return Tensor(np.clip(resampled, 0.0, INTENSITY_MAX).astype(np.float32))


def apply_noise(image: Tensor, spec: NoiseSpec) -> Tensor:
    spec.validate()
    if spec.kind == GAUSSIAN:
        return add_gaussian(image, spec)
    return add_poisson(image, spec)
