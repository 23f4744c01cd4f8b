"""Synthesize dirty images from clean ones.

Intensities live on [0, 255]. Gaussian noise is additive i.i.d. per pixel;
Poisson noise draws photon counts at ``poisson_scale`` counts per intensity
unit and rescales. Clamping back into [0, 255] is the only nonlinearity.
"""

from __future__ import annotations

import math
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

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, POISSON):
            raise InvalidSpecError(f"unknown noise kind {self.kind!r}")
        for name in ("mu", "sigma", "poisson_scale"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"noise {name} must be finite, got {getattr(self, name)}")
        if self.kind == GAUSSIAN and self.sigma < 0:
            raise InvalidSpecError(f"gaussian sigma must be >= 0, got {self.sigma}")
        if self.kind == POISSON and self.poisson_scale <= 0:
            raise InvalidSpecError(f"poisson_scale must be > 0, got {self.poisson_scale}")


def noise_tag(spec: NoiseSpec) -> str:
    """Label of a test noise in metrics file names and compare.csv rows.

    It leaves out ``mu`` and the seed, so a config whose test noises share a
    tag is rejected when an :class:`ExperimentConfig` is built.
    """
    if spec.kind == GAUSSIAN:
        return f"gaussian_sigma{spec.sigma:g}"
    return f"poisson_scale{spec.poisson_scale:g}"


def apply_noise(image: Tensor, spec: NoiseSpec) -> Tensor:
    """The image with ``spec``'s noise drawn from ``Rng(spec.seed)``, clamped
    into [0, 255]: Gaussian adds N(mu, sigma^2) i.i.d. per pixel; Poisson
    draws Poisson(scale * pixel) / scale, and rejects negative pixels."""
    rng = Rng(spec.seed)
    pixels = image.data.astype(np.float64)
    if spec.kind == GAUSSIAN:
        noisy = pixels + rng.gaussian(pixels.size, spec.mu, spec.sigma).reshape(pixels.shape)
    else:
        if np.any(pixels < 0):
            raise InvalidInputError("poisson noise requires non-negative pixel values")
        noisy = rng.poisson(pixels * spec.poisson_scale) / spec.poisson_scale
    return Tensor(np.clip(noisy, 0.0, INTENSITY_MAX).astype(np.float32))
