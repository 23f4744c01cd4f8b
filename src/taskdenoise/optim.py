"""Adam optimizer and Xavier-uniform parameter initialization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import InvalidShapeError
from .rng import Rng

_F32 = np.float32
_F64 = np.float64

# moment decay rates and the denominator's floor of every Adam update
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus the shared step counter."""

    lr: float = 1e-3
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def make_adam_state(params: list[Tensor], lr: float = 1e-3) -> AdamState:
    state = AdamState(lr=lr)
    state.m = [np.zeros(p.shape, dtype=_F32) for p in params]
    state.v = [np.zeros(p.shape, dtype=_F32) for p in params]
    return state


def adam_step(params: list[Tensor], grads: dict, state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    ``grads`` maps parameter tensors to gradient arrays (missing entries
    are treated as zero gradients: moments decay, parameters barely move).
    Moment math runs in float64 and is stored back as float32.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for i, p in enumerate(params):
        g = grads.get(p)
        g64 = np.zeros(p.shape, dtype=_F64) if g is None else g.astype(_F64)
        m64 = BETA1 * state.m[i].astype(_F64) + (1.0 - BETA1) * g64
        v64 = BETA2 * state.v[i].astype(_F64) + (1.0 - BETA2) * g64 * g64
        state.m[i] = m64.astype(_F32)
        state.v[i] = v64.astype(_F32)
        update = state.lr * (m64 / bc1) / (np.sqrt(v64 / bc2) + EPS)
        p.data = (p.data.astype(_F64) - update).astype(_F32)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) == 4:
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    if len(shape) == 2:
        return shape[1], shape[0]
    raise InvalidShapeError(f"no fan convention for shape {shape}")


def xavier_uniform_init(shape: tuple, seed: int) -> Tensor:
    """Uniform on [-sqrt(6/(fan_in+fan_out)), +sqrt(...)], deterministic per seed."""
    fan_in, fan_out = _fans(tuple(shape))
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    rng = Rng(seed)
    n = 1
    for e in shape:
        n *= e
    samples = (rng.uniform(n) * 2.0 - 1.0) * bound
    return Tensor(samples.reshape(shape).astype(_F32))
