"""Deterministic random number generation.

Every random draw in the package goes through :class:`Rng`, a SplitMix64
stream (counter-based: output ``i`` is a bit-mix of ``seed + (i+1) * GAMMA``).
That keeps artifacts bit-reproducible across platforms and library versions,
and lets independent purposes derive independent streams from one global
seed via :func:`derive_seed`.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# 2**-53: converts the top 53 bits of a u64 to a double in [0, 1)
_U53 = 1.0 / (1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent stream seed from (seed, purpose label).

    FNV-1a over the label bytes, folded into the seed through the SplitMix64
    finalizer. Labels are free-form strings like ``"noise/train/17"``.
    """
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    z = _mix64(np.array([(seed + _GAMMA) & _MASK64], dtype=np.uint64))
    return int(_mix64(z ^ np.uint64(h))[0])


class Rng:
    """SplitMix64 stream with vectorized sampling helpers.

    All methods return float64 / int64 numpy arrays; callers cast to their
    storage dtype. The stream position advances by exactly the number of
    raw draws consumed, so a given (seed, call sequence) is reproducible.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK64)
        self._count = 0

    def next_u64(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + 1 + n, dtype=np.uint64)
        self._count += n
        return _mix64(self._seed + idx * np.uint64(_GAMMA))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * _U53

    def uniform_open(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1] (safe to pass to log)."""
        return ((self.next_u64(n) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _U53

    def gaussian(self, n: int, sigma: float = 1.0) -> np.ndarray:
        """n Box-Muller draws from N(0, sigma^2)."""
        half = (n + 1) // 2
        u1 = self.uniform_open(half)
        u2 = self.uniform(half)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return sigma * z

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")

    def poisson(self, mean: np.ndarray) -> np.ndarray:
        """Per-element Poisson draws for an array of means (int64).

        Means below 30 use Knuth's product-of-uniforms method; larger means
        use Hormann's PTRS transformed rejection. Lanes are processed in
        ascending linear-index order within each branch, so results are a
        pure function of (stream position, mean array).
        """
        mean = np.asarray(mean, dtype=np.float64)
        flat = mean.ravel()
        if not np.all(flat >= 0):  # NaN as well: no draw would ever be accepted for it
            raise ValueError("Poisson mean must be non-negative")
        out = np.zeros(flat.shape, dtype=np.int64)
        small = flat < 30.0
        if np.any(small):
            out[small] = self._poisson_knuth(flat[small])
        large = ~small
        if np.any(large):
            out[large] = self._poisson_ptrs(flat[large])
        return out.reshape(mean.shape)

    def _poisson_knuth(self, mean: np.ndarray) -> np.ndarray:
        k = np.zeros(mean.size, dtype=np.int64)
        limit = np.exp(-mean)
        lanes = np.arange(mean.size)  # the lanes still multiplying, ascending
        p = np.ones(mean.size)
        # p(0)=1 > e^-0 fails immediately for mean 0, giving Poisson(0)=0
        while lanes.size:
            p = p * self.uniform(lanes.size)
            cont = p > limit
            lanes, p, limit = lanes[cont], p[cont], limit[cont]
            k[lanes] += 1
        return k

    def _poisson_ptrs(self, mean: np.ndarray) -> np.ndarray:
        n = mean.size
        out = np.zeros(n, dtype=np.int64)
        b = 0.931 + 2.53 * np.sqrt(mean)
        a = -0.059 + 0.02483 * b
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        v_r = 0.9277 - 3.6224 / (b - 2.0)
        log_mean = np.log(mean)
        lgam = np.frompyfunc(math.lgamma, 1, 1)
        pending = np.arange(n)
        while pending.size > 0:
            m = pending.size
            u = self.uniform(m) - 0.5
            v = self.uniform(m)
            us = 0.5 - np.abs(u)
            k = np.floor((2.0 * a[pending] / us + b[pending]) * u + mean[pending] + 0.43)
            accept = (us >= 0.07) & (v <= v_r[pending])
            reject = (k < 0) | ((us < 0.013) & (v > us))
            needs_log = ~accept & ~reject
            if np.any(needs_log):
                kk = k[needs_log]
                pp = pending[needs_log]
                lhs = np.log(v[needs_log] * inv_alpha[pp] / (a[pp] / (us[needs_log] ** 2) + b[pp]))
                rhs = kk * log_mean[pp] - mean[pp] - lgam(kk + 1.0).astype(np.float64)
                accept_log = lhs <= rhs
                full = np.zeros(m, dtype=bool)
                full[needs_log] = accept_log
                accept = accept | full
            out[pending[accept]] = k[accept].astype(np.int64)
            pending = pending[~accept]
        return out
