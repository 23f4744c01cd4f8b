"""Shared test helpers: finite-difference gradient checking and a digest
of a model's parameters and running statistics.

Forward values are float32, so central differences carry rounding noise of
roughly eps32 * |output| / (2h), about 1e-4 absolute at h = 1e-3 for
unit-scale outputs. The checker accumulates its probe loss in float64 and
compares per-element relative error with the denominator floored at 1.0:
gradients at or above unit scale are checked at the stated relative
tolerance, smaller ones at the same absolute tolerance, which sits an order
of magnitude above the noise floor. Structural backward bugs (sign,
indexing, scaling) produce errors at the scale of the gradients themselves
and are caught either way; convolution gradients are additionally pinned by
noise-free brute-force float64 oracles in the op tests.
"""

from __future__ import annotations

import hashlib

import numpy as np

from taskdenoise import autodiff as ad
from taskdenoise.autodiff import Tape, Tensor

FD_H = 1e-3
FD_TOL = 1e-3
FD_FLOOR = 1.0


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = FD_FLOOR) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def fd_gradient(f, param: Tensor, h: float = FD_H, indices=None) -> dict:
    """Central-difference gradient of scalar f() w.r.t. selected param entries."""
    flat = param.data.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    grads = {}
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + h
        plus = f()
        flat[idx] = orig - h
        minus = f()
        flat[idx] = orig
        grads[idx] = (plus - minus) / (2.0 * h)
    return grads


def check_op_gradients(op_forward, params, probe_seed: int = 0, tol: float = FD_TOL, h: float = FD_H):
    """Verify analytic gradients of sum(w * op_forward()) for every param entry.

    ``op_forward`` rebuilds the op output from the current param data. The
    probe weights w are fixed float32 values, so the analytic loss (a linear
    head) and the finite-difference probe weight the output alike; the
    probe's loss is accumulated in float64 by the checker itself.
    """
    out0 = op_forward()
    w = np.random.default_rng(probe_seed).normal(size=out0.data.shape).astype(np.float32)

    with Tape(params) as tape:
        weighted = ad.linear(ad.flatten(op_forward()), Tensor(w.reshape(1, -1)), Tensor(np.zeros(1)))
        grads = ad.backward(ad.tsum(weighted), tape)

    def probe() -> float:
        return float((op_forward().data.astype(np.float64) * w).sum())

    for p in params:
        analytic = grads[p].reshape(-1)
        fd = fd_gradient(probe, p, h=h)
        for idx, fd_val in fd.items():
            err = rel_err(analytic[idx], fd_val)
            assert err < tol, f"param entry {idx}: analytic {analytic[idx]:.6g} vs fd {fd_val:.6g} (err {err:.3g})"


def parameter_checksum(model) -> bytes:
    """Order-sensitive digest of every parameter's name and bytes, then of
    the running statistics' bytes (freeze verification)."""
    h = hashlib.sha256()
    params = model.named_parameters()
    for name, p in params:
        h.update(name.encode())
        h.update(p.data.tobytes())
    for _, stat in model.named_state()[len(params) :]:
        h.update(stat.data.tobytes())
    return h.digest()
