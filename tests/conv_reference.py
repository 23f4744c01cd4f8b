"""Straightforward reference versions of the layout-heavy ops, used by tests only.

``conv2d``, ``transpose_conv2d`` and ``maxpool2d`` are the slice-loop
versions: pad a copy with ``np.pad``, gather patches with one strided slice
per kernel offset in the input's dtype, cast the patch matrix to float64,
and scatter gradients back with one strided ``+=`` per kernel offset (and,
for pooling, one masked ``+=`` per window cell). Every float64 sum adds its
terms in kernel-offset order starting from +0.0. ``batchnorm2d`` broadcasts
its per-channel values over [C, H, W] and always keeps the normalized
input for backward. The production ops in :mod:`taskdenoise.autodiff` move
data differently but must produce the same bits; ``test_conv_exact.py``
holds them to that. The production ops take their layout from the kernel;
these keep a general stride, padding and pooling window, so a test states
the layout it expects.
"""

from __future__ import annotations

import numpy as np

from taskdenoise.autodiff import BN_EPS, BN_MOMENTUM, Tensor, _needs, _record, _wrap

_F32 = np.float32
_F64 = np.float64


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    c = xp.shape[0]
    cols = np.empty((c, kh, kw, oh, ow), dtype=xp.dtype)
    for a in range(kh):
        ha = a + stride * (oh - 1) + 1
        for b in range(kw):
            wb = b + stride * (ow - 1) + 1
            cols[:, a, b] = xp[:, a:ha:stride, b:wb:stride]
    return cols


def _col2im(cols: np.ndarray, hp: int, wp: int, stride: int) -> np.ndarray:
    c, kh, kw, oh, ow = cols.shape
    out = np.zeros((c, hp, wp), dtype=cols.dtype)
    for a in range(kh):
        ha = a + stride * (oh - 1) + 1
        for b in range(kw):
            wb = b + stride * (ow - 1) + 1
            out[:, a:ha:stride, b:wb:stride] += cols[:, a, b]
    return out


def _pad_spatial(arr: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return arr
    return np.pad(arr, ((0, 0), (padding, padding), (padding, padding)))


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    cin, h, w = x.shape
    cout, _, kh, kw = kernels.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    xp = _pad_spatial(x.data, padding)
    cols = _im2col(xp, kh, kw, stride, oh, ow).reshape(cin * kh * kw, oh * ow).astype(_F64)
    kmat = kernels.data.reshape(cout, cin * kh * kw).astype(_F64)
    out64 = kmat @ cols
    out64 += bias.data.astype(_F64)[:, None]
    out = _wrap(out64.reshape(cout, oh, ow))

    def backward_fn(g: np.ndarray):
        g2 = g.reshape(cout, oh * ow)
        dx = dk = db = None
        if _needs(x):
            dcols = kmat.T @ g2
            dxp = _col2im(dcols.reshape(cin, kh, kw, oh, ow), hp, wp, stride)
            dx = dxp[:, padding : padding + h, padding : padding + w] if padding else dxp
        if _needs(kernels):
            dk = (g2 @ cols.T).reshape(cout, cin, kh, kw)
        if _needs(bias):
            db = g.sum(axis=(1, 2))
        return dx, dk, db

    _record(out, (x, kernels, bias), backward_fn)
    return out


def transpose_conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    cin, h, w = x.shape
    _, cout, kh, kw = kernels.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (w - 1) * stride - 2 * padding + kw

    kmat = kernels.data.reshape(cin, cout * kh * kw).astype(_F64)
    x2 = x.data.reshape(cin, h * w).astype(_F64)
    cols64 = kmat.T @ x2
    full = _col2im(cols64.reshape(cout, kh, kw, h, w), oh + 2 * padding, ow + 2 * padding, stride)
    out64 = full[:, padding : padding + oh, padding : padding + ow] if padding else full
    out64 = out64 + bias.data.astype(_F64)[:, None, None]
    out = _wrap(out64)

    def backward_fn(g: np.ndarray):
        dx = dk = db = None
        if _needs(x) or _needs(kernels):
            gp = _pad_spatial(g, padding)
            gcols = _im2col(gp, kh, kw, stride, h, w).reshape(cout * kh * kw, h * w)
            if _needs(x):
                dx = (kmat @ gcols).reshape(cin, h, w)
            if _needs(kernels):
                dk = (x2 @ gcols.T).reshape(cin, cout, kh, kw)
        if _needs(bias):
            db = g.sum(axis=(1, 2))
        return dx, dk, db

    _record(out, (x, kernels, bias), backward_fn)
    return out


def maxpool2d(x: Tensor, window: int, stride: int | None = None) -> Tensor:
    stride = window if stride is None else stride
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    cols = _im2col(x.data, window, window, stride, oh, ow).reshape(c, window * window, oh, ow)
    arg = cols.argmax(axis=1)
    out = _wrap(np.take_along_axis(cols, arg[:, None], axis=1)[:, 0])

    def backward_fn(g: np.ndarray):
        if not _needs(x):
            return (None,)
        dx = np.zeros((c, h, w), dtype=_F64)
        for cell in range(window * window):
            a, b = divmod(cell, window)
            ha = a + stride * (oh - 1) + 1
            wb = b + stride * (ow - 1) + 1
            dx[:, a:ha:stride, b:wb:stride] += g * (arg == cell)
        return (dx,)

    _record(out, (x,), backward_fn)
    return out


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor, running_var: Tensor, train: bool) -> Tensor:
    c, h, w = x.shape
    n = h * w
    xm = x.data.astype(_F64)
    if train:
        mu = xm.mean(axis=(1, 2))
        var = xm.var(axis=(1, 2))
        running_mean.data = (BN_MOMENTUM * running_mean.data.astype(_F64) + (1 - BN_MOMENTUM) * mu).astype(_F32)
        running_var.data = (BN_MOMENTUM * running_var.data.astype(_F64) + (1 - BN_MOMENTUM) * var).astype(_F32)
    else:
        mu = running_mean.data.astype(_F64)
        var = running_var.data.astype(_F64)
    ivar = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (xm - mu[:, None, None]) * ivar[:, None, None]
    out = _wrap(gamma.data.astype(_F64)[:, None, None] * xhat + beta.data.astype(_F64)[:, None, None])
    xhat32 = xhat.astype(_F32)

    def backward_fn(g: np.ndarray):
        dx = dgamma = dbeta = None
        xh = xhat32.astype(_F64)
        if _needs(gamma):
            dgamma = (g * xh).sum(axis=(1, 2))
        if _needs(beta):
            dbeta = g.sum(axis=(1, 2))
        if _needs(x):
            gscaled = g * gamma.data.astype(_F64)[:, None, None]
            if train:
                sum_g = gscaled.sum(axis=(1, 2), keepdims=True)
                sum_gx = (gscaled * xh).sum(axis=(1, 2), keepdims=True)
                dx = ivar[:, None, None] * (gscaled - sum_g / n - xh * sum_gx / n)
            else:
                dx = gscaled * ivar[:, None, None]
        return dx, dgamma, dbeta

    _record(out, (x, gamma, beta), backward_fn)
    return out
