"""Reverse-mode automatic differentiation over float32 numpy arrays.

The engine is deliberately small: a :class:`Tensor` is a float32 array
that ops never write into and that carries no gradient state; a
:class:`Tape` holds that state: while it is the innermost active tape it
records every op that depends on a tensor it watches; and :func:`backward`
replays the records in reverse to produce the watched tensors' exact
gradients. The operation set is exactly what the four network recipes need,
in the layouts they run, each fixed by its kernel: one convolution op,
whose two directions are ``conv2d(x, kernels, bias)``, an odd square kernel
at stride 1 with "same" padding (k-1)/2, and ``transpose_conv2d(x, kernels,
bias, stride=1)``, the same at stride 1 or, at a stride equal to its square
kernel, padding 0 with windows that tile the output; ``maxpool2d(x)`` over
2x2 windows at stride 2; batch norm, whose running statistics are tensors
that take no gradient; ReLU, and the two losses. Any other layout is an
:class:`InvalidShapeError` that names the op and states its rule.

Numeric policy: values are stored as float32; every reduction (convolution
dot products, means, loss sums, normalization statistics) accumulates in
float64 and rounds once on output. Gradients flow through the backward sweep
in float64 and are returned as float32.

Invariant: a change to how an op lays out its data may not reorder any
float64 sum. Each sum adds the same terms in the same order (extra terms
only if they are exact zeros), so every value and every checkpoint stays
byte-identical across such changes; see the convolution section.

Each op has one forward path, recorded or not, which computes nothing
that only backward reads. A per-channel value is broadcast over a flat
[C, H*W] view of a C-contiguous array, in place: numpy runs one inner loop
per row of a [C, H, W] broadcast of ``v[:, None, None]`` but one per
channel over the flat view.

What a recorded op keeps for its backward: its inputs and its output (the
record holds them), plus the convolution's float64 kernel matrix,
batchnorm's per-channel mean and scale, mse_loss's float64 difference and
cross_entropy_loss's float64 log-probabilities. Backward recomputes the
rest from them: relu's mask and batchnorm's normalized input from the
input, max pooling's routing from the input and output. No op keeps a
patch matrix: conv2d's backward rebuilds its input's patches right before
the kernel-gradient GEMM, and transpose_conv2d's backward builds its
gradient's patches once for both of its GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidLabelError, InvalidShapeError

_F32 = np.float32
_F64 = np.float64

class Tensor:
    """Float32 n-d array value. Ops never write into ``.data``; code that
    changes a tensor gives it a new array. Four places do: the Adam step,
    checkpoint loading, best-epoch restore and, for batchnorm's running
    statistics, each train-mode :func:`batchnorm2d` call."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=_F32, order="C")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("tensor holds non-finite values")
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _wrap(arr: np.ndarray) -> Tensor:
    """Wrap an op result without re-validating (hot path)."""
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(arr, dtype=_F32, order="C")
    return t


# ---------------------------------------------------------------------------
# Tape


@dataclass
class _Record:
    out: Tensor
    inputs: tuple
    backward_fn: Callable  # (g: float64 ndarray) -> tuple of per-input grads


class Tape:
    """Ordered record of the operations that depend on the ``watch`` tensors.

    While the tape is the innermost active one, an op is recorded if one of
    its inputs is in the tape's id set: the watched tensors plus every output
    it has recorded. Ids are safe keys because the tape holds each of those
    tensors for its whole life. Entering or leaving the tape changes no
    tensor; :func:`backward` runs inside it, as the innermost tape.

    Records are appended in execution order, so operands always precede the
    operations that consume them; one reverse sweep therefore visits every
    node after all of its consumers.
    """

    def __init__(self, watch=()):
        self._watched = tuple(watch)
        self.records: list[_Record] = []
        self._ids = {id(t) for t in self._watched}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()


_TAPE_STACK: list[Tape] = []


def _needs(t) -> bool:
    return id(t) in _TAPE_STACK[-1]._ids


def _record(out: Tensor, inputs: Sequence, backward_fn: Callable) -> None:
    # no record unless an input needs a gradient: a one-input op's backward_fn assumes it does
    if not _TAPE_STACK or not any(_needs(t) for t in inputs):
        return
    tape = _TAPE_STACK[-1]
    tape.records.append(_Record(out, tuple(inputs), backward_fn))
    tape._ids.add(id(out))


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse sweep: gradients of ``loss`` w.r.t. the tape's watched tensors.

    Returns a dict mapping each watched Tensor that ``loss`` reaches to its
    float32 gradient array. Runs inside ``tape``, as the innermost active
    tape: the ops' backward asks it which inputs take a gradient.
    Deterministic: identical tapes produce bit-identical gradients.
    """
    if loss.shape != ():
        raise InvalidShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if not any(rec.out is loss for rec in reversed(tape.records)):
        raise InvalidInputError("loss was not produced on this tape")
    if not _TAPE_STACK or _TAPE_STACK[-1] is not tape:
        raise InvalidInputError("backward must run inside its tape, as the innermost active tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=_F64)}
    for rec in reversed(tape.records):
        g = grads.pop(id(rec.out), None)
        if g is None:
            continue
        for tensor, contrib in zip(rec.inputs, rec.backward_fn(g)):
            if contrib is not None:
                key = id(tensor)
                grads[key] = grads[key] + contrib if key in grads else contrib
    return {t: grads[id(t)].astype(_F32) for t in tape._watched if id(t) in grads}


# ---------------------------------------------------------------------------
# Convolution
#
# One op serves conv2d and transpose_conv2d. Its kernel matrix maps the
# patches of the large grid (conv2d's input, transpose_conv2d's output) to
# the small grid: _im2col builds the patches and _correlate_t is the map's
# adjoint. conv2d runs the map forward and the adjoint for its input
# gradient, transpose_conv2d the reverse; for both, the kernel gradient is
# the small grid's values times the large grid's patches. Each public op
# only calls _conv, so a layer call enters one of them and appends one
# tape record.
#
# A change of layout may not reorder any float64 sum: each output element
# receives the same terms, in the same kernel-offset (a, b) order, starting
# from +0.0, as one strided slice per offset would give it; extra terms are
# allowed only if they are exact zeros. That is why checkpoints stay
# byte-identical when this section is rewritten. The adjoint is therefore
# not computed as a conv with a flipped, C_in/C_out-swapped kernel: that
# adds the same terms in another order, and the float32 one-ulp flips it
# causes grow under Adam. Measured on the classification benchmark
# workload, seed 1: 66 checkpoint tensors changed, the most the biases of
# the denoiser convs that feed batchnorm (by up to 8e-4), whose true
# gradient is zero, so Adam steps them on rounding noise alone.


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int, oh: int, ow: int) -> np.ndarray:
    """Float64 patches [C*kh*kw, oh*ow] of ``x`` zero-padded by ``padding``:
    one step-``stride`` slice per kernel offset.

    The padded copy is float64, so the patches need no cast of their own.
    """
    c, h, w = x.shape
    cols = np.empty((c, kh, kw, oh, ow), dtype=_F64)
    xp = x
    if padding:
        p = padding
        xp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=_F64)
        xp[:, p : p + h, p : p + w] = x
    for a in range(kh):
        for b in range(kw):
            cols[:, a, b] = xp[:, a : a + stride * oh : stride, b : b + stride * ow : stride]
    return cols.reshape(-1, oh * ow)


def _correlate_t(
    kcols: np.ndarray, v: np.ndarray, kh: int, kw: int, stride: int, padding: int, h: int, w: int,
    bias: np.ndarray | None = None,
):
    """The adjoint of the im2col map: the patches ``kcols @ v``, with
    ``kcols`` [C*kh*kw, K] and ``v`` [K, oh, ow], summed onto the padded
    [C, h + 2*padding, w + 2*padding] grid, plus ``bias`` per channel if
    given, and cropped to [C, h, w]. The bias goes on before the crop, over
    one flat row per channel."""
    k, oh, ow = v.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if stride == 1:
        # In the GEMM operand each row of v is followed by kw - 1 zeros, so a
        # patch row spans the padded grid's full width wp, and on the flat
        # grid kernel offset (a, b) adds one contiguous block starting at
        # a*wp + b. The zero tails land on the head of the next row or past
        # the end.
        operand = np.zeros((k, oh, wp), dtype=_F64)
        operand[:, :, :ow] = v
        blocks = (kcols @ operand.reshape(k, oh * wp)).reshape(-1, kh * kw, oh * wp)
        flat = np.zeros((blocks.shape[0], hp * wp + kw - 1), dtype=_F64)
        for a in range(kh):
            for b in range(kw):
                start = a * wp + b
                flat[:, start : start + oh * wp] += blocks[:, a * kw + b]
        flat = flat[:, : hp * wp]
    else:
        # windows that tile the grid (padding 0): each cell receives exactly one term
        operand = v.reshape(k, oh * ow).astype(_F64, copy=False)
        patches = kcols @ operand
        c = len(kcols) // (kh * kw)
        tiles = np.zeros((c, oh, kh, ow, kw), dtype=_F64)
        tiles += patches.reshape(c, kh, kw, oh, ow).transpose(0, 3, 1, 4, 2)
        flat = tiles.reshape(c, hp * wp)
    if bias is not None:
        flat += bias[:, None]
    full = flat.reshape(-1, hp, wp)
    return full[:, padding : padding + h, padding : padding + w] if padding else full


def _conv(op: str, x: Tensor, kernels: Tensor, bias: Tensor, stride: int, transposed: bool) -> Tensor:
    """conv2d (kernels [C_out, C_in, kh, kw]) or, if ``transposed``,
    transpose_conv2d (kernels [C_in, C_out, kh, kw]) of ``x`` [C_in, H, W]."""
    if x.data.ndim != 3 or kernels.data.ndim != 4:
        raise InvalidShapeError(f"{op} expects 3-d input and 4-d kernels, got {x.shape} and {kernels.shape}")
    cin, h, w = x.shape
    kh, kw = kernels.shape[2:]
    kcin, cout = kernels.shape[:2] if transposed else kernels.shape[1::-1]
    if kcin != cin:
        raise InvalidShapeError(f"kernel C_in {kcin} does not match input C_in {cin}")
    if bias.shape != (cout,):
        raise InvalidShapeError(f"bias shape {bias.shape} does not match C_out {cout}")
    if not (kh == kw and (stride == 1 and kh % 2 or transposed and stride == kh > 1)):
        tiling = ", or a stride equal to its square kernel with padding 0" if transposed else ""
        raise InvalidShapeError(
            f"{op} takes an odd square kernel at stride 1 with padding (k-1)/2{tiling}; "
            f"got a {kh}x{kw} kernel at stride {stride}"
        )
    padding = (kh - 1) // 2 if stride == 1 else 0
    # stride 1 keeps the extents; a transposed conv's tiling stride multiplies them
    oh, ow = h * stride, w * stride
    small, large = ((h, w), (oh, ow)) if transposed else ((oh, ow), (h, w))
    kmat = kernels.data.reshape(len(kernels.data), -1).astype(_F64)  # [C_small, C_large*kh*kw]
    bias64 = bias.data.astype(_F64)
    if transposed:
        out = _wrap(_correlate_t(kmat.T, x.data, kh, kw, stride, padding, *large, bias64))
    else:
        out64 = kmat @ _im2col(x.data, kh, kw, stride, padding, *small)
        out64 += bias64[:, None]
        out = _wrap(out64.reshape(cout, oh, ow))

    def backward_fn(g: np.ndarray):
        small_values, large_values = (x.data, g) if transposed else (g, x.data)
        dx = dk = db = cols = None
        if transposed and (_needs(x) or _needs(kernels)):
            cols = _im2col(large_values, kh, kw, stride, padding, *small)  # built once for both GEMMs
        if _needs(x) and transposed:
            dx = (kmat @ cols).reshape(x.shape)
        elif _needs(x):
            dx = _correlate_t(kmat.T, g, kh, kw, stride, padding, *large)
        if _needs(kernels):
            if cols is None:
                # conv2d rebuilds x's patches after dx: kept from the forward,
                # the float64 patches would hold about 18x the bytes of x
                cols = _im2col(large_values, kh, kw, stride, padding, *small)
            dk = (small_values.reshape(len(kmat), -1).astype(_F64, copy=False) @ cols.T).reshape(kernels.shape)
        if _needs(bias):
            db = g.sum(axis=(1, 2))
        return dx, dk, db

    _record(out, (x, kernels, bias), backward_fn)
    return out


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Cross-correlation of [C_in,H,W] with odd square kernels [C_out,C_in,k,k]
    at stride 1, zero-padded by (k-1)/2: the output keeps H and W."""
    return _conv("conv2d", x, kernels, bias, 1, transposed=False)


def transpose_conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Transposed convolution: the linear adjoint of a convolution with the same kernel.

    Input [C_in,H,W], kernels [C_in,C_out,k,k]. At stride 1 the kernel is
    odd with padding (k-1)/2 and the output keeps H and W; at stride k the
    padding is 0 and the output is [C_out, k*H, k*W].
    """
    return _conv("transpose_conv2d", x, kernels, bias, stride, transposed=True)


def maxpool2d(x: Tensor) -> Tensor:
    """Max pooling over 2x2 windows at stride 2 (an odd last row or column
    is dropped); backward routes gradient to the lowest-linear-index maximum.

    The window cells, strided views of the input, are folded in linear-index
    order by a strict ``>``, so a tie keeps the first cell: not
    ``np.maximum``, which may return either zero of a +0.0/-0.0 tie. Backward
    finds that cell again as the window's first cell equal to the output:
    ``==`` also holds between +0.0 and -0.0.
    """
    if x.data.ndim != 3:
        raise InvalidShapeError(f"maxpool2d expects 3-d input, got {x.shape}")
    c, h, w = x.shape
    if h < 2 or w < 2:
        raise InvalidShapeError(f"maxpool2d pools 2x2 windows at stride 2; got a {h}x{w} input")
    oh, ow = h // 2, w // 2
    cells = [(slice(None), slice(a, a + 2 * oh, 2), slice(b, b + 2 * ow, 2)) for a in range(2) for b in range(2)]
    best = x.data[cells[0]]
    for cell in cells[1:]:
        v = x.data[cell]
        best = np.where(v > best, v, best)
    out = _wrap(best)

    def backward_fn(g: np.ndarray):
        # one masked strided add per window cell: at the networks' extents
        # this beats a put_along_axis scatter plus the inverse permutation,
        # which allocate two more input-sized arrays
        dx = np.zeros((c, h, w), dtype=_F64)
        unrouted = np.ones((c, oh, ow), dtype=bool)  # windows whose gradient is not yet routed
        for cell in cells:
            hit = x.data[cell] == out.data
            hit &= unrouted
            unrouted ^= hit
            dx[cell] += g * hit
        return (dx,)

    _record(out, (x,), backward_fn)
    return out


# ---------------------------------------------------------------------------
# Batch normalization (batch dimension is always 1: statistics are spatial)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor, running_var: Tensor, train: bool) -> Tensor:
    """Per-channel normalization over spatial positions.

    Train mode normalizes with the batch statistics and replaces the
    ``.data`` of the running statistics with their momentum-0.9 update;
    eval mode normalizes with the running statistics. They take no gradient.
    """
    if x.data.ndim != 3:
        raise InvalidShapeError(f"batchnorm2d expects 3-d input, got {x.shape}")
    c, h, w = x.shape
    if h * w == 0:
        raise InvalidShapeError("zero spatial size")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise InvalidShapeError(f"gamma/beta shape must be ({c},)")
    n = h * w
    y = x.data.astype(_F64).reshape(c, n)
    if train:
        mu = y.mean(axis=1)
        y -= mu[:, None]
        # the variance of the centred copy: what y.var computes, without its second mean
        var = np.square(y).sum(axis=1) / n
        running_mean.data = (BN_MOMENTUM * running_mean.data.astype(_F64) + (1 - BN_MOMENTUM) * mu).astype(_F32)
        running_var.data = (BN_MOMENTUM * running_var.data.astype(_F64) + (1 - BN_MOMENTUM) * var).astype(_F32)
    else:
        mu = running_mean.data.astype(_F64)
        var = running_var.data.astype(_F64)
        y -= mu[:, None]
    ivar = 1.0 / np.sqrt(var + BN_EPS)
    gamma64 = gamma.data.astype(_F64)[:, None]
    y *= ivar[:, None]
    y *= gamma64
    y += beta.data.astype(_F64)[:, None]
    out = _wrap(y.reshape(c, h, w))

    def backward_fn(g: np.ndarray):
        dx = dgamma = dbeta = None
        g = g.reshape(c, n)
        # xhat rounded through float32: every gradient and checkpoint depends on that rounding
        xh = x.data.astype(_F64).reshape(c, n)
        xh -= mu[:, None]
        xh *= ivar[:, None]
        xh = xh.astype(_F32).astype(_F64)
        if _needs(gamma):
            dgamma = (g * xh).sum(axis=1)
        if _needs(beta):
            dbeta = g.sum(axis=1)
        if _needs(x):
            dx = g * gamma64
            if train:
                sum_g = dx.sum(axis=1, keepdims=True)
                sum_gx = (dx * xh).sum(axis=1, keepdims=True)
                xh *= sum_gx
                xh /= n
                dx -= sum_g / n
                dx -= xh
            dx *= ivar[:, None]
            dx = dx.reshape(c, h, w)
        return dx, dgamma, dbeta

    _record(out, (x, gamma, beta), backward_fn)
    return out


# ---------------------------------------------------------------------------
# ReLU and elementwise ops


def relu(x: Tensor) -> Tensor:
    out = _wrap(np.maximum(x.data, 0))

    def backward_fn(g: np.ndarray):
        return (g * (x.data > 0),)

    _record(out, (x,), backward_fn)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise InvalidShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = _wrap(a.data + b.data)

    def backward_fn(g: np.ndarray):
        return (g if _needs(a) else None, g if _needs(b) else None)

    _record(out, (a, b), backward_fn)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise InvalidShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    out = _wrap(a.data - b.data)

    def backward_fn(g: np.ndarray):
        return (g if _needs(a) else None, -g if _needs(b) else None)

    _record(out, (a, b), backward_fn)
    return out


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 3 or b.data.ndim != 3 or a.shape[1:] != b.shape[1:]:
        raise InvalidShapeError(f"concat_channels spatial mismatch: {a.shape} vs {b.shape}")
    out = _wrap(np.concatenate([a.data, b.data], axis=0))
    ca = a.shape[0]

    def backward_fn(g: np.ndarray):
        return (g[:ca] if _needs(a) else None, g[ca:] if _needs(b) else None)

    _record(out, (a, b), backward_fn)
    return out


def flatten(x: Tensor) -> Tensor:
    shape = x.shape
    out = _wrap(x.data.reshape(-1))

    def backward_fn(g: np.ndarray):
        return (g.reshape(shape),)

    _record(out, (x,), backward_fn)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer: weight [O,F] @ x [F] + bias [O]."""
    if x.data.ndim != 1 or weight.data.ndim != 2:
        raise InvalidShapeError(f"linear expects 1-d input and 2-d weight, got {x.shape} and {weight.shape}")
    o, f = weight.shape
    if x.shape != (f,):
        raise InvalidShapeError(f"input shape {x.shape} does not match weight fan-in {f}")
    if bias.shape != (o,):
        raise InvalidShapeError(f"bias shape {bias.shape} does not match fan-out {o}")
    out = _wrap(weight.data.astype(_F64) @ x.data.astype(_F64) + bias.data.astype(_F64))

    def backward_fn(g: np.ndarray):
        dx = dw = db = None
        if _needs(x):
            dx = weight.data.astype(_F64).T @ g
        if _needs(weight):
            dw = np.outer(g, x.data.astype(_F64))
        if _needs(bias):
            db = g
        return dx, dw, db

    _record(out, (x, weight, bias), backward_fn)
    return out


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor (float64 accumulation)."""
    out = _wrap(np.asarray(x.data.sum(dtype=_F64)))
    shape = x.shape

    def backward_fn(g: np.ndarray):
        return (np.broadcast_to(g, shape).astype(_F64),)

    _record(out, (x,), backward_fn)
    return out


# ---------------------------------------------------------------------------
# Losses


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared element-wise difference."""
    if pred.shape != target.shape:
        raise InvalidShapeError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data.astype(_F64) - target.data.astype(_F64)
    n = diff.size
    out = _wrap(np.asarray((diff * diff).sum() / n))

    def backward_fn(g: np.ndarray):
        base = g * 2.0 * diff / n
        return (base if _needs(pred) else None, -base if _needs(target) else None)

    _record(out, (pred, target), backward_fn)
    return out


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    ``logits`` has the class axis first: [k] with an integer label for
    classification, or [k, m, n] with an [m, n] label map for segmentation.
    """
    lab = np.asarray(labels)
    if not np.issubdtype(lab.dtype, np.integer):
        raise InvalidLabelError(f"labels must be integers, got dtype {lab.dtype}")
    k = logits.shape[0]
    if lab.shape != logits.shape[1:]:
        raise InvalidShapeError(f"label shape {lab.shape} does not match logit positions {logits.shape[1:]}")
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        raise InvalidLabelError(f"labels must lie in [0, {k}), got range [{lab.min()}, {lab.max()}]")
    zf = logits.data.astype(_F64).reshape(k, -1)
    labf = lab.reshape(-1)
    npos = labf.size
    z = zf - zf.max(axis=0, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=0, keepdims=True))
    logp = z - lse
    out = _wrap(np.asarray(-logp[labf, np.arange(npos)].sum() / npos))

    def backward_fn(g: np.ndarray):
        p = np.exp(logp)
        p[labf, np.arange(npos)] -= 1.0
        return ((g / npos) * p.reshape(logits.shape), None)

    _record(out, (logits, lab), backward_fn)
    return out
