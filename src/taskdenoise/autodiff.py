"""Reverse-mode automatic differentiation over float32 numpy arrays.

The engine is deliberately small: a :class:`Tensor` is a float32 array
that ops never write into, a :class:`Tape` records every differentiable
operation executed while it is active, and :func:`backward` replays the
records in reverse to produce exact gradients. The operation set is exactly
what the four network recipes need, in the layouts they run: convolutions
and transposed convolutions at stride 1 with any padding, or at a stride
equal to their square kernel with padding 0, whose windows tile the grid
(conv2d's input extents must then be divisible by the stride); max pooling
over non-overlapping windows, ``maxpool2d(x, window)``; batch norm, whose
running statistics are tensors that take no gradient; ReLU, and the two
losses. Any other layout is an :class:`InvalidShapeError`.

Numeric policy: values are stored as float32; every reduction (convolution
dot products, means, loss sums, normalization statistics) accumulates in
float64 and rounds once on output. Gradients flow through the backward sweep
in float64 and are returned as float32.

Invariant: a change to how an op lays out its data may not reorder any
float64 sum. Each sum adds the same terms in the same order (extra terms
only if they are exact zeros), so every value and every checkpoint stays
byte-identical across such changes; see the im2col section for the
convolutions.

Forward ops do only the work their result needs:

- Record-only state: what only an op's backward reads (relu's mask,
  batchnorm's normalized input, max pooling's argmax) is built only when
  :func:`_recording` holds, i.e. a tape is active and some input needs a
  gradient. :func:`_record` applies the same rule, so an evaluation forward
  builds none of it.
- Flat-view broadcasts: a per-channel value is broadcast over a flat
  [C, H*W] view of a C-contiguous array, in place. numpy runs one inner
  loop per row of a [C, H, W] broadcast of ``v[:, None, None]`` but one per
  channel over the flat view.

What a recorded op keeps for its backward: every op keeps its inputs (the
record holds them). Beyond those, conv2d and transpose_conv2d keep the
float64 kernel matrix, max pooling the index of each window's maximum,
batchnorm the float32 normalized input and the per-channel scale, relu its
mask, mse_loss the float64 difference and cross_entropy_loss the float64
log-probabilities. No op keeps a patch matrix: conv2d's backward rebuilds
its input's patches right before the kernel-gradient GEMM, and
transpose_conv2d's backward builds its gradient's patches once for both
of its GEMMs.

Scratch arena: the convolution family's float64 work arrays (the padded
input, the im2col patches, the overlap-add operand and GEMM product) are
views into one reused buffer per role, see :func:`_scratch`. Rule: no
arena view outlives the op call or backward call that filled it, so
nothing an op returns, records or keeps for backward may alias the arena.
The results that leave an op are copies already: the float32 cast in
:func:`_wrap`, the fresh grid that the adjoint map sums into, and the
output of every gradient GEMM. The arena belongs to the process and
is not thread-safe: to run ops concurrently, use processes, not threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidLabelError, InvalidShapeError

_F32 = np.float32
_F64 = np.float64

# When enabled (tests), every op output is checked for NaN/Inf.
_DEBUG_VALIDATE = False


def set_debug_validate(flag: bool) -> None:
    global _DEBUG_VALIDATE
    _DEBUG_VALIDATE = bool(flag)


class Tensor:
    """Float32 n-d array value. Ops never write into ``.data``; code that
    changes a tensor gives it a new array. Four places do: the Adam step,
    checkpoint loading, best-epoch restore and, for batchnorm's running
    statistics, each train-mode :func:`batchnorm2d` call."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_F32, order="C")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(arr: np.ndarray) -> Tensor:
    """Wrap an op result without re-validating (hot path)."""
    if _DEBUG_VALIDATE and not np.all(np.isfinite(arr)):
        raise InvalidInputError("operation produced non-finite values")
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(arr, dtype=_F32, order="C")
    t.requires_grad = False
    return t


# ---------------------------------------------------------------------------
# Tape


@dataclass
class _Record:
    out: Tensor
    inputs: tuple
    backward_fn: Callable  # (g: float64 ndarray) -> tuple of per-input grads


class Tape:
    """Ordered record of differentiable operations.

    Records are appended in execution order, so operands always precede the
    operations that consume them; one reverse sweep therefore visits every
    node after all of its consumers.
    """

    def __init__(self):
        self.records: list[_Record] = []
        self._output_ids: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self.records)


_TAPE_STACK: list[Tape] = []


def _needs(t) -> bool:
    return isinstance(t, Tensor) and t.requires_grad


def _recording(inputs: Sequence) -> bool:
    """Whether an op on ``inputs`` goes on the tape: a tape is active and
    some input needs a gradient. Record-only state is built only then."""
    return bool(_TAPE_STACK) and any(_needs(t) for t in inputs)


def _record(out: Tensor, inputs: Sequence, backward_fn: Callable) -> None:
    if not _recording(inputs):
        return
    out.requires_grad = True
    tape = _TAPE_STACK[-1]
    tape.records.append(_Record(out, tuple(inputs), backward_fn))
    tape._output_ids.add(id(out))


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse sweep: gradients of ``loss`` w.r.t. every reachable leaf.

    Returns a dict mapping leaf Tensors (parameters, watched inputs) to
    float32 gradient arrays. Deterministic: identical tapes produce
    bit-identical gradients.
    """
    if loss.shape != ():
        raise InvalidShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if id(loss) not in tape._output_ids:
        raise InvalidInputError("loss was not produced on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=_F64)}
    leaves: dict[int, Tensor] = {}
    for rec in reversed(tape.records):
        g = grads.pop(id(rec.out), None)
        if g is None:
            continue
        contributions = rec.backward_fn(g)
        for tensor, contrib in zip(rec.inputs, contributions):
            if contrib is None or not isinstance(tensor, Tensor):
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib
                leaves[key] = tensor
    return {leaves[k]: g.astype(_F32) for k, g in grads.items() if k in leaves}


# ---------------------------------------------------------------------------
# Scratch arena
#
# One float64 buffer per role, reused by every convolution call in the
# process: "pad" (the zero-padded input), "cols" (im2col patches),
# "operand" and "blocks" (the overlap-add GEMM's operand and product). See
# the module docstring for the rule that keeps arena views from escaping.

_ARENA: dict[str, np.ndarray] = {}


def _scratch(role: str, shape: tuple) -> np.ndarray:
    """A C-contiguous float64 view of ``shape`` into ``role``'s buffer, which
    grows to the largest size requested and never shrinks. Its contents are
    garbage on entry and valid until the next ``_scratch(role, ...)``."""
    n = math.prod(shape)
    buf = _ARENA.get(role)
    if buf is None or buf.size < n:
        buf = _ARENA[role] = np.empty(n, dtype=_F64)
    return buf[:n].reshape(shape)


# ---------------------------------------------------------------------------
# im2col and overlap-add
#
# These helpers only move data to and from the float64 GEMMs, in the two
# layouts of the module docstring: stride 1 (one unit-step slice per kernel
# offset) and windows that tile the grid (a permutation). A change of
# layout may not reorder any float64 sum: each output element receives the
# same terms, in the same kernel-offset (a, b) order, starting from +0.0, as
# one strided slice per offset would give it; extra terms are allowed only
# if they are exact zeros. That is why checkpoints stay byte-identical when
# this section is rewritten. The input gradient and the transposed conv are
# therefore not computed as a conv with a flipped, C_in/C_out-swapped
# kernel: that adds the same terms in another order, and the float32
# one-ulp flips it causes grow under Adam. Measured on the classification
# benchmark workload, seed 1: 66 checkpoint tensors changed, the most the
# biases of the denoiser convs that feed batchnorm (by up to 8e-4), whose
# true gradient is zero, so Adam steps them on rounding noise alone.


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int, oh: int, ow: int) -> np.ndarray:
    """Float64 patches [C*kh*kw, oh*ow] of ``x`` zero-padded by ``padding``,
    in the arena's ``cols`` slot.

    The padded copy (the ``pad`` slot) is float64 and gets its zero border
    written one strip per side, so the patches need no cast of their own.
    """
    c, h, w = x.shape
    cols = _scratch("cols", (c, kh, kw, oh, ow))
    if stride > 1:
        # windows that tile the input: the patches are a permutation of it
        cols[...] = x.reshape(c, oh, kh, ow, kw).transpose(0, 2, 4, 1, 3)
        return cols.reshape(-1, oh * ow)
    xp = x
    if padding:
        p = padding
        xp = _scratch("pad", (c, h + 2 * p, w + 2 * p))
        xp[:, :p] = 0.0
        xp[:, p + h :] = 0.0
        xp[:, p : p + h, :p] = 0.0
        xp[:, p : p + h, p + w :] = 0.0
        xp[:, p : p + h, p : p + w] = x
    for a in range(kh):
        for b in range(kw):
            cols[:, a, b] = xp[:, a : a + oh, b : b + ow]
    return cols.reshape(-1, oh * ow)


def _overlap_add(kcols: np.ndarray, v: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Stride-1 col2im of the patches ``kcols @ v``, [C*kh*kw, K] by [K, H, W],
    onto the [C, H+kh-1, W+kw-1] grid, returned as a [C, (H+kh-1)*(W+kw-1)]
    view with contiguous rows.

    In the GEMM operand each row of ``v`` is followed by kw - 1 zeros, so a
    patch row spans the output's full width wp, and on the flat output
    kernel offset (a, b) adds one contiguous block starting at a*wp + b.
    The zero tails land on the head of the next row or past the end.
    """
    k, h, w = v.shape
    hp, wp = h + kh - 1, w + kw - 1
    operand = _scratch("operand", (k, h, wp))
    operand[:, :, :w] = v
    operand[:, :, w:] = 0.0
    blocks = np.matmul(kcols, operand.reshape(k, h * wp), out=_scratch("blocks", (len(kcols), h * wp)))
    blocks = blocks.reshape(-1, kh * kw, h * wp)
    flat = np.zeros((blocks.shape[0], hp * wp + kw - 1), dtype=_F64)
    for a in range(kh):
        for b in range(kw):
            start = a * wp + b
            flat[:, start : start + h * wp] += blocks[:, a * kw + b]
    return flat[:, : hp * wp]


# ---------------------------------------------------------------------------
# Convolution family
#
# One map and its adjoint serve both ops. The map multiplies a kernel
# matrix by _im2col's patches; _correlate_t is its adjoint. conv2d runs the
# map forward and the adjoint for its input gradient, transpose_conv2d the
# reverse (its backward builds the patches once, because its kernel
# gradient needs them too). Neither public op calls the other, so each is
# entered once per layer call.


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
        flat = _overlap_add(kcols, v, kh, kw)
    else:
        # windows that tile the grid (padding 0): each cell receives exactly one term
        operand = v.reshape(k, oh * ow).astype(_F64, copy=False)
        patches = np.matmul(kcols, operand, out=_scratch("blocks", (len(kcols), oh * ow)))
        c = len(kcols) // (kh * kw)
        tiles = np.zeros((c, oh, kh, ow, kw), dtype=_F64)
        tiles += patches.reshape(c, kh, kw, oh, ow).transpose(0, 3, 1, 4, 2)
        flat = tiles.reshape(c, hp * wp)
    if bias is not None:
        flat += bias[:, None]
    full = flat.reshape(-1, hp, wp)
    return full[:, padding : padding + h, padding : padding + w] if padding else full


def _conv_extents(op: str, x: Tensor, kernels: Tensor, bias: Tensor, stride: int, padding: int, transposed: bool):
    """C_out and output extents of conv2d (kernels [C_out, C_in, kh, kw]) or,
    if ``transposed``, of transpose_conv2d (kernels [C_in, C_out, kh, kw])."""
    if x.data.ndim != 3 or kernels.data.ndim != 4:
        raise InvalidShapeError(f"{op} expects 3-d input and 4-d kernels, got {x.shape} and {kernels.shape}")
    cin, h, w = x.shape
    kh, kw = kernels.shape[2:]
    kcin, cout = kernels.shape[:2] if transposed else kernels.shape[1::-1]
    if kcin != cin:
        raise InvalidShapeError(f"kernel C_in {kcin} does not match input C_in {cin}")
    if bias.shape != (cout,):
        raise InvalidShapeError(f"bias shape {bias.shape} does not match C_out {cout}")
    if padding < 0:
        raise InvalidShapeError(f"padding must be >= 0, got {padding}")
    if not (stride == 1 or (stride == kh == kw > 1 and padding == 0)):
        raise InvalidShapeError(
            f"{op} takes stride 1, or stride equal to a square kernel with padding 0; "
            f"got stride {stride}, a {kh}x{kw} kernel and padding {padding}"
        )
    if stride > 1 and not transposed and (h % stride or w % stride):
        raise InvalidShapeError(f"{op} at stride {stride} needs input extents divisible by it, got {h}x{w}")
    if transposed:
        oh, ow = (h - 1) * stride - 2 * padding + kh, (w - 1) * stride - 2 * padding + kw
    else:
        oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise InvalidShapeError(f"{op} of a {h}x{w} input by a {kh}x{kw} kernel has no output ({oh}x{ow})")
    return cout, oh, ow


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [C_in,H,W] with kernels [C_out,C_in,kh,kw]."""
    cout, oh, ow = _conv_extents("conv2d", x, kernels, bias, stride, padding, transposed=False)
    cin, h, w = x.shape
    kh, kw = kernels.shape[2:]
    kmat = kernels.data.reshape(cout, cin * kh * kw).astype(_F64)
    out64 = kmat @ _im2col(x.data, kh, kw, stride, padding, oh, ow)
    out64 += bias.data.astype(_F64)[:, None]
    out = _wrap(out64.reshape(cout, oh, ow))

    def backward_fn(g: np.ndarray):
        dx = dk = db = None
        if _needs(x):
            dx = _correlate_t(kmat.T, g, kh, kw, stride, padding, h, w)
        if _needs(kernels):
            # rebuilt from x: kept from the forward, the float64 patches would
            # hold about 18x the bytes of x until this call
            cols = _im2col(x.data, kh, kw, stride, padding, oh, ow)
            dk = (g.reshape(cout, oh * ow) @ cols.T).reshape(cout, cin, kh, kw)
        if _needs(bias):
            db = g.sum(axis=(1, 2))
        return dx, dk, db

    _record(out, (x, kernels, bias), backward_fn)
    return out


def transpose_conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution: the linear adjoint of conv2d with the same kernel.

    Input [C_in,H,W], kernels [C_in,C_out,kh,kw], output extent
    (H-1)*stride - 2*padding + kh.
    """
    cout, oh, ow = _conv_extents("transpose_conv2d", x, kernels, bias, stride, padding, transposed=True)
    cin, h, w = x.shape
    kh, kw = kernels.shape[2:]
    kmat = kernels.data.reshape(cin, cout * kh * kw).astype(_F64)
    out = _wrap(_correlate_t(kmat.T, x.data, kh, kw, stride, padding, oh, ow, bias.data.astype(_F64)))

    def backward_fn(g: np.ndarray):
        dx = dk = db = None
        if _needs(x) or _needs(kernels):
            gcols = _im2col(g, kh, kw, stride, padding, h, w)  # built once for both GEMMs
            if _needs(x):
                dx = (kmat @ gcols).reshape(cin, h, w)
            if _needs(kernels):
                dk = (x.data.reshape(cin, h * w).astype(_F64) @ gcols.T).reshape(cin, cout, kh, kw)
        if _needs(bias):
            db = g.sum(axis=(1, 2))
        return dx, dk, db

    _record(out, (x, kernels, bias), backward_fn)
    return out


def maxpool2d(x: Tensor, window: int) -> Tensor:
    """Max pooling over non-overlapping ``window`` x ``window`` windows at
    stride ``window``; backward routes gradient to the lowest-linear-index
    maximum.

    The window cells, strided views of the input, are folded in linear-index
    order by a strict ``>``, so a tie keeps the first cell: not
    ``np.maximum``, which may return either zero of a +0.0/-0.0 tie.
    """
    if x.data.ndim != 3:
        raise InvalidShapeError(f"maxpool2d expects 3-d input, got {x.shape}")
    c, h, w = x.shape
    if window < 1:
        raise InvalidShapeError(f"maxpool2d needs a window >= 1, got {window}")
    if window > h or window > w:
        raise InvalidShapeError(f"window {window} exceeds input extents {h}x{w}")
    k = window
    oh, ow = h // k, w // k
    cells = [x.data[:, a : a + k * oh : k, b : b + k * ow : k] for a in range(k) for b in range(k)]
    recording = _recording((x,))
    best = cells[0]
    arg = np.zeros((c, oh, ow), dtype=np.intp) if recording else None
    for cell in range(1, k * k):
        later = cells[cell] > best
        best = np.where(later, cells[cell], best)
        if recording:
            arg = np.where(later, cell, arg)
    out = _wrap(best)
    if not recording:
        return out

    def backward_fn(g: np.ndarray):
        if not _needs(x):
            return (None,)
        # one masked strided add per window cell: at the networks' extents
        # this beats a put_along_axis scatter plus the inverse permutation,
        # which allocate two more input-sized arrays
        dx = np.zeros((c, h, w), dtype=_F64)
        for cell in range(k * k):
            a, b = divmod(cell, k)
            dx[:, a : a + k * oh : k, b : b + k * ow : k] += g * (arg == cell)
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
    gamma64 = gamma.data.astype(_F64)[:, None]
    # xm becomes xhat, then the output, in place
    xhat = xm.reshape(c, n)
    xhat -= mu[:, None]
    xhat *= ivar[:, None]
    recording = _recording((x, gamma, beta))
    xhat32 = xhat.astype(_F32) if recording else None
    xhat *= gamma64
    xhat += beta.data.astype(_F64)[:, None]
    out = _wrap(xm)
    if not recording:
        return out

    def backward_fn(g: np.ndarray):
        dx = dgamma = dbeta = None
        g = g.reshape(c, n)
        xh = xhat32.astype(_F64)
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
    if not _recording((x,)):
        return out
    mask = x.data > 0

    def backward_fn(g: np.ndarray):
        return (g * mask,) if _needs(x) else (None,)

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
        return (g.reshape(shape),) if _needs(x) else (None,)

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
        return (np.broadcast_to(g, shape).astype(_F64),) if _needs(x) else (None,)

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
        if not _needs(logits):
            return (None, None)
        p = np.exp(logp)
        p[labf, np.arange(npos)] -= 1.0
        return ((g / npos) * p.reshape(logits.shape), None)

    _record(out, (logits, lab), backward_fn)
    return out
