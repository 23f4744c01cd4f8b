"""The convolution family and batchnorm give the same bits as the reference.

The brute-force oracles in ``test_autodiff.py`` compare with tolerances,
so they cannot see a float64 sum that adds its terms in another order.
These tests compare bytes: forward outputs, and every float64 gradient the
op's backward returns, at each layer shape the four networks run (64x64,
width 8) and at other extents and strides of the layouts the ops accept. The output
gradient fed to backward holds +0.0 and -0.0 entries, as relu's backward
produces, so that a changed sign of zero shows too. An op must give the
same output bytes whether or not it is recorded. One training step of each network must give the same
loss, gradient and running-stat bytes with the reference ops swapped in,
which the per-op tests cannot show: that a result still in use is not
overwritten by a later op or backward call.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import conv_reference as ref
from taskdenoise import autodiff as ad
from taskdenoise.autodiff import Tape, Tensor, backward
from taskdenoise.networks import ALL_KINDS, NetworkSpec, build_network

OPS = ("conv2d", "transpose_conv2d", "maxpool2d")


def _same_bits(a: np.ndarray, b: np.ndarray, what: str) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape, f"{what}: {a.dtype}{a.shape} vs {b.dtype}{b.shape}"
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), f"{what}: bits differ"


def _output_grad(shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=shape)
    # relu's backward multiplies by a boolean mask: zeros of either sign
    return np.where(rng.random(shape) < 0.3, g * 0.0, g)


def _run(op, arrays, args, seed: int, needs=None):
    """Forward value and the op's backward of the output gradient of
    ``seed``, run under a tape watching input i if ``needs[i]`` (default:
    every input): a float64 gradient of each watched input, else None."""
    inputs = [Tensor(a) for a in arrays]
    watched = [t for t, n in zip(inputs, needs or [True] * len(inputs)) if n]
    with Tape(watched) as tape:
        out = op(*inputs, *args)
        grads = tape.records[-1].backward_fn(_output_grad(out.shape, seed))
    return out, grads


def assert_exact(name: str, arrays, args, seed: int = 0, needs=None) -> None:
    out, grads = _run(getattr(ad, name), arrays, args, seed, needs)
    out_ref, grads_ref = _run(getattr(ref, name), arrays, args, seed, needs)
    _same_bits(out.data, out_ref.data, f"{name}{args} forward")
    assert len(grads) == len(grads_ref) == len(arrays)
    for i, (d, d_ref) in enumerate(zip(grads, grads_ref)):
        what = f"{name}{args} gradient of input {i} (inputs needing one: {needs or 'all'})"
        assert (d is None) == (d_ref is None), f"{what}: {d} vs {d_ref}"
        if d is not None:
            _same_bits(d, d_ref, what)


@contextmanager
def _ops_replaced(replacements: dict):
    """Swap ``ad``'s ops for ``replacements`` (name -> function) while
    the block runs; the networks look their ops up in ``ad`` at call time."""
    originals = {name: getattr(ad, name) for name in replacements}
    try:
        for name, fn in replacements.items():
            setattr(ad, name, fn)
        yield
    finally:
        for name, fn in originals.items():
            setattr(ad, name, fn)


def _network(kind: str):
    spec = NetworkSpec(kind=kind, base_channels=8, num_classes=4, height=64, width=64, seed=5)
    return build_network(spec)


def _image() -> Tensor:
    return Tensor(np.random.default_rng(1).uniform(0, 255, size=(1, 64, 64)).astype(np.float32))


def _layer_calls(kind: str) -> list:
    """(op name, input arrays, other args) of every conv/pool call in one
    training-mode forward pass of ``kind`` at 64x64, width 8."""
    model = _network(kind)
    calls = []

    def recording(name):
        real = getattr(ad, name)

        def wrapper(*args):
            tensors = [a for a in args if isinstance(a, Tensor)]
            calls.append((name, [t.data.copy() for t in tensors], args[len(tensors):]))
            return real(*args)

        return wrapper

    with _ops_replaced({name: recording(name) for name in OPS}):
        model.forward(_image(), train=True)
    return calls


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_layer_of_the_networks(kind):
    calls = _layer_calls(kind)
    assert {name for name, _, _ in calls} >= {"conv2d"}
    for i, (name, arrays, args) in enumerate(calls):
        assert_exact(name, arrays, args, seed=i)


def _training_step(kind: str) -> list:
    """Bytes of one recorded train-mode step of ``kind`` at 64x64, width 8:
    the loss, every parameter gradient and every ``named_state()`` tensor,
    which holds the batchnorm running stats."""
    model = _network(kind)
    image = _image()
    rng = np.random.default_rng(2)
    with Tape(model.parameters()) as tape:
        out = model.forward(image, train=True)
        if out.shape == image.shape:
            loss = ad.mse_loss(out, Tensor(rng.uniform(0, 255, size=image.shape)))
        else:
            loss = ad.cross_entropy_loss(out, rng.integers(0, 4, size=out.shape[1:]))
        grads = backward(loss, tape)
    results = [loss.data] + [grads[p] for p in model.parameters()]
    return results + [t.data for _, t in model.named_state()]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_whole_network_step(kind):
    # every op's results must stay intact through later ops and backward
    # calls, which the reference ops, one plain array per value, show
    step = _training_step(kind)
    with _ops_replaced({name: getattr(ref, name) for name in (*OPS, "batchnorm2d")}):
        step_ref = _training_step(kind)
    assert len(step) == len(step_ref)
    for i, (a, a_ref) in enumerate(zip(step, step_ref)):
        _same_bits(a, a_ref, f"{kind} step result {i}")


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


# which of (input, kernels, bias) require a gradient: all of them, the
# kernels and bias only, as in a network's first conv on the raw image, or
# one alone; each set takes another branch of the op's backward
NEEDS = [(True, True, True), (False, True, True), (False, True, False), (True, False, False), (False, False, True)]


@pytest.mark.parametrize("stride,padding,kernel", [(1, 0, 3), (1, 1, 3), (3, 0, 3), (2, 0, 2)])
def test_conv2d_strides(stride, padding, kernel):
    # a strided conv's windows tile its input, so its extents are multiples of the stride
    h = 7 if stride == 1 else 4 * stride
    arrays = [_rand((2, h, 6), 1), _rand((3, 2, kernel, kernel), 2), _rand((3,), 3)]
    for needs in NEEDS:
        assert_exact("conv2d", arrays, (stride, padding), needs=needs)


@pytest.mark.parametrize("stride,padding,kernel", [(1, 0, 3), (1, 1, 3), (3, 0, 3), (2, 0, 2), (1, 0, 1)])
def test_transpose_conv2d_strides(stride, padding, kernel):
    arrays = [_rand((2, 5, 4), 4), _rand((2, 3, kernel, kernel), 5), _rand((3,), 6)]
    for needs in NEEDS:
        assert_exact("transpose_conv2d", arrays, (stride, padding), needs=needs)


@pytest.mark.parametrize("shape", [(2, 4, 4), (2, 5, 5), (3, 7, 6), (1, 6, 7)])
@pytest.mark.parametrize("window", [2, 3], ids=["2-2", "3-3"])  # window-stride
def test_maxpool2d_extents(shape, window):
    assert_exact("maxpool2d", [_rand(shape, 7)], (window,))


def test_maxpool2d_ties():
    # ties route the gradient to the first maximum on both paths
    x = np.round(_rand((2, 7, 6), 8)).astype(np.float32)
    assert_exact("maxpool2d", [x], (2,))


def _stats(c: int, seed: int) -> tuple[Tensor, Tensor]:
    """A running mean and a running variance."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=c)), Tensor(rng.uniform(0.5, 2.0, size=c))


@pytest.mark.parametrize("shape", [(8, 64, 64), (3, 5, 7)])
@pytest.mark.parametrize("train", [True, False])
def test_batchnorm2d(shape, train):
    c = shape[0]
    arrays = [_rand(shape, 9) * 3 + 1, 1 + 0.5 * _rand((c,), 10), _rand((c,), 11)]
    results = []
    for op in (ad.batchnorm2d, ref.batchnorm2d):
        mean, var = _stats(c, 12)
        out, grads = _run(op, arrays, (mean, var, train), 13)
        results.append((out.data, mean.data, var.data, grads))
    (out, mean, var, grads), (out_ref, mean_ref, var_ref, grads_ref) = results
    _same_bits(out, out_ref, f"batchnorm2d train={train} forward")
    _same_bits(mean, mean_ref, "running mean")
    _same_bits(var, var_ref, "running var")
    assert len(grads) == len(grads_ref) == 3
    for i, (d, d_ref) in enumerate(zip(grads, grads_ref)):
        _same_bits(d, d_ref, f"batchnorm2d train={train} gradient of input {i}")


def _forward_calls():
    """(op, input arrays, other args) of the ops whose backward recomputes
    state from the record, and of the transposed convolutions."""
    c = 8
    return [
        (ad.relu, [_rand((c, 9, 7), 14)], ()),
        (ad.batchnorm2d, [_rand((c, 9, 7), 15), 1 + _rand((c,), 16), _rand((c,), 17)], (*_stats(c, 18), False)),
        (ad.maxpool2d, [np.round(_rand((c, 9, 7), 19))], (2,)),
        (ad.transpose_conv2d, [_rand((3, 5, 4), 20), _rand((3, c, 3, 3), 21), _rand((c,), 22)], (1, 1)),
        (ad.transpose_conv2d, [_rand((3, 5, 4), 23), _rand((3, c, 2, 2), 24), _rand((c,), 25)], (2, 0)),
    ]


@pytest.mark.parametrize("call", range(5), ids=["relu", "batchnorm2d", "maxpool2d", "tconv-s1p1", "tconv-s2p0"])
def test_forward_is_the_same_with_and_without_a_tape(call):
    op, arrays, args = _forward_calls()[call]
    plain = op(*[Tensor(a) for a in arrays], *args)
    inputs = [Tensor(a) for a in arrays]
    with Tape(inputs) as tape:
        recorded = op(*inputs, *args)
    assert len(tape.records) == 1 and recorded.requires_grad and not plain.requires_grad
    _same_bits(plain.data, recorded.data, f"{op.__name__}{args[-2:]} forward")
