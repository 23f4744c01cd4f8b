"""A recorded forward keeps no state that backward can recompute.

A conv2d's float64 im2col patches hold 18 times the bytes of its float32
input, and the kernels of an nnv step's frozen application network take no
gradient at all. So the patches are rebuilt in backward, as are relu's
mask, batchnorm's normalized input and max pooling's routing. These tests
run one full step first, then measure with tracemalloc what a recorded
forward (the loss and its tape) leaves alive. At 64x64, width 8, that
measured 21.6-33.7 MiB with the patches kept, 4.0-6.9 MiB without them
(mcdncnn 4.12 MiB) and 3.00-6.23 MiB with the other three recomputed too
(mcdncnn 3.00 MiB, U-Net 3.66 MiB, nnv 6.23 MiB).

Once the tape, loss and gradients of a step are dropped, nothing the step
allocated may stay alive: no op keeps a buffer between calls.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import taskdenoise
from taskdenoise.autodiff import Tape, Tensor, backward, cross_entropy_loss, mse_loss
from taskdenoise.networks import NetworkSpec, build_network

_SRC = Path(taskdenoise.__file__).resolve().parent.parent

# between the two sets of measurements above
BOUND_MIB = 12


def _network(kind: str):
    spec = NetworkSpec(kind=kind, base_channels=8, num_classes=4, height=64, width=64, seed=3)
    return build_network(spec)


def _loss_fn(case: str):
    """The parameters one training step watches, and a function running its
    recorded forward."""
    rng = np.random.default_rng(4)
    noisy = Tensor(rng.uniform(0, 255, size=(1, 64, 64)).astype(np.float32))
    labels = rng.integers(0, 4, size=(64, 64))
    if case == "mcdncnn":  # hv: pixel loss of the denoiser
        model = _network("mcdncnn")
        clean = Tensor(rng.uniform(0, 255, size=(1, 64, 64)).astype(np.float32))
        return model.parameters(), lambda: mse_loss(model.forward(noisy, train=True), clean)
    if case == "nonewnet2d":  # tc: task loss of the U-Net
        model = _network("nonewnet2d")
        return model.parameters(), lambda: cross_entropy_loss(model.forward(noisy, train=True), labels)
    # nnv: task loss of redcnn through the frozen U-Net, which no tape watches
    denoiser, application = _network("redcnn"), _network("nonewnet2d")
    return denoiser.parameters(), lambda: cross_entropy_loss(
        application.forward(denoiser.forward(noisy, train=True), train=False), labels
    )


def _kept_by_recorded_forward(case: str) -> int:
    """Bytes a recorded forward of ``case`` leaves alive, after one warm step."""
    params, loss_fn = _loss_fn(case)
    with Tape(params) as tape:
        backward(loss_fn(), tape)
    tracemalloc.start()
    try:
        with Tape(params) as tape:
            loss = loss_fn()
            kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape.records) and tape.records[-1].out is loss
    return kept


@pytest.mark.parametrize("case", ["mcdncnn", "nonewnet2d", "nnv"])
def test_recorded_forward_keeps_no_patches(case):
    kept = _kept_by_recorded_forward(case)
    assert kept < BOUND_MIB * 2**20, f"{case}: a recorded forward keeps {kept / 2**20:.1f} MiB"


# between mcdncnn's 4.12 MiB with relu's masks and batchnorm's float32
# normalized inputs kept and its 3.00 MiB with both recomputed in backward
STATE_BOUND_MIB = 3.5


def test_recorded_forward_keeps_no_mask_or_normalized_input():
    kept = _kept_by_recorded_forward("mcdncnn")
    assert kept < STATE_BOUND_MIB * 2**20, f"a recorded mcdncnn forward keeps {kept / 2**20:.2f} MiB"


# what an nnv step may leave allocated once its tape, loss and gradients are gone
RETAINED_BOUND_MIB = 1


def retained_after_nnv_step() -> int:
    """Bytes still allocated after one nnv step whose results are dropped."""
    params, loss_fn = _loss_fn("nnv")
    tracemalloc.start()
    try:
        with Tape(params) as tape:
            loss = loss_fn()
            grads = backward(loss, tape)
        del tape, loss, grads
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_training_step_leaves_no_memory_behind():
    # a fresh interpreter: a buffer that earlier tests had already grown
    # would not grow again during the measured step
    path = [str(Path(__file__).parent), str(_SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import test_memory; print(test_memory.retained_after_nnv_step())"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    retained = int(run.stdout)
    assert retained < RETAINED_BOUND_MIB * 2**20, f"an nnv step leaves {retained / 2**20:.2f} MiB allocated"
