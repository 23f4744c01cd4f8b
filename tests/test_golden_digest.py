"""Seed 1 of both benchmark workloads reproduces the recorded artifact digests.

``perfbench/baseline.json`` holds, per workload, the sha256 over
compare.csv, the per-sample metric CSVs and every checkpoint tensor of one
full pipeline run (generate, train every scheme, compare) for seeds 1-10,
with the environment that recorded them. A speedup that leaves every
artifact byte-identical passes; one that reorders a float64 sum, changes a
seed derivation or a file format fails. The digests depend on the numpy
and BLAS builds, so the test skips when either differs from the record.

The ``cls-compare`` digest also depends on the CPU kernels OpenBLAS and
numpy select at run time, which the record does not hold and the skip does
not test. Both digests hold on the recording host's own kernels under one
and two BLAS threads. Seed 1 of ``cls-compare`` gives ``f75c2dbb...``
under ``OPENBLAS_CORETYPE=Haswell``, ``7b6ec42f...`` under
``Sandybridge``, ``b84c892a...`` under ``Nehalem`` and ``ce41c126...``
under ``NPY_DISABLE_CPU_FEATURES=X86_V4``. In each, only the mcdncnn
denoisers' checkpoints move (nnv's always, hv's too under Sandybridge and
Nehalem); the tc and td checkpoints and every metrics CSV keep their
bytes. The largest moves are in the biases of the convs that feed
train-mode batchnorm, whose true gradient is zero, so Adam steps them on
rounding noise: up to 3.9e-5 for nnv and 7.9e-4 for hv, against at most
3e-8 for any conv weight. ``seg-compare`` keeps its digest under all four.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BASELINE = json.loads((PERFBENCH / "baseline.json").read_text())
SEED = 1


def _blas() -> tuple:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        return None, None
    return blas.get("name"), blas.get("version")


@pytest.fixture(scope="module")
def harness():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import harness

    return harness


@pytest.mark.parametrize("name", sorted(BASELINE["workloads"]))
def test_seed_1_artifacts_match_the_baseline(harness, tmp_path, name):
    record = BASELINE["workloads"][name]
    env = record["env"]
    here = (np.__version__, *_blas())
    recorded = (env["numpy"], env["blas"], env["blas_version"])
    if here != recorded:
        pytest.skip(f"digests were recorded with numpy/BLAS {recorded}, this is {here}")
    wl = harness.WORKLOADS[name]
    config = harness.prepare(wl, SEED, tmp_path)
    iteration = harness.run_iteration(wl, config, tmp_path / "out")
    assert iteration.ok, iteration.problems
    assert iteration.digest == record["digests"][str(SEED)]
