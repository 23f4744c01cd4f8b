"""Self-test of the benchmark, with every workload shrunk to 16x16 images.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
from taskdenoise import autodiff, experiment, schemes  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(wl: harness.Workload) -> harness.Workload:
    return dataclasses.replace(wl, size=16, train_count=3, test_count=2, epochs=1)


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "WORKLOADS", {name: tiny(wl) for name, wl in harness.WORKLOADS.items()})
    monkeypatch.setattr(harness, "WORK_DIR", str(tmp_path))


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(tiny_workloads, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # shape checks that follow from the workloads
    if name == "cls-compare":
        assert values["autodiff.transpose_conv2d.calls"] == 0
        assert values["autodiff.batchnorm2d.fwd_s"] > 0
    else:
        assert values["autodiff.batchnorm2d.fwd_s"] == values["autodiff.batchnorm2d.bwd_s"] == 0
        assert values["autodiff.transpose_conv2d.calls"] > 0
    assert values["optim.adam_step.calls"] == harness.train_steps(harness.WORKLOADS[name])
    assert values["autodiff.conv.gflop"] > 0 and values["autodiff.conv2d.calls"] > 0


@pytest.fixture
def seg_compare_out(tmp_path):
    wl = tiny(harness.WORKLOADS["seg-compare"])
    config = harness.prepare(wl, 5, tmp_path / "work")
    out = tmp_path / "work" / "out"
    it = harness.run_iteration(wl, config, out)
    assert it.ok, it.problems
    return wl, out


def test_staged_pipeline_equals_one_compare(seg_compare_out, tmp_path):
    wl, out = seg_compare_out
    config = harness.prepare(wl, 5, tmp_path / "single")
    assert harness.run_cli(["compare", "--config", str(config)])[0] == 0
    assert harness.artifact_digest(tmp_path / "single" / "out") == harness.artifact_digest(out)


def _set_dice(rows: list[str], value: str) -> list[str]:
    fields = [r.split(",") for r in rows[1:]]
    return [rows[0]] + [",".join(f[:2] + [value] + f[3:]) for f in fields]


@pytest.mark.parametrize("corrupt", [
    lambda rows: [rows[0], "tq" + rows[1][2:], *rows[2:]],
    lambda rows: rows[:-1],
    lambda rows: rows + rows[-1:],
    lambda rows: _set_dice(rows, "nan"),
    lambda rows: _set_dice(rows, "1.5"),
    lambda rows: _set_dice(rows, ""),
], ids=["renamed-row", "missing-row", "duplicate-row", "nan-dice", "dice-above-one", "empty-dice"])
def test_gate_catches_corrupted_compare_csv(seg_compare_out, corrupt):
    wl, out = seg_compare_out
    path = out / "compare.csv"
    rows = path.read_text().splitlines()
    assert rows[0].split(",")[2] == "dice_mean"
    path.write_text("\n".join(corrupt(rows)) + "\n")
    assert harness.check_artifacts(wl, out)


def test_gate_catches_non_finite_loss(seg_compare_out):
    wl, out = seg_compare_out
    loss = out / "checkpoints" / "hv" / "loss.csv"
    header, first, *rest = loss.read_text().splitlines()
    loss.write_text("\n".join([header, "1,inf,0.5", *rest]) + "\n")
    assert any("hv loss.csv" in p for p in harness.check_artifacts(wl, out))


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_digests_match(tmp_path, name):
    wl = tiny(harness.WORKLOADS[name])
    config = harness.prepare(wl, 7, tmp_path / "work")
    out = tmp_path / "work" / "out"
    untraced = harness.run_iteration(wl, config, out)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_iteration(1)
        traced = harness.run_iteration(wl, config, out, tracer)
    finally:
        tracer.uninstall()
    assert untraced.ok and traced.ok, untraced.problems + traced.problems
    assert traced.digest == untraced.digest
    assert tracer.spans and all(span[0] == 1 for span in tracer.spans)
    # uninstall restores the program's own functions
    assert schemes.backward is autodiff.backward
    assert experiment.load_checkpoint.__module__ == "taskdenoise.networks"


@pytest.mark.parametrize("name", NAMES)
def test_segments_tile_the_iteration(tmp_path, name):
    wl = tiny(harness.WORKLOADS[name])
    config = harness.prepare(wl, 7, tmp_path / "work")
    out = tmp_path / "work" / "out"
    clock = harness.SegmentClock()
    clock.install()
    try:
        its = [harness.run_iteration(wl, config, out, clock=clock) for _ in range(2)]
    finally:
        clock.uninstall()
    assert all(it.ok for it in its), [it.problems for it in its]
    # one segment per CLI call start, training step and scored image
    calls = len(harness.pipeline(config))
    assert len(its[0].segments) == calls + harness.train_steps(wl) + harness.scored_images(wl)
    assert [s for s, _ in its[0].segments] == [s for s, _ in its[1].segments]
    for it in its:
        assert sum(seconds for _, seconds in it.segments) == pytest.approx(it.wall_s, rel=0.05)
    stage_s = harness.fastest_segments(its)
    assert 0 < sum(stage_s.values()) <= min(it.wall_s for it in its) * 1.05
    assert schemes.adam_step.__module__ == "taskdenoise.optim"
    assert not hasattr(schemes.predict, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
