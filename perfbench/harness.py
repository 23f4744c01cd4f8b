"""Workloads, iterations, correctness gate and metrics of the benchmark.

Every workload is a generated experiment config; the program sees only
that file. One caller drives the public CLI (``taskdenoise.cli.main``) in
this process as a closed loop: each iteration starts when the previous one
has ended. Each iteration's artifacts pass the correctness gate and must
hash to the same digest as the run's first iteration.

Timings come from a segment clock. Untraced iterations mark the start of
every CLI call and the return of every training step (``adam_step``) and
every scored image (``predict``); the time between two marks is a segment.
The pipeline is deterministic, so every iteration cuts the same work into
the same segments. A metric sums, over its segments, each segment's
fastest time across the run's iterations. Other tenants of a shared host
only add time, and mostly in bursts shorter than an iteration: a median of
whole iterations moves with the host's load over the run, while the
fastest of several repeats of a 20-50 ms segment mostly escapes them.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from taskdenoise.cli import main as cli_main
from tracing import Tracer

SCHEMES = ("tc", "td", "hv", "nnv")
VALIDATION_FRACTION = 0.1
SETUP_REPEATS = 5
# functions after whose every return the segment clock marks: one training
# step, one scored image
MARKED = ("adam_step", "predict")
# one directory per workload, emptied by every run's set-up
WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    """Sizes and noises of one generated experiment config."""

    name: str
    task: str  # "segmentation" (nonewnet2d + redcnn) or "classification" (ccnn + mcdncnn)
    size: int  # image height and width
    train_count: int
    test_count: int
    epochs: int  # application and denoiser epochs
    train_noise: dict
    test_noises: tuple


_GAUSS70 = {"kind": "gaussian", "sigma": 70.0}
_GAUSS40 = {"kind": "gaussian", "sigma": 40.0}
_POISSON = {"kind": "poisson", "poisson_scale": 0.1}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("seg-compare", "segmentation", 64, 6, 4, 2, _GAUSS70, (_GAUSS70, _GAUSS40)),
        Workload("cls-compare", "classification", 64, 8, 8, 2, _POISSON, (_POISSON, _GAUSS40)),
    )
}


def make_config(wl: Workload, seed: int, out: Path) -> dict:
    seg = wl.task == "segmentation"
    application = {"kind": "nonewnet2d", "base_channels": 8, "depth": 3} if seg else {"kind": "ccnn", "base_channels": 8}
    return {
        "seed": seed,
        "output_dir": str(out),
        "dataset": {"task": wl.task, "height": wl.size, "width": wl.size, "num_classes": 4 if seg else 3,
                    "train_count": wl.train_count, "test_count": wl.test_count},
        "application": application,
        "denoiser": {"kind": "redcnn" if seg else "mcdncnn", "base_channels": 8},
        "schemes": list(SCHEMES),
        "train_noise": dict(wl.train_noise),
        "test_noises": [dict(n) for n in wl.test_noises],
        "train": {"epochs_application": wl.epochs, "epochs_denoiser": wl.epochs, "learning_rate": 0.001,
                  "checkpoint_cadence": 1, "validation_fraction": VALIDATION_FRACTION},
    }


def train_steps(wl: Workload) -> int:
    """Forward+backward+Adam steps to train all four schemes' networks.

    Mirrors the program's hold-out rule: round(fraction * count) samples,
    at most count - 1, are held out for validation and take no step.
    """
    held_out = min(int(round(VALIDATION_FRACTION * wl.train_count)), wl.train_count - 1)
    return len(SCHEMES) * wl.epochs * (wl.train_count - held_out)


def scored_images(wl: Workload) -> int:
    """(scheme, test noise, image) triples one compare scores."""
    return len(SCHEMES) * len(wl.test_noises) * wl.test_count


def noise_tag(noise: dict) -> str:
    """compare.csv's test_noise label, written out here rather than taken
    from ``experiment.noise_tag`` so that the gate notices a changed label."""
    if noise["kind"] == "gaussian":
        return f"gaussian_sigma{noise['sigma']:g}"
    return f"poisson_scale{noise['poisson_scale']:g}"


# ---------------------------------------------------------------------------
# Correctness gate


_UNIT_INTERVAL = ("dice", "sensitivity", "specificity", "top1")


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_artifacts(wl: Workload, out: Path) -> list[str]:
    """Problems with one iteration's artifacts; empty when they pass."""
    problems: list[str] = []
    path = out / "compare.csv"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"cannot read compare.csv: {exc}"]
    expected = sorted((s, noise_tag(n)) for s in SCHEMES for n in wl.test_noises)
    found = sorted((r.get("scheme"), r.get("test_noise")) for r in rows)
    if found != expected:
        problems.append(f"compare.csv rows {found} != expected {expected}")
    required = ("dice", "sensitivity", "specificity") if wl.task == "segmentation" else ("top1",)
    for row in rows:
        where = f"compare.csv {row.get('scheme')}/{row.get('test_noise')}"
        for name in required:
            if f"{name}_mean" not in row:
                problems.append(f"{where}: missing column {name}_mean")
        for key, value in row.items():
            if key in ("scheme", "test_noise"):
                continue
            if key == "hausdorff_undefined":
                if value is None or not value.isdigit():
                    problems.append(f"{where}: {key}={value!r} is not a count")
                continue
            # Hausdorff is undefined, and left empty, when every prediction misses a class
            if value == "" and key.startswith("hausdorff_"):
                continue
            if value is None or not _finite(value):
                problems.append(f"{where}: {key}={value!r} is not finite")
                continue
            metric, _, stat = key.rpartition("_")
            if metric in _UNIT_INTERVAL and stat == "mean" and not 0.0 <= float(value) <= 1.0:
                problems.append(f"{where}: {key}={value} outside [0, 1]")
            if stat == "sd" and float(value) < 0.0:
                problems.append(f"{where}: {key}={value} is negative")
    for scheme in SCHEMES:
        loss = out / "checkpoints" / scheme / "loss.csv"
        try:
            with open(loss, newline="", encoding="utf-8") as fh:
                losses = list(csv.DictReader(fh))
        except OSError as exc:
            problems.append(f"cannot read {scheme} loss.csv: {exc}")
            continue
        if len(losses) != wl.epochs:
            problems.append(f"{scheme} loss.csv has {len(losses)} epochs, expected {wl.epochs}")
        for row in losses:
            if not _finite(row.get("train_loss") or ""):
                problems.append(f"{scheme} loss.csv: train_loss {row.get('train_loss')!r} is not finite")
            if row.get("val_loss") and not _finite(row["val_loss"]):
                problems.append(f"{scheme} loss.csv: val_loss {row['val_loss']!r} is not finite")
    return problems


def artifact_digest(out: Path) -> str:
    """sha256 over compare.csv, metrics/*.csv and every checkpoint tensor."""
    files = [out / "compare.csv", *sorted((out / "metrics").glob("*.csv")),
             *sorted((out / "checkpoints").glob("*/*.tsr1"))]
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Iterations


def run_cli(args: list[str]) -> tuple[int, str]:
    """One CLI call in this process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(args)
    return code, err.getvalue()


def pipeline(config: Path) -> list[tuple[str, list[str]]]:
    """(stage, CLI arguments) of a full experiment: generate, train each
    scheme in config order, then compare, which finds every checkpoint and
    only evaluates. The artifacts equal those of one ``compare`` call."""
    common = ["--config", str(config)]
    return [("generate", ["generate", *common]),
            *[("train", ["train", *common, "--scheme", s]) for s in SCHEMES],
            ("eval", ["compare", *common])]


class SegmentClock:
    """Marks (stage, time) at each CLI call's start and after every return
    of a :data:`MARKED` function, wrapped in each ``taskdenoise`` module
    that binds it by name. :meth:`uninstall` puts every original back."""

    def __init__(self):
        self.stage = ""
        self.marks: list[tuple[str, float]] = []
        self._originals: list[tuple] = []

    def mark(self) -> None:
        self.marks.append((self.stage, time.perf_counter()))

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("segment clock is already installed")
        from taskdenoise import optim, schemes

        originals = {"adam_step": optim.adam_step, "predict": schemes.predict}
        for module in [m for name, m in sys.modules.items() if name.startswith("taskdenoise.")]:
            for name in MARKED:
                if getattr(module, name, None) is originals[name]:
                    self._originals.append((module, name, originals[name]))
                    setattr(module, name, self._marking(originals[name]))

    def _marking(self, fn):
        clock = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            clock.mark()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def segments(self) -> list[tuple[str, float]]:
        """(stage, seconds) between consecutive marks, in the stage of the
        first of the two."""
        return [(stage, end - start) for (stage, start), (_, end) in zip(self.marks, self.marks[1:])]


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    problems: list
    digest: str
    segments: list = field(default_factory=list)  # (stage, seconds), untraced iterations only
    layers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_stages(calls, tracer=None, clock=None) -> tuple[float, list[str]]:
    """Run the CLI calls in order; returns (seconds, problems)."""
    start = time.perf_counter()
    problems = []
    for stage, args in calls:
        span = tracer.span(f"experiment.stage.{stage}") if tracer is not None else nullcontext()
        if clock is not None:
            clock.stage = stage
            clock.mark()
        with span:
            code, err = run_cli(args)
        if code != 0:
            problems.append(f"{' '.join(args[:1] + args[3:])} exited {code}: {err.strip()}")
    if clock is not None:
        clock.mark()
    return time.perf_counter() - start, problems


def run_iteration(wl: Workload, config: Path, out: Path, tracer=None, clock=None) -> Iteration:
    shutil.rmtree(out, ignore_errors=True)
    if clock is not None:
        clock.marks.clear()
    wall_s, problems = run_stages(pipeline(config), tracer, clock)
    if not problems:
        problems = check_artifacts(wl, out)
    segments = clock.segments() if clock is not None else []
    return Iteration(tracer is not None, wall_s, problems, artifact_digest(out), segments)


def fastest_segments(iterations: list[Iteration]) -> dict:
    """Seconds per stage: the sum over its segments of each segment's
    fastest time across ``iterations``, which cut the same segments."""
    stage_s = {"generate": 0.0, "train": 0.0, "eval": 0.0}
    durations = zip(*[[seconds for _, seconds in it.segments] for it in iterations])
    for (stage, _), times in zip(iterations[0].segments, durations):
        stage_s[stage] += min(times)
    return stage_s


def prepare(wl: Workload, seed: int, work: Path) -> Path:
    """One set-up: a fresh work dir and the config; returns the config path."""
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    out.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(make_config(wl, seed, out), indent=2) + "\n")
    return config


# ---------------------------------------------------------------------------
# A run


@dataclass
class RunResult:
    attempted: int
    failed: int
    correct: bool
    values: dict  # metric name -> value
    digest: str
    problems: list


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> RunResult:
    """Set up, then iterate until ``seconds`` of iterations have run.

    Untraced: end-to-end metrics. Traced: iterations alternate untraced and
    traced, giving the per-layer metrics and the trace overhead.
    """
    work = root / WORK_DIR / wl.name
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # this process imported the program once; a fresh interpreter repeats
        # it. No timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, and set-up times would come out in those steps.
        subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(root / 'src')!r}); "
                        "import taskdenoise.cli"], cwd=root, check=True)
        config = prepare(wl, seed, work)
        setup_s.append(time.perf_counter() - start)
    out = work / "out"

    tracer = Tracer() if trace else None
    clock = None if trace else SegmentClock()
    iterations: list[Iteration] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_iteration(len(iterations))
            try:
                it = run_iteration(wl, config, out, tracer)
            finally:
                tracer.uninstall()
            it.layers = tracer.end_iteration()
        elif clock is not None:
            clock.install()
            try:
                it = run_iteration(wl, config, out, clock=clock)
            finally:
                clock.uninstall()
        else:
            it = run_iteration(wl, config, out)
        if iterations and it.digest != iterations[0].digest:
            it.problems.append(f"artifact digest {it.digest} != first iteration's {iterations[0].digest}")
        if iterations and [s for s, _ in it.segments] != [s for s, _ in iterations[0].segments]:
            it.problems.append(f"{len(it.segments)} timed segments, the first iteration had "
                               f"{len(iterations[0].segments)}")
        iterations.append(it)
        if time.perf_counter() - begin >= seconds and (not trace or traced):
            break

    failed = sum(not it.ok for it in iterations)
    ok = [it for it in iterations if it.ok] or iterations
    plain = [it for it in ok if not it.traced]
    values = {"failed_frac": failed / len(iterations), "iterations": len(iterations)}
    if trace:
        traced_its = [it for it in ok if it.traced] or [it for it in iterations if it.traced]
        for name in traced_its[0].layers:
            values[name] = statistics.median([it.layers[name] for it in traced_its])
        untraced_wall = statistics.median([it.wall_s for it in plain or iterations])
        values["trace.overhead_frac"] = statistics.median([it.wall_s for it in traced_its]) / untraced_wall - 1.0
        values["traced_wall_s"] = statistics.median([it.wall_s for it in traced_its])
        values["untraced_wall_s"] = untraced_wall
        tracer.write(work / "trace.jsonl")
    else:
        stage_s = fastest_segments(ok)
        values["wall_s"] = sum(stage_s.values())
        values["eval_images_per_s"] = scored_images(wl) / stage_s["eval"]
        values["train_samples_per_s"] = train_steps(wl) / stage_s["train"]
        values["segments"] = len(ok[0].segments)
        walls = [it.wall_s for it in ok]
        values["iteration_wall_median_s"] = statistics.median(walls)
        values["iteration_wall_max_s"] = max(walls)
        values["setup_s"] = statistics.median(setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [p for it in iterations for p in it.problems]
    return RunResult(len(iterations), failed, failed == 0, values, iterations[0].digest, problems)


# ---------------------------------------------------------------------------
# Environment record


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, wl: Workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        blas_name = blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "processes": 1,
        "git_revision": _git_revision(root),
        "src_sha256": _source_digest(root),
        "workload": wl.name,
        "seed": seed,
        "config": make_config(wl, seed, Path(WORK_DIR) / wl.name / "out"),
        "platform": platform.platform(),
    }
