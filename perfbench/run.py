"""Benchmark of the taskdenoise pipeline, driven through its public CLI.

Run from the repository root:

    python3 perfbench/run.py --workload seg-compare --seed 1 --seconds 50 --trace 0

The workloads, metrics and units are listed in ``BENCHMARK.json`` at the
repository root. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics, the trace overhead, and writes every span to
``.perfbench_work/<workload>/trace.jsonl``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Earlier lines give the environment record, the artifact
digest and every metric in readable form.

``wall_s`` is one iteration (``generate``, ``train`` per scheme,
``compare``) timed by the segment clock of ``harness.py``: the sum, over
the iteration's segments (a CLI call's start, a training step, a scored
image), of each segment's fastest time in the run. ``train_samples_per_s``
and ``eval_images_per_s`` divide the steps and scored images of one
iteration by the same sum over the train and eval segments. The median and
slowest whole-iteration times are printed for reading. ``setup_s`` is the
median of five set-ups, each a fresh interpreter importing the CLI plus
writing the config. OpenBLAS runs one
thread unless ``OPENBLAS_NUM_THREADS`` says otherwise: at these matrix
sizes a second thread gives no speed, only spins a core and lets noise
from the other core into every timing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# values printed for reading that are not metrics of BENCHMARK.json
EXTRA_UNITS = {"failed_frac": "ratio", "iterations": "count", "segments": "count", "iteration_wall_median_s": "s",
               "iteration_wall_max_s": "s", "traced_wall_s": "s", "untraced_wall_s": "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "taskdenoise" / "__init__.py").is_file():
        print(f"no taskdenoise sources under {src}", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(src), str(HERE)]
    import harness
    import taskdenoise

    if Path(taskdenoise.__file__).resolve().parent != (src / "taskdenoise").resolve():
        print(f"imported taskdenoise from {taskdenoise.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = harness.WORKLOADS[args.workload]
    env = harness.environment(ROOT, wl, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} cores", file=sys.stderr)
        return 2

    result = harness.run(wl, args.seed, args.seconds, bool(args.trace), ROOT)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result.values[m["name"]], "unit": m["unit"]} for m in listed}
    for problem in result.problems:
        print(f"problem {problem}")
    print(f"digest {wl.name} seed {args.seed} {result.digest}")
    units = {**EXTRA_UNITS, **{name: m["unit"] for name, m in metrics.items()}}
    for name, value in sorted(result.values.items()):
        print(f"value {name} {value:.6g} {units.get(name, '')}".rstrip())
    print(json.dumps({"correct": result.correct, "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
