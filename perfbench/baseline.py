"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads cls-compare --seeds 1-5 --trace-seed 0

For every workload it runs ``run.py`` once per seed, untraced, for
``run_seconds`` from ``BENCHMARK.json``, and reports each end-to-end
metric's median, quartiles and spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. A spread at or above a third of the metric's bound is flagged.
With ``--trace-seed`` it adds one traced run per workload. ``--out`` writes
everything, with the environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result["digest"] = next((line.split()[-1] for line in lines if line.startswith("digest ")), None)
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seed", type=int, default=None, help="also make one traced run with this seed")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    report: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {
            "env": runs[0]["env"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "digests": {str(seed): r["digest"] for seed, r in zip(seeds, runs)},
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = {"unit": metric["unit"], **summarise(values, metric["bound"])}
            s = entry["end_to_end"][metric["name"]]
            print(f"{workload} {metric['name']}: median {s['median']:.4g} {metric['unit']}, "
                  f"spread {s['spread']:.3f} (bound {metric['bound']}){'' if s['steady'] else '  NOT STEADY'}",
                  flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"], "digest": traced["digest"],
                               "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
            print(f"{workload} traced seed {args.trace_seed}: correct={traced['correct']} "
                  f"overhead={traced['metrics']['trace.overhead_frac']['value']:.3f}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
