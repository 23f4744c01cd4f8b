"""Command-line driver.

Subcommands: generate, train, eval, compare, dct. Every command is a pure
function of the config file (plus explicit flag overrides), exits 0 on
success, and on failure prints one machine-parsable ``code: message`` line
to stderr with a per-error-class exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiment
from .config import ExperimentConfig, parse_config
from .errors import ConfigError, TaskDenoiseError
from .noise import GAUSSIAN, NoiseSpec
from .rng import derive_seed
from .schemes import SCHEME_KINDS


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, seed_override)


def _pick_test_noise(cfg: ExperimentConfig, sigma: float | None) -> NoiseSpec:
    if sigma is None:
        return cfg.test_noises[0]
    for spec in cfg.test_noises:
        if spec.kind == GAUSSIAN and spec.sigma == sigma:
            return spec
    return NoiseSpec(kind=GAUSSIAN, mu=0.0, sigma=sigma, seed=derive_seed(cfg.seed, f"noise/test/sigma{sigma:g}"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskdenoise",
        description="Task-guided denoising experiments: phantom data, four training schemes, metrics, DCT analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None, help="override the global seed")

    p = sub.add_parser("generate", help="generate the phantom dataset")
    common(p)

    p = sub.add_parser("train", help="train one scheme (and its dependencies)")
    common(p)
    p.add_argument("--scheme", required=True, choices=SCHEME_KINDS)

    p = sub.add_parser("eval", help="evaluate one trained scheme on the test set")
    common(p)
    p.add_argument("--scheme", required=True, choices=SCHEME_KINDS)
    p.add_argument("--test-sigma", type=float, default=None, help="gaussian test noise sigma")

    p = sub.add_parser("compare", help="train and evaluate every scheme, write compare.csv")
    common(p)

    p = sub.add_parser("dct", help="DCT spectrum (and frequency-gradient) heatmaps")
    common(p)
    p.add_argument("--image", required=True, help="input image (TSR1 file)")
    p.add_argument("--checkpoint", default=None, help="model checkpoint for the frequency-gradient map")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.seed)
        if args.command == "generate":
            path = experiment.cmd_generate(cfg, args.out)
            print(path)
        elif args.command == "train":
            paths = experiment.cmd_train(cfg, args.scheme, args.out)
            for key, value in paths.items():
                if value is not None:
                    print(f"{key}: {value}")
        elif args.command == "eval":
            noise_spec = _pick_test_noise(cfg, args.test_sigma)
            report, path = experiment.cmd_eval(cfg, args.scheme, noise_spec, args.out)
            for name, (mean, sd) in sorted(report.aggregates.items()):
                print(f"{name}: {mean:.6g} +/- {sd:.6g}")
            print(path)
        elif args.command == "compare":
            result = experiment.cmd_compare(cfg, args.out)
            print(result.path)
        elif args.command == "dct":
            for path in experiment.cmd_dct(cfg, args.image, args.checkpoint, args.out):
                print(path)
    except TaskDenoiseError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # keep the single-line error contract
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
