"""End-to-end experiment pipeline: generate, train, evaluate, compare, analyze.

Artifact layout under the output directory:

    dataset/                      generated phantom dataset
    checkpoints/<scheme>/         trained weights + loss.csv
    metrics/<scheme>_<noise>.csv  per-sample metrics
    compare.csv                   schemes x metrics aggregate
    dct/<name>.{csv,pgm}          spectrum and frequency-gradient heatmaps

Training a scheme trains its missing dependencies (nnv needs the tc-trained
application network); evaluation never trains and fails on missing
checkpoints. All artifacts are pure functions of the config.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from . import dct as dct_mod
from . import metrics as metrics_mod
from . import schemes as schemes_mod
from .config import ExperimentConfig
from .data import Sample, generate_dataset, load_dataset, save_dataset
from .errors import CheckpointError, ConfigError
from .networks import Model, build_network, load_checkpoint, save_checkpoint
from .noise import GAUSSIAN, NoiseSpec
from .rng import derive_seed
from .schemes import HV, NNV, TC, TD, TrainConfig, TrainResult
from .tensorio import read_tensor
from .autodiff import Tensor


def noise_tag(spec: NoiseSpec) -> str:
    if spec.kind == GAUSSIAN:
        return f"gaussian_sigma{spec.sigma:g}"
    return f"poisson_scale{spec.poisson_scale:g}"


def resolve_out_dir(cfg: ExperimentConfig, out_dir=None) -> Path:
    return Path(out_dir) if out_dir is not None else Path(cfg.output_dir)


def _dataset_dir(out: Path) -> Path:
    return out / "dataset"


def _checkpoint_dir(out: Path, scheme: str) -> Path:
    return out / "checkpoints" / scheme


def ensure_dataset(cfg: ExperimentConfig, out: Path, regenerate: bool = False):
    """Load the dataset if already generated for this spec, else generate it."""
    ddir = _dataset_dir(out)
    manifest = ddir / "manifest.json"
    if manifest.is_file() and not regenerate:
        spec, train, test = load_dataset(ddir)
        if spec == cfg.dataset:
            return train, test
    train, test = generate_dataset(cfg.dataset)
    save_dataset(cfg.dataset, train, test, ddir)
    return train, test


def cmd_generate(cfg: ExperimentConfig, out_dir=None) -> Path:
    out = resolve_out_dir(cfg, out_dir)
    ensure_dataset(cfg, out, regenerate=True)
    return _dataset_dir(out)


# ---------------------------------------------------------------------------
# Training


def _train_config(cfg: ExperimentConfig, purpose: str) -> TrainConfig:
    epochs = cfg.train.epochs_application if purpose == "application" else cfg.train.epochs_denoiser
    return TrainConfig(
        epochs=epochs,
        learning_rate=cfg.train.learning_rate,
        seed=derive_seed(cfg.seed, f"train/{purpose}"),
        checkpoint_cadence=cfg.train.checkpoint_cadence,
        validation_fraction=cfg.train.validation_fraction,
    )


def _write_loss_csv(result: TrainResult, path: Path) -> None:
    """Written before the checkpoint, whose manifest comes last of all."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, train_loss, val_loss in result.trace:
            writer.writerow([epoch, f"{train_loss:.6g}", "" if val_loss != val_loss else f"{val_loss:.6g}"])


def _scheme_override(cfg: ExperimentConfig, scheme: str) -> dict | None:
    return cfg.checkpoint_overrides.get(scheme)


def ensure_scheme_trained(cfg: ExperimentConfig, scheme: str, out: Path) -> dict:
    """Train the scheme's missing checkpoints; returns their paths.

    Returns {"application": Path, "denoiser": Path | None}. Checkpoint
    overrides short-circuit training entirely for that scheme.
    """
    override = _scheme_override(cfg, scheme)
    if override is not None:
        app = Path(override["application"])
        den = override.get("denoiser")
        return {"application": app, "denoiser": Path(den) if den else None}

    train_samples, _ = ensure_dataset(cfg, out)
    if scheme == TC:
        return {"application": _ensure_application(cfg, TC, None, train_samples, out), "denoiser": None}
    if scheme == TD:
        return {
            "application": _ensure_application(cfg, TD, cfg.train_noise, train_samples, out),
            "denoiser": None,
        }
    # hv / nnv: the application network is the clean-trained (tc) one
    app_path = _ensure_application(cfg, TC, None, train_samples, out)
    den_dir = _checkpoint_dir(out, scheme)
    if not (den_dir / "manifest.json").is_file():
        denoiser = build_network(cfg.denoiser)
        train_cfg = _train_config(cfg, "denoiser")
        if scheme == HV:
            result = schemes_mod.train_denoiser_hv(denoiser, train_samples, train_cfg, cfg.train_noise)
        else:
            app_model, _ = load_checkpoint(app_path)
            result = schemes_mod.train_denoiser_nnv(denoiser, app_model, train_samples, train_cfg, cfg.train_noise)
        _write_loss_csv(result, den_dir / "loss.csv")
        save_checkpoint(denoiser, den_dir, epoch=result.best_epoch)
    return {"application": app_path, "denoiser": den_dir}


def _ensure_application(
    cfg: ExperimentConfig, scheme: str, noise: NoiseSpec | None, train_samples: list[Sample], out: Path
) -> Path:
    ckpt = _checkpoint_dir(out, scheme)
    if (ckpt / "manifest.json").is_file():
        return ckpt
    model = build_network(cfg.application)
    result = schemes_mod.train_application(model, train_samples, _train_config(cfg, "application"), noise)
    _write_loss_csv(result, ckpt / "loss.csv")
    save_checkpoint(model, ckpt, epoch=result.best_epoch)
    return ckpt


def cmd_train(cfg: ExperimentConfig, scheme: str, out_dir=None) -> dict:
    if scheme not in cfg.schemes:
        raise ConfigError(f"scheme {scheme!r} is not in the config's scheme list {cfg.schemes}")
    out = resolve_out_dir(cfg, out_dir)
    return ensure_scheme_trained(cfg, scheme, out)


# ---------------------------------------------------------------------------
# Evaluation


def load_scheme_components(cfg: ExperimentConfig, scheme: str, out: Path) -> tuple[Model, Model | None]:
    """Load the trained models a scheme routes through; never trains."""
    override = _scheme_override(cfg, scheme)
    if override is not None:
        app_dir = Path(override["application"])
        den = override.get("denoiser")
        den_dir = Path(den) if den else None
    else:
        app_dir = _checkpoint_dir(out, TD if scheme == TD else TC)
        den_dir = _checkpoint_dir(out, scheme) if scheme in (HV, NNV) else None
    if not (app_dir / "manifest.json").is_file():
        raise CheckpointError(f"missing application checkpoint for scheme {scheme!r} at {app_dir}")
    application, _ = load_checkpoint(app_dir)
    denoiser = None
    if den_dir is not None:
        if not (den_dir / "manifest.json").is_file():
            raise CheckpointError(f"missing denoiser checkpoint for scheme {scheme!r} at {den_dir}")
        denoiser, _ = load_checkpoint(den_dir)
    return application, denoiser


def cmd_eval(cfg: ExperimentConfig, scheme: str, test_noise: NoiseSpec, out_dir=None):
    """Evaluate one scheme at one test noise; returns (report, csv path)."""
    out = resolve_out_dir(cfg, out_dir)
    _, test_samples = ensure_dataset(cfg, out)
    application, denoiser = load_scheme_components(cfg, scheme, out)
    report = schemes_mod.evaluate_scheme(application, denoiser, test_samples, test_noise)
    path = out / "metrics" / f"{scheme}_{noise_tag(test_noise)}.csv"
    metrics_mod.write_per_sample_csv(report, path)
    return report, path


@dataclass
class ComparisonResult:
    path: Path
    # (scheme, noise tag, report) per evaluated combination
    rows: list[tuple[str, str, metrics_mod.MetricsReport]]

    def report(self, scheme: str, tag: str) -> metrics_mod.MetricsReport:
        for s, t, r in self.rows:
            if s == scheme and t == tag:
                return r
        raise KeyError((scheme, tag))


def cmd_compare(cfg: ExperimentConfig, out_dir=None) -> ComparisonResult:
    """Train whatever is missing, evaluate every scheme at every test noise,
    and write the aggregate comparison CSV."""
    out = resolve_out_dir(cfg, out_dir)
    rows: list[tuple[str, str, metrics_mod.MetricsReport]] = []
    for scheme in cfg.schemes:
        ensure_scheme_trained(cfg, scheme, out)
    for scheme in cfg.schemes:
        for test_noise in cfg.test_noises:
            report, _ = cmd_eval(cfg, scheme, test_noise, out)
            rows.append((scheme, noise_tag(test_noise), report))
    path = out / "compare.csv"
    _write_compare_csv(rows, path)
    return ComparisonResult(path=path, rows=rows)


def _write_compare_csv(rows: list, path: Path) -> None:
    metric_names = sorted({name for _, _, r in rows for name in r.aggregates})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["scheme", "test_noise"]
        for name in metric_names:
            header += [f"{name}_mean", f"{name}_sd"]
        header.append("hausdorff_undefined")
        writer.writerow(header)
        for scheme, tag, report in rows:
            row = [scheme, tag]
            for name in metric_names:
                pair = report.aggregates.get(name)
                row += [f"{pair[0]:.6g}", f"{pair[1]:.6g}"] if pair else ["", ""]
            row.append(report.hausdorff_undefined)
            writer.writerow(row)


# ---------------------------------------------------------------------------
# DCT analysis


def cmd_dct(cfg: ExperimentConfig, image_path, checkpoint=None, out_dir=None) -> list[Path]:
    """Spectrum heatmap of an image; with a checkpoint, also the
    frequency-gradient heatmap of that model on the image."""
    out = resolve_out_dir(cfg, out_dir)
    image_path = Path(image_path)
    image = read_tensor(image_path)
    stem = image_path.name.split(".")[0]
    produced: list[Path] = []
    spectrum = dct_mod.spectrum_sd(image)
    produced += dct_mod.export_heatmap(spectrum, out / "dct" / f"{stem}.spectrum")
    if checkpoint is not None:
        model, _ = load_checkpoint(Path(checkpoint))
        grid = dct_mod.frequency_gradient(dct_mod.sum_head(model), image)
        produced += dct_mod.export_heatmap(grid, out / "dct" / f"{stem}.freqgrad")
    return produced


def denoised_test_images(cfg: ExperimentConfig, scheme: str, test_noise: NoiseSpec, out: Path) -> list[Tensor]:
    """Dirty test images routed through the scheme's denoiser (hv/nnv)."""
    _, test_samples = ensure_dataset(cfg, out)
    _, denoiser = load_scheme_components(cfg, scheme, out)
    if denoiser is None:
        raise ConfigError(f"scheme {scheme!r} has no denoiser")
    dirty = schemes_mod.corrupt_samples(test_samples, test_noise, "test")
    return schemes_mod.denoise_images(denoiser, dirty)
