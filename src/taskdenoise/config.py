"""Experiment configuration: one JSON file describes one full comparison.

Every sub-seed (dataset, network init, noise, training) is derived from the
global seed unless given explicitly, so a config is a complete recipe: two
runs of the same config produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .data import SEGMENTATION, DatasetSpec
from .errors import ConfigError, InvalidSpecError
from .networks import APPLICATION_KINDS, CCNN, DENOISER_KINDS, NONEWNET2D, NetworkSpec
from .noise import NoiseSpec, noise_tag
from .rng import derive_seed
from .schemes import HV, NNV, SCHEME_KINDS, TC, TD, TrainSettings


@dataclass
class ExperimentConfig:
    seed: int
    output_dir: str
    dataset: DatasetSpec
    application: NetworkSpec
    denoiser: NetworkSpec | None
    schemes: list[str]
    train_noise: NoiseSpec
    test_noises: list[NoiseSpec]
    train: TrainSettings
    # optional per-scheme checkpoint paths used by eval/compare instead of
    # the conventional layout: {scheme: {"application": path, "denoiser": path|None}}
    checkpoint_overrides: dict = field(default_factory=dict)

    def validate(self) -> "ExperimentConfig":
        self.dataset.validate()
        self.application.validate()
        if self.application.kind not in APPLICATION_KINDS:
            raise ConfigError(f"application kind must be one of {APPLICATION_KINDS}")
        expected_app = NONEWNET2D if self.dataset.task == SEGMENTATION else CCNN
        if self.application.kind != expected_app:
            raise ConfigError(
                f"dataset task {self.dataset.task!r} needs application kind {expected_app!r}, "
                f"got {self.application.kind!r}"
            )
        if self.denoiser is not None:
            self.denoiser.validate()
            if self.denoiser.kind not in DENOISER_KINDS:
                raise ConfigError(f"denoiser kind must be one of {DENOISER_KINDS}")
        if not self.schemes:
            raise ConfigError("schemes list is empty")
        for s in self.schemes:
            if s not in SCHEME_KINDS:
                raise ConfigError(f"unknown scheme {s!r}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("duplicate scheme in schemes list")
        if any(s in (HV, NNV) for s in self.schemes) and self.denoiser is None:
            raise ConfigError("schemes hv/nnv require a denoiser spec")
        self.train_noise.validate()
        if not self.test_noises:
            raise ConfigError("test_noises list is empty")
        tags: dict[str, int] = {}
        for i, n in enumerate(self.test_noises):
            n.validate()
            tag = noise_tag(n)
            first = tags.setdefault(tag, i)
            if first != i:
                raise ConfigError(
                    f"test_noises[{first}] and test_noises[{i}] share the label {tag!r}; "
                    "their metrics files and compare.csv rows would collide"
                )
        self.train.validate()
        for scheme, paths in self.checkpoint_overrides.items():
            if scheme not in SCHEME_KINDS:
                raise ConfigError(f"checkpoint override for unknown scheme {scheme!r}")
            unknown = set(paths) - {"application", "denoiser"}
            if unknown:
                raise ConfigError(f"checkpoint override keys must be application/denoiser, got {sorted(unknown)}")
        return self


_DATASET_KEYS = {"task", "height", "width", "num_classes", "train_count", "test_count", "seed"}
_NETWORK_KEYS = {"kind", "base_channels", "depth", "seed", "input_residual"}
_NOISE_KEYS = {"kind", "mu", "sigma", "poisson_scale", "seed"}
_TRAIN_KEYS = {
    "epochs_application",
    "epochs_denoiser",
    "learning_rate",
    "checkpoint_cadence",
    "validation_fraction",
}
_TOP_KEYS = {
    "seed",
    "output_dir",
    "dataset",
    "application",
    "denoiser",
    "schemes",
    "train_noise",
    "test_noises",
    "train",
    "checkpoint_overrides",
}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(obj: dict, key: str, kind: type, default, where: str):
    value = obj.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key} must be {kind.__name__}, got {value!r}") from exc


def _seed_or(obj: dict, fallback: int, where: str):
    return fallback if obj.get("seed") is None else _number(obj, "seed", int, None, where)


def _parse_noise(obj: dict, where: str, default_seed: int) -> NoiseSpec:
    _check_keys(obj, _NOISE_KEYS, where)
    return NoiseSpec(
        kind=obj.get("kind", "gaussian"),
        mu=_number(obj, "mu", float, 0.0, where),
        sigma=_number(obj, "sigma", float, 0.0, where),
        poisson_scale=_number(obj, "poisson_scale", float, 0.1, where),
        seed=_seed_or(obj, default_seed, where),
    )


def _parse_network(obj: dict, where: str, dataset: DatasetSpec, default_seed: int) -> NetworkSpec:
    _check_keys(obj, _NETWORK_KEYS, where)
    if "kind" not in obj:
        raise ConfigError(f"{where} needs a 'kind'")
    return NetworkSpec(
        kind=obj["kind"],
        base_channels=_number(obj, "base_channels", int, 8, where),
        num_classes=dataset.num_classes,
        height=dataset.height,
        width=dataset.width,
        seed=_seed_or(obj, default_seed, where),
        depth=_number(obj, "depth", int, 3, where),
        input_residual=bool(obj.get("input_residual", False)),
    )


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(raw, _TOP_KEYS, "config")
    for key in ("seed", "output_dir", "dataset", "application"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    seed = _number(raw, "seed", int, None, "config")

    dobj = raw["dataset"]
    _check_keys(dobj, _DATASET_KEYS, "dataset")
    task = dobj.get("task", SEGMENTATION)
    dataset = DatasetSpec(
        task=task,
        height=_number(dobj, "height", int, 64, "dataset"),
        width=_number(dobj, "width", int, 64, "dataset"),
        num_classes=_number(dobj, "num_classes", int, 4 if task == SEGMENTATION else 3, "dataset"),
        train_count=_number(dobj, "train_count", int, 200, "dataset"),
        test_count=_number(dobj, "test_count", int, 50, "dataset"),
        seed=_seed_or(dobj, derive_seed(seed, "dataset"), "dataset"),
    )

    application = _parse_network(raw["application"], "application", dataset, derive_seed(seed, "init/application"))
    denoiser = None
    if raw.get("denoiser") is not None:
        denoiser = _parse_network(raw["denoiser"], "denoiser", dataset, derive_seed(seed, "init/denoiser"))

    schemes = list(raw.get("schemes", [TC, TD, HV, NNV] if denoiser is not None else [TC, TD]))

    train_noise = _parse_noise(raw.get("train_noise", {}), "train_noise", derive_seed(seed, "noise/train"))
    test_raw = raw.get("test_noises")
    if test_raw is None:
        test_raw = [dict(raw.get("train_noise", {}))]
    test_noises = [
        _parse_noise(obj, f"test_noises[{i}]", derive_seed(seed, f"noise/test/{i}")) for i, obj in enumerate(test_raw)
    ]

    tobj = raw.get("train", {})
    _check_keys(tobj, _TRAIN_KEYS, "train")
    train = TrainSettings(
        epochs_application=_number(tobj, "epochs_application", int, 30, "train"),
        epochs_denoiser=_number(tobj, "epochs_denoiser", int, 30, "train"),
        learning_rate=_number(tobj, "learning_rate", float, 1e-3, "train"),
        checkpoint_cadence=_number(tobj, "checkpoint_cadence", int, 1, "train"),
        validation_fraction=_number(tobj, "validation_fraction", float, 0.1, "train"),
    )

    overrides = raw.get("checkpoint_overrides") or {}
    cfg = ExperimentConfig(
        seed=seed,
        output_dir=str(raw["output_dir"]),
        dataset=dataset,
        application=application,
        denoiser=denoiser,
        schemes=schemes,
        train_noise=train_noise,
        test_noises=test_noises,
        train=train,
        checkpoint_overrides={k: dict(v) for k, v in overrides.items()},
    )
    try:
        return cfg.validate()
    except InvalidSpecError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical form: all fields explicit, sorted keys. A fixed point of
    parse -> serialize."""

    def net(spec: NetworkSpec | None):
        if spec is None:
            return None
        return {
            "kind": spec.kind,
            "base_channels": spec.base_channels,
            "depth": spec.depth,
            "seed": spec.seed,
            "input_residual": spec.input_residual,
        }

    payload = {
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
        "dataset": asdict(cfg.dataset),
        "application": net(cfg.application),
        "denoiser": net(cfg.denoiser),
        "schemes": cfg.schemes,
        "train_noise": asdict(cfg.train_noise),
        "test_noises": [asdict(n) for n in cfg.test_noises],
        "train": asdict(cfg.train),
        "checkpoint_overrides": cfg.checkpoint_overrides,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(serialize_config(cfg))
