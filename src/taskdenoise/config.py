"""Experiment configuration: one JSON file describes one full comparison.

Every sub-seed (dataset, network init, noise, training) is derived from the
global seed unless given explicitly, so a config is a complete recipe: two
runs of the same config produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from .data import CLASSIFICATION, SEGMENTATION, DatasetSpec
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
            where = f"checkpoint_overrides.{scheme}"
            if scheme not in SCHEME_KINDS:
                raise ConfigError(f"checkpoint override for unknown scheme {scheme!r}")
            unknown = set(_expect(paths, dict, where)) - {"application", "denoiser"}
            if unknown:
                raise ConfigError(f"checkpoint override keys must be application/denoiser, got {sorted(unknown)}")
            if not isinstance(paths.get("application"), str) or not isinstance(paths.get("denoiser"), str | None):
                raise ConfigError(f"{where} needs an 'application' path and a 'denoiser' path or null")
        return self


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}
# a network's input extents and class count are the dataset's
_FROM_DATASET = ("num_classes", "height", "width")
# field annotations are strings under ``from __future__ import annotations``
_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _expect(value, kind: type, where: str):
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "an object"
        raise ConfigError(f"{where} must be {noun}, got {type(value).__name__}")
    return value


def _check_keys(obj, allowed: set, where: str) -> None:
    unknown = set(_expect(obj, dict, where)) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _optional(raw: dict, key: str, kind: type, default):
    value = raw.get(key)
    return default if value is None else _expect(value, kind, key)


def _convertible(value, kind: type) -> bool:
    """Whether ``kind(value)`` means what the config says. Nothing converts
    to bool or str (bool("no") is True), nothing from bool (True is 1), and
    a fraction does not convert to int (int(3.7) is 3)."""
    if kind in (bool, str):
        return isinstance(value, kind)
    if isinstance(value, bool):
        return False
    return not (kind is int and isinstance(value, float) and not value.is_integer())


def _value(obj: dict, key: str, kind: type, where: str):
    """``obj[key]`` as ``kind``; a float must be finite, whether it comes
    as a JSON NaN/Infinity literal or as a string such as "nan"."""
    value = obj[key]
    if _convertible(value, kind):
        try:
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is not float or math.isfinite(converted):
                return converted
    raise ConfigError(f"{where}.{key} must be {kind.__name__}, got {value!r}")


def _section(cls, obj, where: str, defaults: dict, fixed: dict | None = None):
    """``cls`` built from the JSON object ``obj``.

    The keys are the fields of ``cls`` except the ``fixed`` ones. A given
    value is checked against the field's type. A missing value, or a null
    seed, takes the caller's default, else the field's own.
    """
    fixed = fixed or {}
    names = [f for f in fields(cls) if f.name not in fixed]
    _check_keys(obj, {f.name for f in names}, where)
    values = dict(fixed)
    for f in names:
        if f.name in obj and not (f.name == "seed" and obj["seed"] is None):
            values[f.name] = _value(obj, f.name, _TYPES[f.type], where)
        elif f.name in defaults:
            values[f.name] = defaults[f.name]
        elif f.default is MISSING:
            raise ConfigError(f"{where} needs a {f.name!r}")
    return cls(**values)


def parse_config(text: str, seed_override: int | None = None) -> ExperimentConfig:
    """The config in ``text``; ``seed_override``, if given, replaces its seed."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(raw, _TOP_KEYS, "config")
    if seed_override is not None:
        raw["seed"] = seed_override
    for key in ("seed", "output_dir", "dataset", "application"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    seed = _value(raw, "seed", int, "config")

    dataset_defaults = {"seed": derive_seed(seed, "dataset")}
    if isinstance(raw["dataset"], dict) and raw["dataset"].get("task") == CLASSIFICATION:
        dataset_defaults["num_classes"] = 3
    dataset = _section(DatasetSpec, raw["dataset"], "dataset", dataset_defaults)

    from_dataset = {name: getattr(dataset, name) for name in _FROM_DATASET}

    def network(key: str) -> NetworkSpec:
        return _section(NetworkSpec, raw[key], key, {"seed": derive_seed(seed, f"init/{key}")}, from_dataset)

    application = network("application")
    denoiser = network("denoiser") if raw.get("denoiser") is not None else None

    schemes = _optional(raw, "schemes", list, [TC, TD, HV, NNV] if denoiser is not None else [TC, TD])

    train_raw = raw.get("train_noise", {})
    train_noise = _section(NoiseSpec, train_raw, "train_noise", {"seed": derive_seed(seed, "noise/train")})
    test_raw = _optional(raw, "test_noises", list, [train_raw])
    test_noises = [
        _section(NoiseSpec, obj, f"test_noises[{i}]", {"seed": derive_seed(seed, f"noise/test/{i}")})
        for i, obj in enumerate(test_raw)
    ]

    train = _section(TrainSettings, raw.get("train", {}), "train", {})

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
        checkpoint_overrides=_optional(raw, "checkpoint_overrides", dict, {}),
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
        return {k: v for k, v in asdict(spec).items() if k not in _FROM_DATASET}

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

