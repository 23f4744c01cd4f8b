"""Experiment configuration: one JSON file describes one full comparison.

Every sub-seed (dataset, network init, noise, training) is derived from the
global seed unless given explicitly, so a config is a complete recipe: two
runs of the same config produce byte-identical artifacts. The config and
each of its sections are frozen and check themselves when built, so a
variant made with ``dataclasses.replace`` is checked too. Whether a network
fits the experiment is decided by :func:`check_fit` alone: for the config's
networks when it is built, and for each checkpoint when it is loaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

from .data import CLASSIFICATION, SEGMENTATION, DatasetSpec
from .errors import ConfigError
from .networks import CCNN, DENOISER_KINDS, NONEWNET2D, NetworkSpec
from .noise import NoiseSpec, noise_tag
from .rng import derive_seed
from .schemes import DENOISED_SCHEMES, SCHEME_KINDS, TC, TD, TrainSettings


def check_fit(spec: NetworkSpec, role: str, dataset: DatasetSpec, where: str) -> None:
    """The one rule for whether ``spec`` fits the experiment as its
    ``role`` network ("application" or "denoiser"), applied to the
    config's networks and to every loaded checkpoint alike; a misfit is a
    ConfigError that names the network ``where``. A denoiser must be a
    denoiser kind. An application network must have the task's kind and
    the dataset's class count and image extents."""
    if role == "denoiser":
        if spec.kind not in DENOISER_KINDS:
            raise ConfigError(f"{where} is a {spec.kind}, not a denoiser")
        return
    kind = NONEWNET2D if dataset.task == SEGMENTATION else CCNN
    have = (spec.kind, spec.num_classes, spec.height, spec.width)
    need = (kind, dataset.num_classes, dataset.height, dataset.width)
    if have != need:
        net = "a {} with {} classes for {}x{} images"
        raise ConfigError(f"{where} is {net.format(*have)}; the {dataset.task} dataset needs {net.format(*need)}")


@dataclass(frozen=True)
class CheckpointOverride:
    """The checkpoint directories ``scheme`` is evaluated through instead of
    the conventional layout: a denoiser path for hv and nnv, None for tc and
    td. A scheme under an override is never trained."""

    scheme: str
    application: str
    denoiser: str | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_KINDS:
            raise ConfigError(f"checkpoint override for unknown scheme {self.scheme!r}")
        denoised = self.scheme in DENOISED_SCHEMES
        if not isinstance(self.application, str) or not isinstance(self.denoiser, str if denoised else type(None)):
            need = "a 'denoiser' path" if denoised else "a null 'denoiser'"
            raise ConfigError(f"checkpoint_overrides.{self.scheme} needs an 'application' path and {need}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    output_dir: str
    dataset: DatasetSpec
    application: NetworkSpec
    denoiser: NetworkSpec | None
    schemes: tuple[str, ...]
    train_noise: NoiseSpec
    test_noises: tuple[NoiseSpec, ...]
    train: TrainSettings
    checkpoint_overrides: tuple[CheckpointOverride, ...] = ()

    def __post_init__(self) -> None:
        # stored as tuples, so the lists cannot change after these checks
        for name in ("schemes", "test_noises", "checkpoint_overrides"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check_fit(self.application, "application", self.dataset, "the application network")
        if self.denoiser is not None:
            check_fit(self.denoiser, "denoiser", self.dataset, "the denoiser")
        if not self.schemes:
            raise ConfigError("schemes list is empty")
        for s in self.schemes:
            if s not in SCHEME_KINDS:
                raise ConfigError(f"unknown scheme {s!r}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("duplicate scheme in schemes list")
        if any(s in DENOISED_SCHEMES for s in self.schemes) and self.denoiser is None:
            raise ConfigError("schemes hv/nnv require a denoiser spec")
        if not self.test_noises:
            raise ConfigError("test_noises list is empty")
        tags: dict[str, int] = {}
        for i, n in enumerate(self.test_noises):
            tag = noise_tag(n)
            first = tags.setdefault(tag, i)
            if first != i:
                raise ConfigError(
                    f"test_noises[{first}] and test_noises[{i}] share the label {tag!r}; "
                    "their metrics files and compare.csv rows would collide"
                )
        for o in self.checkpoint_overrides:
            if not isinstance(o, CheckpointOverride):
                raise ConfigError(f"checkpoint_overrides holds a {type(o).__name__}, not a CheckpointOverride")
        overridden = [o.scheme for o in self.checkpoint_overrides]
        if len(set(overridden)) != len(overridden):
            raise ConfigError("duplicate scheme in checkpoint_overrides")


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

    schemes = _optional(raw, "schemes", list, list(SCHEME_KINDS) if denoiser is not None else [TC, TD])

    train_raw = raw.get("train_noise", {})
    train_noise = _section(NoiseSpec, train_raw, "train_noise", {"seed": derive_seed(seed, "noise/train")})
    test_raw = _optional(raw, "test_noises", list, [train_raw])
    test_noises = [
        _section(NoiseSpec, obj, f"test_noises[{i}]", {"seed": derive_seed(seed, f"noise/test/{i}")})
        for i, obj in enumerate(test_raw)
    ]

    train = _section(TrainSettings, raw.get("train", {}), "train", {})

    overrides = []
    for scheme, paths in _optional(raw, "checkpoint_overrides", dict, {}).items():
        _check_keys(paths, {"application", "denoiser"}, f"checkpoint_overrides.{scheme}")
        overrides.append(CheckpointOverride(scheme, paths.get("application"), paths.get("denoiser")))

    return ExperimentConfig(
        seed=seed,
        output_dir=_value(raw, "output_dir", str, "config"),
        dataset=dataset,
        application=application,
        denoiser=denoiser,
        schemes=schemes,
        train_noise=train_noise,
        test_noises=test_noises,
        train=train,
        checkpoint_overrides=overrides,
    )
