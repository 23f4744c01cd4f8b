"""Config parsing, validation, and the pinned defaults and derived seeds."""

import json
from dataclasses import FrozenInstanceError, asdict, replace

import pytest

from taskdenoise.config import parse_config
from taskdenoise.errors import ConfigError, InvalidSpecError
from taskdenoise.noise import noise_tag

MINIMAL = """
{
  "seed": 42,
  "output_dir": "runs/demo",
  "dataset": {"task": "segmentation", "height": 64, "width": 64, "num_classes": 4,
              "train_count": 20, "test_count": 5},
  "application": {"kind": "nonewnet2d", "base_channels": 8},
  "denoiser": {"kind": "redcnn", "base_channels": 8},
  "train_noise": {"kind": "gaussian", "sigma": 70.0},
  "test_noises": [{"kind": "gaussian", "sigma": 70.0}, {"kind": "gaussian", "sigma": 50.0}]
}
"""


class TestParsing:
    def test_minimal_config_parses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 42
        assert cfg.dataset.num_classes == 4
        assert cfg.application.num_classes == 4  # inherited from the dataset
        assert cfg.application.height == 64
        assert cfg.schemes == ("tc", "td", "hv", "nnv")
        assert cfg.train.epochs_application == 30

    def test_derived_seeds_are_deterministic_and_distinct(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL)
        assert a.dataset.seed == b.dataset.seed
        seeds = {a.dataset.seed, a.application.seed, a.denoiser.seed, a.train_noise.seed}
        assert len(seeds) == 4

    def test_explicit_seed_respected(self):
        raw = json.loads(MINIMAL)
        raw["dataset"]["seed"] = 777
        cfg = parse_config(json.dumps(raw))
        assert cfg.dataset.seed == 777

    def test_seed_change_changes_derived_seeds(self):
        raw = json.loads(MINIMAL)
        raw["seed"] = 43
        assert parse_config(json.dumps(raw)).dataset.seed != parse_config(MINIMAL).dataset.seed

    def test_not_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("not json at all {")

    def test_unknown_key_rejected(self):
        raw = json.loads(MINIMAL)
        raw["dataset"]["sizee"] = 3
        with pytest.raises(ConfigError, match="sizee"):
            parse_config(json.dumps(raw))

    def test_missing_required_key_rejected(self):
        raw = json.loads(MINIMAL)
        del raw["output_dir"]
        with pytest.raises(ConfigError, match="output_dir"):
            parse_config(json.dumps(raw))

    def test_task_application_mismatch_rejected(self):
        raw = json.loads(MINIMAL)
        raw["application"]["kind"] = "ccnn"
        with pytest.raises(ConfigError):
            parse_config(json.dumps(raw))

    def test_hv_without_denoiser_rejected(self):
        raw = json.loads(MINIMAL)
        raw["denoiser"] = None
        raw["schemes"] = ["tc", "hv"]
        with pytest.raises(ConfigError):
            parse_config(json.dumps(raw))

    def test_duplicate_schemes_rejected(self):
        raw = json.loads(MINIMAL)
        raw["schemes"] = ["tc", "tc"]
        with pytest.raises(ConfigError):
            parse_config(json.dumps(raw))

    def test_bad_override_key_rejected(self):
        raw = json.loads(MINIMAL)
        raw["checkpoint_overrides"] = {"tc": {"app": "x"}}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(raw))

    def test_colliding_test_noise_tags_rejected(self):
        # the tag leaves out mu, so both noises would write metrics/<scheme>_gaussian_sigma40.csv
        raw = json.loads(MINIMAL)
        raw["test_noises"] = [{"kind": "gaussian", "sigma": 40.0}, {"kind": "gaussian", "sigma": 40.0, "mu": 60.0}]
        with pytest.raises(ConfigError, match=r"test_noises\[0\] and test_noises\[1\] share .*gaussian_sigma40"):
            parse_config(json.dumps(raw))

    def test_distinct_test_noise_tags_accepted(self):
        raw = json.loads(MINIMAL)
        raw["test_noises"] = [{"kind": "gaussian", "sigma": 40.0, "mu": 60.0}, {"kind": "poisson", "seed": 3}]
        cfg = parse_config(json.dumps(raw))
        assert [noise_tag(n) for n in cfg.test_noises] == ["gaussian_sigma40", "poisson_scale0.1"]

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("dataset", "train_count", 3.7),
            ("dataset", "height", True),
            ("train", "epochs_application", True),
            ("train", "checkpoint_cadence", 1.5),
            ("train", "learning_rate", False),
            (None, "seed", 4.5),
            # non-finite floats, as JSON NaN/Infinity literals or as strings
            ("train", "learning_rate", float("nan")),
            ("train", "learning_rate", float("inf")),
            ("train_noise", "poisson_scale", "nan"),
            ("train_noise", "sigma", "inf"),
        ],
    )
    def test_number_that_would_be_truncated_or_a_bool_rejected(self, section, key, value):
        raw = json.loads(MINIMAL)
        raw.setdefault("train", {})
        (raw if section is None else raw[section])[key] = value
        where = "config" if section is None else section
        kind = "float" if key in ("learning_rate", "poisson_scale", "sigma") else "int"
        with pytest.raises(ConfigError, match=rf"^{where}\.{key} must be {kind}, got {value!r}$"):
            parse_config(json.dumps(raw))

    def test_integral_float_and_numeric_string_accepted_as_int(self):
        raw = json.loads(MINIMAL)
        raw["dataset"]["train_count"] = 20.0
        raw["dataset"]["test_count"] = "5"
        raw["train"] = {"learning_rate": "0.01"}
        cfg = parse_config(json.dumps(raw))
        assert (cfg.dataset.train_count, cfg.dataset.test_count, cfg.train.learning_rate) == (20, 5, 0.01)
        assert type(cfg.dataset.train_count) is int and type(cfg.dataset.test_count) is int

    def test_classification_defaults(self):
        raw = json.loads(MINIMAL)
        raw["dataset"] = {"task": "classification", "train_count": 10, "test_count": 5}
        raw["application"] = {"kind": "ccnn", "base_channels": 8}
        cfg = parse_config(json.dumps(raw))
        assert cfg.dataset.num_classes == 3
        assert cfg.application.num_classes == 3


class TestCheckedWhenBuilt:
    """The config and each section check themselves when built, so a
    variant made with ``dataclasses.replace`` is checked too."""

    @pytest.mark.parametrize(
        "section,change,message",
        [
            ("dataset", {"num_classes": 1}, "num_classes must be >= 2"),
            ("application", {"base_channels": 0}, "base_channels must be >= 1"),
            ("application", {"height": 20}, "nonewnet2d input extents 20x64 must be divisible by 8"),
            ("denoiser", {"kind": "unet"}, "unknown network kind 'unet'"),
            ("train_noise", {"sigma": -1.0}, "gaussian sigma must be >= 0"),
            ("train", {"learning_rate": 0.0}, "learning_rate must be finite and > 0"),
        ],
        ids=["dataset", "application", "application_extents", "denoiser", "train_noise", "train"],
    )
    def test_replacing_a_section_value_is_checked(self, section, change, message):
        with pytest.raises(InvalidSpecError, match=message):
            replace(getattr(parse_config(MINIMAL), section), **change)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"schemes": []}, "schemes list is empty"),
            ({"schemes": ["tc", "tc"]}, "duplicate scheme"),
            ({"denoiser": None}, "require a denoiser"),
            ({"test_noises": []}, "test_noises list is empty"),
        ],
        ids=["no_schemes", "duplicate_scheme", "no_denoiser", "no_test_noise"],
    )
    def test_replacing_a_config_value_is_checked(self, change, message):
        with pytest.raises(ConfigError, match=message):
            replace(parse_config(MINIMAL), **change)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"num_classes": 3}, "a nonewnet2d with 4 classes for 64x64 images; the segmentation dataset needs "
             "a nonewnet2d with 3 classes for 64x64 images"),
            ({"height": 32, "width": 32}, "a nonewnet2d with 4 classes for 64x64 images; the segmentation "
             "dataset needs a nonewnet2d with 4 classes for 32x32 images"),
        ],
        ids=["other_class_count", "other_extents"],
    )
    def test_replacing_the_dataset_under_the_networks_is_checked(self, change, message):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError) as err:
            replace(cfg, dataset=replace(cfg.dataset, **change))
        assert str(err.value) == f"the application network is {message}"

    def test_replacing_the_denoiser_with_an_application_network_is_checked(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="^the denoiser is a nonewnet2d, not a denoiser$"):
            replace(cfg, denoiser=cfg.application)

    def test_lists_cannot_change_after_the_checks(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(AttributeError):
            cfg.schemes.append("tc")
        with pytest.raises(AttributeError):
            cfg.test_noises.append(cfg.train_noise)
        variant = replace(cfg, schemes=["tc", "td"], test_noises=[cfg.train_noise])
        assert variant.schemes == ("tc", "td") and variant.test_noises == (cfg.train_noise,)

    def test_checkpoint_overrides_cannot_change_after_the_checks(self):
        raw = json.loads(MINIMAL)
        raw["checkpoint_overrides"] = {"tc": {"application": "a", "denoiser": None}}
        cfg = parse_config(json.dumps(raw))
        with pytest.raises(TypeError):
            cfg.checkpoint_overrides["bogus"] = {"application": "b", "denoiser": None}
        [override] = cfg.checkpoint_overrides
        assert (override.scheme, override.application, override.denoiser) == ("tc", "a", None)
        with pytest.raises(FrozenInstanceError):
            override.application = "b"
        with pytest.raises(ConfigError, match="needs an 'application' path"):
            replace(override, application=5)
        with pytest.raises(ConfigError, match="unknown scheme 'bogus'"):
            replace(override, scheme="bogus")
        with pytest.raises(ConfigError, match="duplicate scheme in checkpoint_overrides"):
            replace(cfg, checkpoint_overrides=[override, override])
        with pytest.raises(ConfigError, match="holds a str, not a CheckpointOverride"):
            replace(cfg, checkpoint_overrides={"tc": {"application": "a"}})
        variant = replace(cfg, checkpoint_overrides=[replace(override, scheme="hv", denoiser="d")])
        assert [(o.scheme, o.denoiser) for o in variant.checkpoint_overrides] == [("hv", "d")]

    @pytest.mark.parametrize(
        "section,key",
        [
            (None, "output_dir"),
            ("dataset", "height"),
            ("application", "depth"),
            ("denoiser", "base_channels"),
            ("train_noise", "sigma"),
            ("train", "epochs_application"),
        ],
    )
    def test_fields_cannot_be_assigned(self, section, key):
        cfg = parse_config(MINIMAL)
        with pytest.raises(FrozenInstanceError):
            setattr(cfg if section is None else getattr(cfg, section), key, 1)


_NOISE = {"kind": "gaussian", "mu": 0.0, "poisson_scale": 0.1}
_TRAIN = {
    "checkpoint_cadence": 1,
    "epochs_application": 30,
    "epochs_denoiser": 30,
    "learning_rate": 0.001,
    "validation_fraction": 0.1,
}
_NET = {"base_channels": 8, "depth": 3, "input_residual": False}

# Canonical forms, compared as text: a default written as 0 instead of 0.0,
# or a field added, renamed or dropped, changes the text.
PINNED = [
    (
        MINIMAL,
        {
            "application": {**_NET, "kind": "nonewnet2d", "seed": 18164861813927922619},
            "checkpoint_overrides": [],
            "dataset": {"height": 64, "num_classes": 4, "seed": 10592022248623063394, "task": "segmentation",
                        "test_count": 5, "train_count": 20, "width": 64},
            "denoiser": {**_NET, "kind": "redcnn", "seed": 10064887618164953490},
            "output_dir": "runs/demo",
            "schemes": ["tc", "td", "hv", "nnv"],
            "seed": 42,
            "test_noises": [
                {**_NOISE, "seed": 18107448835936757259, "sigma": 70.0},
                {**_NOISE, "seed": 7416639357460744287, "sigma": 50.0},
            ],
            "train": _TRAIN,
            "train_noise": {**_NOISE, "seed": 14181911049311031405, "sigma": 70.0},
        },
    ),
    (
        '{"seed": 3, "output_dir": "runs/cls", "dataset": {"task": "classification"}, "application": {"kind": "ccnn"}}',
        {
            "application": {**_NET, "kind": "ccnn", "seed": 3600905376767202805},
            "checkpoint_overrides": [],
            "dataset": {"height": 64, "num_classes": 3, "seed": 9897383344551738464, "task": "classification",
                        "test_count": 50, "train_count": 200, "width": 64},
            "denoiser": None,
            "output_dir": "runs/cls",
            "schemes": ["tc", "td"],
            "seed": 3,
            "test_noises": [{**_NOISE, "seed": 11518945773783427154, "sigma": 0.0}],
            "train": _TRAIN,
            "train_noise": {**_NOISE, "seed": 6813366963136609029, "sigma": 0.0},
        },
    ),
]


def _serialized(cfg) -> str:
    """Every field of the parsed config as sorted JSON; a network spec
    leaves out what it inherits from the dataset."""
    payload = asdict(cfg)
    for key in ("application", "denoiser"):
        if payload[key] is not None:
            payload[key] = {k: v for k, v in payload[key].items() if k not in ("num_classes", "height", "width")}
    return json.dumps(payload, indent=2, sort_keys=True)


class TestRoundTrip:
    @pytest.mark.parametrize("text,expected", PINNED, ids=["minimal", "classification_defaults"])
    def test_serialized_text_is_pinned(self, text, expected):
        assert _serialized(parse_config(text)) == json.dumps(expected, indent=2, sort_keys=True)
