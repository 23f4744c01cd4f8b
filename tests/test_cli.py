"""CLI surface: subcommands, exit codes, single-line errors, determinism."""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from taskdenoise import experiment
from taskdenoise.cli import main
from taskdenoise.config import parse_config
from taskdenoise.networks import build_network, save_checkpoint
from taskdenoise.tensorio import read_tensor, write_tensor


def _write_config(tmp_path, name="cfg.json", **overrides):
    raw = {
        "seed": 5,
        "output_dir": str(tmp_path / "run"),
        "dataset": {
            "task": "segmentation",
            "height": 16,
            "width": 16,
            "num_classes": 3,
            "train_count": 5,
            "test_count": 2,
        },
        "application": {"kind": "nonewnet2d", "base_channels": 2, "depth": 2},
        "denoiser": {"kind": "redcnn", "base_channels": 2},
        "train_noise": {"kind": "gaussian", "sigma": 40.0},
        "test_noises": [{"kind": "gaussian", "sigma": 40.0}],
        "train": {"epochs_application": 1, "epochs_denoiser": 1, "learning_rate": 1e-3},
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestExitCodes:
    def test_generate_succeeds(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert "dataset" in capsys.readouterr().out

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["generate", "--config", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config-error:")
        assert err.count("\n") == 1

    def test_malformed_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("config-error:")

    @pytest.mark.parametrize("text,kind", [("[1, 2]", "list"), ('"seed"', "str")])
    def test_seed_flag_on_non_object_config_is_config_error(self, tmp_path, capsys, text, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["generate", "--config", str(cfg), "--seed", "3"]) == 2
        assert capsys.readouterr().err == f"config-error: config must be an object, got {kind}\n"

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("dataset", "train_count", "ten"),
            (None, "seed", "x"),
            (None, "output_dir", None),
            (None, "output_dir", 5),
            ("train", "epochs_application", None),
            ("train_noise", "poisson_scale", "nan"),
            ("train", "learning_rate", float("inf")),
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, section, key, value):
        cfg = _write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        (raw if section is None else raw[section])[key] = value
        cfg.write_text(json.dumps(raw))
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error:") and key in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("schemes", 5, "schemes must be a list, got int"),
            ("schemes", "tc", "schemes must be a list, got str"),
            ("test_noises", 5, "test_noises must be a list, got int"),
            ("test_noises", {"kind": "gaussian"}, "test_noises must be a list, got dict"),
            ("checkpoint_overrides", 5, "checkpoint_overrides must be an object, got int"),
            ("checkpoint_overrides", {"tc": 5}, "checkpoint_overrides.tc must be an object, got int"),
            ("checkpoint_overrides", {"tc": {"application": 5}}, "checkpoint_overrides.tc needs an 'application' path"),
            ("checkpoint_overrides", {"tc": {"denoiser": "d"}}, "checkpoint_overrides.tc needs an 'application' path"),
            ("denoiser", {"kind": "redcnn", "input_residual": "no"}, "denoiser.input_residual must be bool, got 'no'"),
            ("train", {"epochs_application": True}, "train.epochs_application must be int, got True"),
            ("train", {"epochs_application": 1.5}, "train.epochs_application must be int, got 1.5"),
            ("dataset", {"task": "segmentation", "train_count": 3.7}, "dataset.train_count must be int, got 3.7"),
            ("test_noises", [{"sigma": float("inf")}], "test_noises[0].sigma must be float, got inf"),
            ("test_noises", [{"sigma": "nan"}], "test_noises[0].sigma must be float, got 'nan'"),
        ],
    )
    def test_malformed_shape_is_config_error(self, tmp_path, capsys, key, value, message):
        cfg = _write_config(tmp_path, **{key: value})
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config-error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_colliding_test_noise_tags_are_a_config_error(self, tmp_path, capsys):
        noises = [{"kind": "gaussian", "sigma": 40.0}, {"kind": "gaussian", "sigma": 40.0, "seed": 3}]
        cfg = _write_config(tmp_path, test_noises=noises)
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error:") and "gaussian_sigma40" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "task,size,application,factor",
        [
            ("segmentation", 20, {"kind": "nonewnet2d", "base_channels": 2, "depth": 3}, 8),
            ("classification", 40, {"kind": "ccnn", "base_channels": 2}, 16),
        ],
        ids=["segmentation", "classification"],
    )
    def test_network_that_cannot_run_on_the_images_is_config_error(
        self, tmp_path, capsys, task, size, application, factor
    ):
        dataset = {"task": task, "height": size, "width": size, "num_classes": 3, "train_count": 3, "test_count": 2}
        cfg = _write_config(tmp_path, dataset=dataset, application=application)
        assert main(["compare", "--config", str(cfg)]) == 2
        kind = application["kind"]
        assert capsys.readouterr().err == f"config-error: {kind} input extents {size}x{size} must be divisible by {factor}\n"
        assert not (tmp_path / "run").exists()

    def test_invalid_value_in_dataset_manifest_names_the_manifest(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        manifest = tmp_path / "run" / "dataset" / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["num_classes"] = 1
        manifest.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--scheme", "tc"]) == 3
        err = capsys.readouterr().err
        assert err == f"format-error: {manifest}: byte 0: malformed manifest: num_classes must be >= 2\n"

    def test_eval_before_train_is_checkpoint_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        main(["generate", "--config", str(cfg)])
        code = main(["eval", "--config", str(cfg), "--scheme", "tc"])
        assert code == 5
        assert capsys.readouterr().err.startswith("missing-checkpoint:")

    def test_eval_with_a_missing_checkpoint_writes_nothing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["eval", "--config", str(cfg), "--scheme", "tc"]) == 5
        ckpt = tmp_path / "run" / "checkpoints" / "tc"
        err = capsys.readouterr().err
        assert err == f"missing-checkpoint: missing application checkpoint for scheme 'tc' at {ckpt}\n"
        assert not (tmp_path / "run").exists()
        # tc's checkpoint exists, hv's denoiser does not
        save_checkpoint(build_network(parse_config(cfg.read_text()).application), ckpt)
        before = sorted((tmp_path / "run").rglob("*"))
        assert main(["eval", "--config", str(cfg), "--scheme", "hv"]) == 5
        ckpt = tmp_path / "run" / "checkpoints" / "hv"
        err = capsys.readouterr().err
        assert err == f"missing-checkpoint: missing denoiser checkpoint for scheme 'hv' at {ckpt}\n"
        assert sorted((tmp_path / "run").rglob("*")) == before

    @pytest.mark.parametrize(
        "scheme,paths,role,found",
        [
            ("tc", {"application": "redcnn"}, "application", "a redcnn with 3 classes"),
            ("tc", {"application": "unet4"}, "application", "a nonewnet2d with 4 classes"),
            ("tc", {"application": "unet32"}, "application", "a nonewnet2d with 3 classes for 32x32 images"),
            ("hv", {"application": "unet", "denoiser": "unet"}, "denoiser", "a nonewnet2d, not a denoiser"),
        ],
        ids=["denoiser_as_application", "other_class_count", "other_extents", "application_as_denoiser"],
    )
    def test_checkpoint_that_does_not_fit_its_role_is_config_error(self, tmp_path, capsys, scheme, paths, role, found):
        cfg = parse_config(_write_config(tmp_path).read_text())
        specs = {
            "unet": cfg.application,
            "unet4": replace(cfg.application, num_classes=4),
            "unet32": replace(cfg.application, height=32, width=32),
            "redcnn": cfg.denoiser,
        }
        for name, spec in specs.items():
            save_checkpoint(build_network(spec), tmp_path / name)
        overrides = {scheme: {key: str(tmp_path / name) for key, name in paths.items()}}
        routed = _write_config(tmp_path, name="routed.json", schemes=[scheme], checkpoint_overrides=overrides)
        assert main(["compare", "--config", str(routed)]) == 2
        err = capsys.readouterr().err
        where = f"{role} checkpoint for scheme {scheme!r} at {tmp_path / paths[role]}"
        assert err.startswith(f"config-error: {where} is {found}")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command,schemes",
        [(["train", "--scheme", "nnv"], ["tc", "nnv"]), (["compare"], ["nnv"]), (["compare"], ["hv"])],
        ids=["train_nnv", "compare_nnv", "compare_hv"],
    )
    def test_unfit_trained_application_writes_no_dataset(self, tmp_path, capsys, command, schemes):
        """A scheme that routes through an existing application checkpoint
        that does not fit fails before anything is trained or written, even
        when its denoiser is still to be trained."""
        path = _write_config(tmp_path, schemes=schemes)
        ckpt = tmp_path / "run" / "checkpoints" / "tc"
        save_checkpoint(build_network(replace(parse_config(path.read_text()).application, num_classes=4)), ckpt)
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        where = f"application checkpoint for scheme {schemes[-1]!r} at {ckpt}"
        assert err.startswith(f"config-error: {where} is a nonewnet2d with 4 classes")
        assert not (tmp_path / "run" / "dataset").exists()
        assert not (tmp_path / "run" / "checkpoints" / schemes[-1]).exists()

    def test_override_that_swaps_which_scheme_has_a_denoiser_is_config_error(self, tmp_path, capsys):
        """Routed this way, hv would score as tc and tc as nnv."""
        cfg = parse_config(_write_config(tmp_path).read_text())
        save_checkpoint(build_network(cfg.application), tmp_path / "tc")
        save_checkpoint(build_network(cfg.denoiser), tmp_path / "nnv")
        overrides = {
            "hv": {"application": str(tmp_path / "tc"), "denoiser": None},
            "tc": {"application": str(tmp_path / "tc"), "denoiser": str(tmp_path / "nnv")},
        }
        routed = _write_config(tmp_path, name="routed.json", checkpoint_overrides=overrides)
        assert main(["compare", "--config", str(routed)]) == 2
        err = capsys.readouterr().err
        assert err == "config-error: checkpoint_overrides.hv needs an 'application' path and a 'denoiser' path\n"
        assert not (tmp_path / "run").exists()

    def test_classifier_built_for_other_extents_is_config_error(self, tmp_path, capsys):
        overrides = {
            "dataset": {"task": "classification", "height": 32, "width": 32, "num_classes": 3,
                        "train_count": 3, "test_count": 2},
            "application": {"kind": "ccnn", "base_channels": 2},
            "schemes": ["tc", "td"],
        }
        cfg = parse_config(_write_config(tmp_path, **overrides).read_text())
        save_checkpoint(build_network(replace(cfg.application, height=16, width=16)), tmp_path / "ccnn16")
        td = {"td": {"application": str(tmp_path / "ccnn16"), "denoiser": None}}
        routed = _write_config(tmp_path, name="routed.json", checkpoint_overrides=td, **overrides)
        assert main(["compare", "--config", str(routed)]) == 2
        err = capsys.readouterr().err
        where = f"application checkpoint for scheme 'td' at {tmp_path / 'ccnn16'}"
        assert err == (
            f"config-error: {where} is a ccnn with 3 classes for 16x16 images; "
            "the classification dataset needs a ccnn with 3 classes for 32x32 images\n"
        )
        assert not (tmp_path / "run").exists()

    def test_invalid_spec_in_checkpoint_manifest_names_the_checkpoint(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--scheme", "tc"]) == 0
        manifest = tmp_path / "run" / "checkpoints" / "tc" / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["spec"]["base_channels"] = 0
        manifest.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--scheme", "tc"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("missing-checkpoint: malformed checkpoint manifest at")
        assert str(manifest) in err and "base_channels must be >= 1" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_scheme_outside_the_config_is_config_error(self, tmp_path, capsys, command):
        cfg = _write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--scheme", "nnv"]) == 0
        narrowed = _write_config(tmp_path, name="narrowed.json", schemes=["tc", "td"])
        capsys.readouterr()
        assert main([command, "--config", str(narrowed), "--scheme", "nnv"]) == 2
        err = capsys.readouterr().err
        assert err == "config-error: scheme 'nnv' is not in the config's scheme list ['tc', 'td']\n"
        assert not (tmp_path / "run" / "metrics").exists()

    @pytest.mark.parametrize(
        "task,name,data",
        [
            ("segmentation", "0000.lbl.tsr1", np.full((16, 16), 3.0, np.float32)),
            ("segmentation", "0001.lbl.tsr1", np.full((16, 16), 0.5, np.float32)),
            ("segmentation", "0000.img.tsr1", np.zeros((1, 16, 15), np.float32)),
            ("classification", "0000.lbl.tsr1", np.asarray(5.0, np.float32)),
        ],
    )
    def test_sample_that_contradicts_the_manifest_is_format_error(self, tmp_path, capsys, task, name, data):
        overrides = {}
        if task == "classification":
            dataset = {"task": task, "height": 16, "width": 16, "num_classes": 3, "train_count": 3, "test_count": 2}
            overrides = {"dataset": dataset, "application": {"kind": "ccnn", "base_channels": 2}}
        cfg = _write_config(tmp_path, **overrides)
        # eval loads the checkpoint before it reads the dataset
        assert main(["train", "--config", str(cfg), "--scheme", "tc"]) == 0
        write_tensor(tmp_path / "run" / "dataset" / "test" / name, data)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--scheme", "tc"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("format-error:") and f"test/{name}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "relpath",
        [("checkpoints", "tc", "conv1.weight.tsr1"), ("dataset", "test", "0000.img.tsr1")],
        ids=["checkpoint", "dataset"],
    )
    def test_non_finite_value_in_a_tensor_file_is_format_error(self, tmp_path, capsys, relpath):
        overrides = {
            "dataset": {"task": "classification", "height": 16, "width": 16, "num_classes": 3,
                        "train_count": 3, "test_count": 2},
            "application": {"kind": "ccnn", "base_channels": 2},
        }
        cfg = _write_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg), "--scheme", "tc"]) == 0
        path = tmp_path.joinpath("run", *relpath)
        data = read_tensor(path)
        data.flat[3] = np.nan
        write_tensor(path, data)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--scheme", "tc"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"format-error: {path}: byte {5 + 4 * data.ndim + 4 * 3}: non-finite value")
        assert err.count("\n") == 1
        assert not (tmp_path / "run" / "metrics").exists()

    def test_dct_on_missing_image_is_format_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code = main(["dct", "--config", str(cfg), "--image", str(tmp_path / "absent.tsr1")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("format-error:") and "absent.tsr1" in err
        assert err.count("\n") == 1

    def test_dct_on_directory_image_is_format_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code = main(["dct", "--config", str(cfg), "--image", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("format-error:") and err.count("\n") == 1

    def test_dct_with_a_missing_checkpoint_writes_nothing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        image = tmp_path / "run" / "dataset" / "test" / "0000.img.tsr1"
        capsys.readouterr()
        code = main(["dct", "--config", str(cfg), "--out", str(tmp_path / "out"), "--image", str(image),
                     "--checkpoint", str(tmp_path / "no" / "such" / "dir")])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("missing-checkpoint:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_dct_whose_gradient_map_fails_writes_nothing(self, tmp_path, capsys):
        """A 20x20 image has a spectrum (its blocks are edge-padded), but no
        gradient map, which needs extents that are multiples of 8."""
        cfg = _write_config(tmp_path)
        ckpt = tmp_path / "redcnn"
        save_checkpoint(build_network(parse_config(cfg.read_text()).denoiser), ckpt)
        image = tmp_path / "img20.tsr1"
        write_tensor(image, np.full((1, 20, 20), 100.0, dtype=np.float32))
        code = main(["dct", "--config", str(cfg), "--out", str(tmp_path / "out"), "--image", str(image),
                     "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("invalid-shape:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestPipelineSmoke:
    def test_generate_train_eval_end_to_end(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--scheme", "tc"]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--scheme", "tc"]) == 0
        run = tmp_path / "run"
        assert (run / "checkpoints" / "tc" / "loss.csv").is_file()
        path = run / "metrics" / "tc_gaussian_sigma40.csv"
        # the aggregates of the one test noise, then its metrics path
        [(report, _)] = experiment.cmd_eval(parse_config(cfg.read_text()), "tc")
        assert sorted(report.aggregates) == ["dice", "hausdorff", "sensitivity", "specificity"]
        lines = [f"{name}: {mean:.6g} +/- {sd:.6g}" for name, (mean, sd) in sorted(report.aggregates.items())]
        assert capsys.readouterr().out == "\n".join([*lines, str(path)]) + "\n"

    def test_eval_scores_every_test_noise_as_compare_does(self, tmp_path):
        noises = [{"kind": "gaussian", "sigma": 40.0}, {"kind": "poisson", "poisson_scale": 0.1}]
        cfg = _write_config(tmp_path, test_noises=noises)
        assert main(["compare", "--config", str(cfg)]) == 0
        metrics = tmp_path / "run" / "metrics"
        compared = {p.name: p.read_bytes() for p in metrics.iterdir()}
        assert len(compared) == 8
        shutil.rmtree(metrics)
        for scheme in ("tc", "td", "hv", "nnv"):
            assert main(["eval", "--config", str(cfg), "--scheme", scheme]) == 0
        assert {p.name: p.read_bytes() for p in metrics.iterdir()} == compared

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "dataset" / "manifest.json").is_file()
        assert not (tmp_path / "run").exists()

    def test_seed_flag_changes_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"])
        img_a = (tmp_path / "a" / "dataset" / "train" / "0000.img.tsr1").read_bytes()
        img_b = (tmp_path / "b" / "dataset" / "train" / "0000.img.tsr1").read_bytes()
        assert img_a != img_b

    def test_identical_invocations_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["compare", "--config", str(cfg), "--out", str(tmp_path / "r1")])
        main(["compare", "--config", str(cfg), "--out", str(tmp_path / "r2")])
        a = (tmp_path / "r1" / "compare.csv").read_bytes()
        b = (tmp_path / "r2" / "compare.csv").read_bytes()
        assert a == b
