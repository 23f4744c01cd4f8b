"""CLI surface: subcommands, exit codes, single-line errors, determinism."""

import json

import numpy as np
import pytest

from taskdenoise.cli import main
from taskdenoise.tensorio import write_tensor


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
        ],
    )
    def test_malformed_shape_is_config_error(self, tmp_path, capsys, key, value, message):
        cfg = _write_config(tmp_path, **{key: value})
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config-error: {message}") and err.count("\n") == 1

    def test_colliding_test_noise_tags_are_a_config_error(self, tmp_path, capsys):
        noises = [{"kind": "gaussian", "sigma": 40.0}, {"kind": "gaussian", "sigma": 40.0, "mu": 60.0}]
        cfg = _write_config(tmp_path, test_noises=noises)
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error:") and "gaussian_sigma40" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_eval_before_train_is_checkpoint_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        main(["generate", "--config", str(cfg)])
        code = main(["eval", "--config", str(cfg), "--scheme", "tc"])
        assert code == 5
        assert capsys.readouterr().err.startswith("missing-checkpoint:")

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_test_sigma_is_spec_error(self, tmp_path, capsys, sigma):
        cfg = _write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--scheme", "tc"]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--scheme", "tc", "--test-sigma", sigma]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid-spec:") and "sigma" in err
        assert err.count("\n") == 1
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
        assert main(["generate", "--config", str(cfg)]) == 0
        write_tensor(tmp_path / "run" / "dataset" / "test" / name, data)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--scheme", "tc"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("format-error:") and f"test/{name}" in err
        assert err.count("\n") == 1

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


class TestPipelineSmoke:
    def test_generate_train_eval_end_to_end(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--scheme", "tc"]) == 0
        assert main(["eval", "--config", str(cfg), "--scheme", "tc"]) == 0
        out = capsys.readouterr().out
        assert "dice" in out
        run = tmp_path / "run"
        assert (run / "checkpoints" / "tc" / "loss.csv").is_file()
        assert (run / "metrics" / "tc_gaussian_sigma40.csv").is_file()

    def test_test_sigma_flag_selects_noise(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["train", "--config", str(cfg), "--scheme", "tc"])
        assert main(["eval", "--config", str(cfg), "--scheme", "tc", "--test-sigma", "15"]) == 0
        assert (tmp_path / "run" / "metrics" / "tc_gaussian_sigma15.csv").is_file()

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "dataset" / "manifest.json").is_file()

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
