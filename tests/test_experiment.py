"""Pipeline orchestration: artifact layout, reuse, overrides, determinism."""

import json
import os
import shutil
import signal
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from taskdenoise import autodiff, data, experiment, networks, schemes
from taskdenoise.autodiff import Tensor
from taskdenoise.cli import main
from taskdenoise.config import parse_config
from taskdenoise.errors import CheckpointError, ConfigError, InvalidInputError
from taskdenoise.experiment import cmd_compare, cmd_dct, cmd_eval, cmd_generate, cmd_train
from taskdenoise.noise import noise_tag


def _config_text(out_dir, train_count=6, test_count=3, epochs=2, sigma=40.0, seed=9):
    return json.dumps(
        {
            "seed": seed,
            "output_dir": str(out_dir),
            "dataset": {
                "task": "segmentation",
                "height": 16,
                "width": 16,
                "num_classes": 3,
                "train_count": train_count,
                "test_count": test_count,
            },
            "application": {"kind": "nonewnet2d", "base_channels": 2, "depth": 2},
            "denoiser": {"kind": "redcnn", "base_channels": 2},
            "train_noise": {"kind": "gaussian", "sigma": sigma},
            "test_noises": [{"kind": "gaussian", "sigma": sigma}],
            "train": {
                "epochs_application": epochs,
                "epochs_denoiser": epochs,
                "learning_rate": 1e-3,
            },
        }
    )


@pytest.fixture
def cfg(tmp_path):
    return parse_config(_config_text(tmp_path / "run"))


class TestGenerate:
    def test_layout(self, cfg):
        path = cmd_generate(cfg)
        assert (path / "manifest.json").is_file()
        assert (path / "train" / "0000.img.tsr1").is_file()
        assert (path / "train" / "0000.lbl.tsr1").is_file()
        assert (path / "test" / "0002.img.tsr1").is_file()

    def test_regeneration_is_byte_identical(self, cfg):
        path = cmd_generate(cfg)
        before = {p.name: p.read_bytes() for p in (path / "train").iterdir()}
        cmd_generate(cfg)
        after = {p.name: p.read_bytes() for p in (path / "train").iterdir()}
        assert before == after


class TestTrain:
    def test_tc_train_writes_checkpoint_and_loss(self, cfg):
        paths = cmd_train(cfg, "tc")
        ckpt = paths["application"]
        assert (ckpt / "manifest.json").is_file()
        assert (ckpt / "loss.csv").is_file()
        lines = (ckpt / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + cfg.train.epochs_application

    def test_nnv_trains_tc_dependency(self, cfg, tmp_path):
        paths = cmd_train(cfg, "nnv")
        assert (paths["application"] / "manifest.json").is_file()  # tc got trained
        assert (paths["denoiser"] / "manifest.json").is_file()

    def test_retrain_reuses_existing_checkpoint(self, cfg):
        first = cmd_train(cfg, "tc")
        stamp = (first["application"] / "manifest.json").stat().st_mtime_ns
        second = cmd_train(cfg, "tc")
        assert (second["application"] / "manifest.json").stat().st_mtime_ns == stamp

    def test_unlisted_scheme_rejected(self, tmp_path):
        raw = json.loads(_config_text(tmp_path / "run2"))
        raw["schemes"] = ["tc"]
        cfg = parse_config(json.dumps(raw))
        with pytest.raises(ConfigError):
            cmd_train(cfg, "hv")


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestInterruptedSave:
    # write_tensor raises on call ``calls``: in the dataset, in the tc
    # checkpoint, and (after tc's 26 tensors) in the hv denoiser checkpoint
    @pytest.mark.parametrize(
        "module,calls",
        [pytest.param(data, 4, id="dataset"), pytest.param(networks, 5, id="tc"), pytest.param(networks, 30, id="hv")],
    )
    def test_no_manifest_and_the_rerun_matches(self, cfg, tmp_path, monkeypatch, module, calls):
        cmd_train(parse_config(_config_text(tmp_path / "clean")), "hv")
        expected = _tree(tmp_path / "clean")

        real = module.write_tensor
        written = []

        def failing(path, arr):
            if len(written) == calls:
                raise OSError("no space left on device")
            written.append(Path(path))
            real(path, arr)

        monkeypatch.setattr(module, "write_tensor", failing)
        with pytest.raises(OSError):
            cmd_train(cfg, "hv")
        # checkpoint tensors sit next to the manifest, dataset tensors one level below it
        interrupted = written[-1].parent if module is networks else written[-1].parent.parent
        assert any(interrupted.iterdir())
        assert not (interrupted / "manifest.json").exists()

        monkeypatch.setattr(module, "write_tensor", real)
        cmd_train(cfg, "hv")
        assert _tree(tmp_path / "run") == expected


class TestEval:
    def test_eval_without_training_raises(self, cfg):
        with pytest.raises(CheckpointError):
            cmd_eval(cfg, "tc")

    def test_eval_writes_per_sample_csv(self, cfg):
        cmd_train(cfg, "tc")
        [(report, path)] = cmd_eval(cfg, "tc")
        assert path.is_file()
        assert {row[0] for row in report.rows} == set(range(cfg.dataset.test_count))
        assert path.name == f"tc_{noise_tag(cfg.test_noises[0])}.csv"

    def test_eval_twice_is_byte_identical(self, cfg):
        cmd_train(cfg, "tc")
        [(_, path1)] = cmd_eval(cfg, "tc")
        first = path1.read_bytes()
        [(_, path2)] = cmd_eval(cfg, "tc")
        assert path2.read_bytes() == first

    def test_hv_eval_routes_denoiser(self, cfg):
        cmd_train(cfg, "hv")
        [(report, _)] = cmd_eval(cfg, "hv")
        assert {row[0] for row in report.rows} == set(range(cfg.dataset.test_count))


class TestCompare:
    def test_end_to_end_emits_all_artifacts(self, cfg):
        rows, path = cmd_compare(cfg)
        assert len(rows) == len(cfg.schemes) * len(cfg.test_noises)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("scheme,test_noise,")
        assert len(lines) == 1 + len(cfg.schemes) * len(cfg.test_noises)
        out = path.parent
        for scheme in cfg.schemes:
            assert (out / "metrics" / f"{scheme}_{noise_tag(cfg.test_noises[0])}.csv").is_file()

    def test_identical_checkpoints_give_identical_rows(self, cfg, tmp_path):
        cmd_train(cfg, "hv")
        ckpts = (tmp_path / "run" / "checkpoints").resolve()
        raw = json.loads(_config_text(tmp_path / "run"))
        raw["test_noises"] = [{"kind": "gaussian", "sigma": 0.0}]
        raw["checkpoint_overrides"] = {
            s: {"application": str(ckpts / "tc"), "denoiser": str(ckpts / "hv") if s in ("hv", "nnv") else None}
            for s in ["tc", "td", "hv", "nnv"]
        }
        degenerate = replace(parse_config(json.dumps(raw)), output_dir=str(tmp_path / "degenerate"))
        _, path = cmd_compare(degenerate)
        lines = path.read_text().strip().splitlines()
        values = {line.split(",", 1)[0]: line.split(",", 2)[2] for line in lines[1:]}
        assert list(values) == ["tc", "td", "hv", "nnv"]
        assert values["tc"] == values["td"] and values["hv"] == values["nnv"]


class TestSharedEvaluationInputs:
    """compare reads the dataset once, loads each checkpoint directory once
    and corrupts the test set once per test noise, without changing a byte."""

    NOISES = [{"kind": "poisson", "poisson_scale": 0.1}, {"kind": "gaussian", "sigma": 40.0}]

    def _cfg(self, out):
        raw = json.loads(_config_text(out))
        raw["test_noises"] = self.NOISES
        return parse_config(json.dumps(raw))

    @pytest.fixture
    def calls(self, monkeypatch):
        """First argument of each call through the seams the perfbench tracer wraps."""
        calls = {"load_dataset": [], "load_checkpoint": [], "apply_noise": []}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name].append(args[0])
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(experiment, "load_dataset")
        counting(experiment, "load_checkpoint")
        counting(schemes, "apply_noise")
        return calls

    def test_compare_and_eval_write_identical_metrics(self, tmp_path):
        cfg = self._cfg(tmp_path / "compare")
        assert {"hv", "nnv"} <= set(cfg.schemes)
        cmd_compare(cfg)
        shutil.copytree(tmp_path / "compare" / "checkpoints", tmp_path / "eval" / "checkpoints")
        eval_cfg = replace(cfg, output_dir=str(tmp_path / "eval"))
        for scheme in cfg.schemes:
            written = cmd_eval(eval_cfg, scheme)
            assert len(written) == len(cfg.test_noises)
            for (_, path), noise in zip(written, cfg.test_noises):
                name = f"{scheme}_{noise_tag(noise)}.csv"
                assert path.name == name
                assert path.read_bytes() == (tmp_path / "compare" / "metrics" / name).read_bytes()

    def test_compare_does_the_shared_work_once(self, tmp_path, calls):
        cfg = self._cfg(tmp_path / "run")
        cmd_compare(cfg)
        for seam in calls.values():
            seam.clear()
        first = (tmp_path / "run" / "compare.csv").read_bytes()

        cmd_compare(cfg)
        assert (tmp_path / "run" / "compare.csv").read_bytes() == first
        assert len(calls["load_dataset"]) == 1
        ckpts = tmp_path / "run" / "checkpoints"
        assert Counter(calls["load_checkpoint"]) == {ckpts / s: 1 for s in cfg.schemes}
        assert len(calls["apply_noise"]) == len(cfg.test_noises) * cfg.dataset.test_count

    def test_compare_that_trains_reads_the_dataset_once(self, tmp_path, calls):
        cfg = self._cfg(tmp_path / "run")
        cmd_generate(cfg)
        cmd_compare(cfg)
        assert len(calls["load_dataset"]) == 1

    def test_compare_that_trains_nnv_loads_each_checkpoint_once(self, tmp_path, calls):
        cfg = self._cfg(tmp_path / "run")
        cmd_generate(cfg)
        cmd_compare(cfg)
        ckpts = (tmp_path / "run" / "checkpoints").resolve()
        assert Counter(Path(d).resolve() for d in calls["load_checkpoint"]) == {ckpts / s: 1 for s in cfg.schemes}

    def test_train_reads_no_dataset_when_checkpoints_exist(self, tmp_path, calls):
        cfg = self._cfg(tmp_path / "run")
        cmd_train(cfg, "nnv")
        for seam in calls.values():
            seam.clear()
        for scheme in ("tc", "hv"):  # of these only hv has a checkpoint to train
            cmd_train(cfg, scheme)
        assert len(calls["load_dataset"]) == 1
        cmd_train(cfg, "nnv")
        assert len(calls["load_dataset"]) == 1 and not calls["load_checkpoint"]

    def test_each_command_reads_only_the_splits_it_uses(self, tmp_path, monkeypatch):
        cfg = parse_config(_config_text(tmp_path / "run", train_count=20, test_count=5, epochs=1))
        cmd_generate(cfg)
        reads = []
        real = data.read_tensor

        def counting(path):
            reads.append(Path(path).parent.name)
            return real(path)

        monkeypatch.setattr(data, "read_tensor", counting)
        cmd_train(cfg, "tc")
        assert Counter(reads) == {"train": 40}  # image and label map per sample
        reads.clear()
        cmd_eval(cfg, "tc")
        assert Counter(reads) == {"test": 10}
        reads.clear()
        cmd_compare(replace(cfg, schemes=["tc"]))  # tc's checkpoint is complete, so nothing reads the train split
        assert Counter(reads) == {"test": 10}

    def test_a_stale_dataset_is_regenerated_unread(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cmd_generate(parse_config(_config_text(out, train_count=20, test_count=5)))
        reads = []
        real = data.read_tensor
        monkeypatch.setattr(data, "read_tensor", lambda path: reads.append(path) or real(path))
        cfg = parse_config(_config_text(out, train_count=20, test_count=6))
        _, test = experiment.ensure_dataset(cfg, splits=("test",))
        assert not reads
        assert len(test) == 6 and data.load_dataset_spec(out / "dataset") == cfg.dataset

    def test_overrides_share_by_resolved_directory(self, cfg, tmp_path, calls):
        cmd_train(cfg, "hv")
        run = tmp_path / "run"

        def spellings(name):
            return [run / "checkpoints" / name, run / "checkpoints" / ".." / "checkpoints" / name]

        raw = json.loads(_config_text(run))
        raw["checkpoint_overrides"] = {
            s: {
                "application": str(spellings("tc")[i % 2]),
                "denoiser": str(spellings("hv")[i % 2]) if s in ("hv", "nnv") else None,
            }
            for i, s in enumerate(["tc", "td", "hv", "nnv"])
        }
        calls["load_checkpoint"].clear()
        cmd_compare(replace(parse_config(json.dumps(raw)), output_dir=str(tmp_path / "shared")))
        assert calls["load_checkpoint"] == [spellings("tc")[0], spellings("hv")[0]]


class TestParallelDenoising:
    """Evaluation denoises the test set on every core before it scores: the
    same bytes on any core count, no child left behind, and a failure
    reported as on one core."""

    NOISES = TestSharedEvaluationInputs.NOISES

    @pytest.fixture
    def cores(self, monkeypatch):
        """Set the core count the pipeline sees; returns the pids forked since."""
        forked = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)

        def set_cores(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            forked.clear()
            return forked

        return set_cores

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_compare_writes_the_same_bytes_on_any_core_count(self, tmp_path, cores):
        raw = json.loads(_config_text(tmp_path / "run"))
        raw["test_noises"] = self.NOISES
        cfg = parse_config(json.dumps(raw))
        metrics = tmp_path / "run" / "metrics"
        written = []
        for n in (1, 2, 3):
            forked = cores(n)
            shutil.rmtree(metrics, ignore_errors=True)
            _, path = cmd_compare(cfg)
            assert len(forked) == n - 1
            self._no_child_left()
            written.append({p.name: p.read_bytes() for p in [path, *metrics.iterdir()]})
        assert len(written[0]) == 1 + len(cfg.schemes) * len(cfg.test_noises)
        assert written[0] == written[1] == written[2]

    def test_eval_leaves_no_child(self, cfg, cores):
        cmd_train(cfg, "hv")
        forked = cores(2)
        cmd_eval(cfg, "hv")
        assert forked
        self._no_child_left()

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_outputs_come_back_in_job_order_unvalidated(self, cores, n):
        """Real denoiser outputs, and a non-finite one that ``Tensor`` would
        reject, come back byte for byte as the denoiser made them."""
        net = networks.build_network(networks.NetworkSpec(kind="redcnn", base_channels=2, seed=3))
        nan = SimpleNamespace(forward=lambda image, train: autodiff._wrap(np.full(image.shape, np.nan)))
        rng = np.random.default_rng(0)
        images = [Tensor(rng.uniform(0, 255, (1, 16, 16 + 4 * k)).astype(np.float32)) for k in range(5)]
        jobs = [(net, image) for image in images] + [(nan, images[0]), (net, images[1])]
        forked = cores(n)
        outputs = experiment._denoise(jobs)
        assert len(forked) == min(n, len(jobs)) - 1
        self._no_child_left()
        assert [o.data.tobytes() for o in outputs] == [d.forward(i, train=False).data.tobytes() for d, i in jobs]

    def test_a_parent_that_raises_reaps_every_child(self, cores):
        """This process's own span fails; each of the two children is reaped
        before the error reaches the caller."""
        parent = os.getpid()

        def forward(image, train):
            if os.getpid() == parent:
                raise InvalidInputError("the parent's own chunk failed")
            return image

        def hung(signum, frame):
            for pid in forked:  # a child still running would outlive the test run
                os.kill(pid, signal.SIGKILL)
            raise TimeoutError("the parent waited on a child that never ended")

        denoiser = SimpleNamespace(forward=forward)
        image = Tensor(np.zeros((1, 64, 64), dtype=np.float32))
        forked = cores(3)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(InvalidInputError, match="own chunk"):
                experiment._denoise([(denoiser, image)] * 18)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forked) == 2
        self._no_child_left()

    def test_a_child_that_dies_part_way_has_its_span_run_again(self, cores):
        """The child leaves through ``os._exit(7)`` from its third
        ``forward``, two of its slots filled; this process runs the child's
        whole span again and returns what one core returns."""
        net = networks.build_network(networks.NetworkSpec(kind="redcnn", base_channels=2, seed=3))
        parent = os.getpid()
        child_calls = []

        def forward(image, train):
            if os.getpid() != parent:
                child_calls.append(image)
                if len(child_calls) == 3:
                    os._exit(7)
            return net.forward(image, train)

        denoiser = SimpleNamespace(forward=forward)
        rng = np.random.default_rng(1)
        jobs = [(denoiser, Tensor(rng.uniform(0, 255, (1, 16, 16)).astype(np.float32))) for _ in range(8)]
        cores(1)
        expected = [o.data.tobytes() for o in experiment._denoise(jobs)]
        forked = cores(2)
        outputs = experiment._denoise(jobs)
        assert len(forked) == 1
        self._no_child_left()
        assert [o.data.tobytes() for o in outputs] == expected

    def test_a_failing_worker_fails_as_one_core_does(self, tmp_path, cores, monkeypatch, capsys):
        """nnv's denoiser raises on every image. With two cores its jobs all
        run in the child, which fails; the parent then runs them itself."""
        path = tmp_path / "cfg.json"
        path.write_text(_config_text(tmp_path / "run"))
        assert main(["compare", "--config", str(path)]) == 0
        evaluate = experiment._evaluate

        def poisoned(cfg, models, test_samples):
            def forward(image, train=False):
                raise InvalidInputError("nnv's denoiser failed")

            models["nnv"][1].forward = forward
            return evaluate(cfg, models, test_samples)

        monkeypatch.setattr(experiment, "_evaluate", poisoned)
        failures = []
        for n in (1, 2, 3):
            capsys.readouterr()
            forked = cores(n)
            failures.append((main(["compare", "--config", str(path)]), capsys.readouterr().err))
            assert len(forked) == n - 1
            self._no_child_left()
        assert failures[0] == (4, "invalid-input: nnv's denoiser failed\n")
        assert failures[0] == failures[1] == failures[2]


class TestDct:
    def test_spectrum_outputs(self, cfg, tmp_path):
        ddir = cmd_generate(cfg)
        produced = cmd_dct(cfg, ddir / "test" / "0000.img.tsr1")
        names = {p.name for p in produced}
        assert names == {"0000.spectrum.csv", "0000.spectrum.pgm"}

    def test_with_checkpoint_adds_gradient_map(self, cfg):
        ddir = cmd_generate(cfg)
        paths = cmd_train(cfg, "hv")
        produced = cmd_dct(cfg, ddir / "test" / "0000.img.tsr1", checkpoint=paths["denoiser"])
        names = {p.name for p in produced}
        assert "0000.freqgrad.csv" in names and "0000.freqgrad.pgm" in names
