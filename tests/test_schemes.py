"""Training procedures: loss descent, freezing, composition, determinism."""

import numpy as np
import pytest

from conftest import fd_gradient, parameter_checksum, rel_err
from taskdenoise import autodiff as ad
from taskdenoise.autodiff import Tape
from taskdenoise.data import DatasetSpec, generate_dataset
from taskdenoise.errors import ConfigError, InvalidInputError, InvalidShapeError, TrainingDivergedError
from taskdenoise.metrics import aggregate, evaluate_segmentation_sample
from taskdenoise.networks import NetworkSpec, build_network, save_checkpoint
from taskdenoise.noise import NoiseSpec
from taskdenoise.schemes import (
    TrainSettings,
    composed_task_loss,
    corrupt_samples,
    evaluate_scheme,
    predict,
    train_application,
    train_denoiser_hv,
    train_denoiser_nnv,
)


def _seg_samples(count=6, size=16, k=3, seed=1):
    spec = DatasetSpec(task="segmentation", height=size, width=size, num_classes=k, train_count=count, test_count=2, seed=seed)
    return generate_dataset(spec)


def _cls_samples(count=6, size=64, k=3, seed=2):
    spec = DatasetSpec(task="classification", height=size, width=size, num_classes=k, train_count=count, test_count=3, seed=seed)
    return generate_dataset(spec)


def _app_spec(size=16, k=3, seed=3, base=2, depth=2):
    return NetworkSpec(kind="nonewnet2d", base_channels=base, num_classes=k, height=size, width=size, seed=seed, depth=depth)


def _den_spec(seed=4, base=2):
    return NetworkSpec(kind="redcnn", base_channels=base, seed=seed)


def _settings(epochs, learning_rate=1e-3):
    return TrainSettings(epochs_application=epochs, epochs_denoiser=epochs, learning_rate=learning_rate)


class TestSchemeValidation:
    def test_epochs_must_be_positive(self):
        with pytest.raises(ConfigError):
            TrainSettings(epochs_application=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainSettings(learning_rate=value)


class TestTrainApplication:
    def test_one_epoch_decreases_loss_on_single_sample(self):
        train, _ = _seg_samples(count=1)
        model = build_network(_app_spec(seed=5))
        sample = train[0]

        def current_loss():
            return ad.cross_entropy_loss(model.forward(sample.image), sample.target).item()

        before = current_loss()
        train_application(model, train, _settings(1), seed=1)
        assert current_loss() < before

    def test_sigma_zero_dirty_training_equals_clean_training(self):
        train, _ = _seg_samples(count=4)
        settings = _settings(2)
        clean_model = build_network(_app_spec(seed=8))
        dirty_model = build_network(_app_spec(seed=8))
        train_application(clean_model, train, settings, noise_spec=None, seed=7)
        train_application(dirty_model, train, settings, noise_spec=NoiseSpec(kind="gaussian", sigma=0.0, seed=9), seed=7)
        assert parameter_checksum(clean_model) == parameter_checksum(dirty_model)

    def test_deterministic_final_state(self):
        train, _ = _seg_samples(count=4)

        def run():
            model = build_network(_app_spec(seed=10))
            result = train_application(model, train, _settings(2), seed=11)
            return parameter_checksum(model), tuple(result.trace)

        assert run() == run()

    def test_loss_trace_recorded_per_epoch(self):
        train, _ = _seg_samples(count=4)
        model = build_network(_app_spec(seed=12))
        result = train_application(model, train, _settings(3), seed=13)
        assert len(result.trace) == 3
        assert [e for e, _, _ in result.trace] == [1, 2, 3]

    def test_task_mismatch_rejected(self):
        train, _ = _cls_samples(count=4)
        model = build_network(_app_spec(size=64))
        before = parameter_checksum(model)
        with pytest.raises(InvalidShapeError):
            train_application(model, train, _settings(1), seed=1)
        assert parameter_checksum(model) == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        train, _ = _seg_samples(count=2)
        model = build_network(_app_spec(seed=14))
        with pytest.raises(TrainingDivergedError) as err:
            train_application(model, train, _settings(4, 1e14), seed=15)
        assert err.value.epoch >= 1

    def test_classification_training_runs(self):
        train, _ = _cls_samples(count=4)
        spec = NetworkSpec(kind="ccnn", base_channels=2, num_classes=3, height=64, width=64, seed=16)
        model = build_network(spec)
        result = train_application(model, train, _settings(1), seed=17)
        assert len(result.trace) == 1


class TestTrainDenoiserHv:
    def test_zero_noise_residual_denoiser_starts_at_zero_loss(self):
        train, _ = _seg_samples(count=2)
        model = build_network(NetworkSpec(kind="mcdncnn", base_channels=2, seed=20))
        model.conv_out.params["weight"].data = np.zeros_like(model.conv_out.params["weight"].data)
        clean = train[0].image
        assert ad.mse_loss(model.forward(clean), clean).item() == 0.0

    def test_training_reduces_held_out_mse(self):
        train, test = _seg_samples(count=8, seed=21)
        noise = NoiseSpec(kind="gaussian", sigma=70.0, seed=22)
        model = build_network(_den_spec(seed=23, base=4))
        dirty_test = corrupt_samples(test, noise, "test")

        def held_out_mse():
            return float(np.mean([ad.mse_loss(model.forward(d), s.image).item() for d, s in zip(dirty_test, test)]))

        before = held_out_mse()
        train_denoiser_hv(model, train, _settings(4), noise, seed=24)
        assert held_out_mse() < before

    def test_deterministic(self):
        train, _ = _seg_samples(count=3)
        noise = NoiseSpec(kind="gaussian", sigma=50.0, seed=25)

        def run():
            model = build_network(_den_spec(seed=26))
            train_denoiser_hv(model, train, _settings(1), noise, seed=27)
            return parameter_checksum(model)

        assert run() == run()

    def test_best_epoch_restores_running_statistics_too(self, tmp_path):
        # E epochs whose best validation epoch b < E must leave every
        # checkpoint tensor as b epochs of the same run do. Batchnorm's
        # running statistics move on every train-mode step, so restoring
        # only the parameters would keep epoch E's statistics.
        train, _ = _seg_samples(count=6, seed=2)
        noise = NoiseSpec(kind="gaussian", sigma=30.0, seed=5)

        def tensor_files(epochs, name):
            model = build_network(NetworkSpec(kind="mcdncnn", base_channels=2, seed=4))
            settings = TrainSettings(epochs_denoiser=epochs, learning_rate=3e-2, validation_fraction=0.34)
            result = train_denoiser_hv(model, train, settings, noise, seed=3)
            save_checkpoint(model, tmp_path / name, result.best_epoch)
            return result.best_epoch, {p.name: p.read_bytes() for p in sorted((tmp_path / name).glob("*.tsr1"))}

        best, last = tensor_files(5, "five")
        assert 1 <= best < 5
        assert "bn2.running_var.tsr1" in last
        best_again, at_best = tensor_files(best, "best")
        assert best_again == best
        assert last.keys() == at_best.keys()
        for name in last:
            assert last[name] == at_best[name], name


class TestTrainDenoiserNnv:
    def test_application_weights_frozen(self):
        train, _ = _seg_samples(count=3)
        app = build_network(_app_spec(seed=30))
        before = parameter_checksum(app)
        denoiser = build_network(_den_spec(seed=31))
        noise = NoiseSpec(kind="gaussian", sigma=70.0, seed=32)
        train_denoiser_nnv(denoiser, app, train, _settings(2), noise, seed=33)
        assert parameter_checksum(app) == before
        assert all(p.requires_grad for p in app.parameters())  # flags restored

    def test_denoiser_actually_changes(self):
        train, _ = _seg_samples(count=3)
        app = build_network(_app_spec(seed=34))
        denoiser = build_network(_den_spec(seed=35))
        before = parameter_checksum(denoiser)
        noise = NoiseSpec(kind="gaussian", sigma=70.0, seed=36)
        train_denoiser_nnv(denoiser, app, train, _settings(1), noise, seed=37)
        assert parameter_checksum(denoiser) != before

    def test_identity_denoiser_equals_application_only_loss(self):
        train, _ = _seg_samples(count=20, seed=38)
        app = build_network(_app_spec(seed=39))
        for sample in train:
            with Tape() as t1:
                composed = composed_task_loss(None, app, sample.image, sample.target)
            with Tape() as t2:
                direct = ad.cross_entropy_loss(app.forward(sample.image), sample.target)
            assert composed.data.tobytes() == direct.data.tobytes()
            assert len(t1) == len(t2)

    def test_composed_gradient_matches_fd(self):
        train, _ = _seg_samples(count=1, seed=40)
        sample = train[0]
        app = build_network(_app_spec(seed=41))
        denoiser = build_network(_den_spec(seed=42))
        app.set_trainable(False)
        with Tape() as tape:
            loss = composed_task_loss(denoiser, app, sample.image, sample.target, train_denoiser=True)
            grads = ad.backward(loss, tape)
        app.set_trainable(True)
        param = denoiser.conv1.params["weight"]
        analytic = grads[param].reshape(-1)

        def probe():
            return composed_task_loss(denoiser, app, sample.image, sample.target).item()

        indices = np.linspace(0, param.size - 1, 6, dtype=int).tolist()
        fd = fd_gradient(probe, param, indices=indices)
        for idx, fd_val in fd.items():
            assert rel_err(analytic[idx], fd_val) < 1e-3

    def test_composition_extent_mismatch_raises(self):
        train, _ = _cls_samples(count=2, size=64)
        app = build_network(NetworkSpec(kind="ccnn", base_channels=2, num_classes=3, height=32, width=32, seed=43))
        denoiser = build_network(_den_spec(seed=44))
        before = parameter_checksum(app), parameter_checksum(denoiser)
        with pytest.raises(InvalidShapeError, match="ccnn was built for 32x32, got 64x64"):
            composed_task_loss(denoiser, app, train[0].image, train[0].target)
        with pytest.raises(InvalidShapeError, match="ccnn was built for 32x32, got 64x64"):
            train_denoiser_nnv(denoiser, app, train, _settings(1), NoiseSpec(kind="gaussian", sigma=40.0, seed=45))
        assert (parameter_checksum(app), parameter_checksum(denoiser)) == before


class TestComposedLossInvariant:
    def test_single_expression_equals_manual_staging(self):
        train, _ = _seg_samples(count=3, seed=50)
        app = build_network(_app_spec(seed=51))
        denoiser = build_network(_den_spec(seed=52))
        for sample in train:
            composed = composed_task_loss(denoiser, app, sample.image, sample.target)
            denoised = denoiser.forward(sample.image)
            staged = ad.cross_entropy_loss(app.forward(denoised), sample.target)
            assert composed.data.tobytes() == staged.data.tobytes()


class TestEvaluateScheme:
    def test_tc_with_zero_noise_equals_plain_evaluation(self):
        _, test = _seg_samples(count=3, seed=60)
        app = build_network(_app_spec(seed=61))
        zero = NoiseSpec(kind="gaussian", sigma=0.0, seed=62)
        with_noise = evaluate_scheme(app, test, corrupt_samples(test, zero, "test"))
        plain = evaluate_scheme(app, test, corrupt_samples(test, None, "test"))
        assert with_noise.aggregates == plain.aggregates

    def test_per_sample_count_matches_test_size(self):
        _, test = _seg_samples(count=3, seed=63)
        app = build_network(_app_spec(seed=64))
        report = evaluate_scheme(app, test, corrupt_samples(test, None, "test"))
        assert {row[0] for row in report.rows} == set(range(len(test)))

    def test_aggregation_matches_hand_computation(self):
        _, test = _seg_samples(count=3, seed=65)
        app = build_network(_app_spec(seed=66))
        report = evaluate_scheme(app, test, corrupt_samples(test, None, "test"))
        preds = [predict(app, s.image) for s in test]
        per_sample = [
            np.mean([v for _, m, v in evaluate_segmentation_sample(p, s.target, 3) if m == "dice"])
            for p, s in zip(preds, test)
        ]
        assert report.aggregates["dice"] == aggregate(per_sample)

    def test_denoiser_routing_changes_predictions(self):
        _, test = _seg_samples(count=3, seed=67)
        app = build_network(_app_spec(seed=68))
        denoiser = build_network(_den_spec(seed=69))
        noise = NoiseSpec(kind="gaussian", sigma=70.0, seed=70)
        dirty = corrupt_samples(test, noise, "test")
        routed = evaluate_scheme(app, test, [denoiser.forward(image) for image in dirty])
        direct = evaluate_scheme(app, test, dirty)
        assert {row[0] for row in routed.rows} == {row[0] for row in direct.rows} == set(range(len(test)))

    def test_one_image_per_sample_required(self):
        _, test = _seg_samples(seed=73)
        app = build_network(_app_spec(seed=74))
        with pytest.raises(InvalidInputError):
            evaluate_scheme(app, test, corrupt_samples(test[:1], None, "test"))

    def test_classification_report_kind(self):
        _, test = _cls_samples(count=4, seed=71)
        app = build_network(NetworkSpec(kind="ccnn", base_channels=2, num_classes=3, height=64, width=64, seed=72))
        report = evaluate_scheme(app, test, corrupt_samples(test, None, "test"))
        assert [(i, c, m) for i, c, m, _ in report.rows] == [(i, "", m) for i in range(3) for m in ("predicted", "top1")]
        assert set(report.aggregates) == {"top1"}
