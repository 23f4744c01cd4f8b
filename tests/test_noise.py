"""Noise synthesis: moments, determinism, clamping, independence."""

import numpy as np
import pytest

from taskdenoise.autodiff import Tensor
from taskdenoise.errors import ConfigError, InvalidInputError
from taskdenoise.noise import NoiseSpec, apply_noise
from taskdenoise.rng import Rng


def _gray(value, shape=(1, 64, 64)):
    return Tensor(np.full(shape, value, dtype=np.float32))


class TestSpecValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="gaussian", sigma=-1.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="poisson", poisson_scale=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="salt")

    @pytest.mark.parametrize("kind", ["gaussian", "poisson"])
    @pytest.mark.parametrize("field", ["sigma", "poisson_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, kind, field, value):
        with pytest.raises(ConfigError, match=field):
            NoiseSpec(kind=kind, **{field: value})


class TestGaussian:
    def test_sigma_zero_is_identity(self):
        img = _gray(128.0)
        out = apply_noise(img, NoiseSpec(kind="gaussian", sigma=0.0, seed=1))
        assert out.data.tobytes() == img.data.tobytes()

    def test_same_seed_bit_identical(self):
        spec = NoiseSpec(kind="gaussian", sigma=50.0, seed=4)
        a = apply_noise(_gray(100.0), spec)
        b = apply_noise(_gray(100.0), spec)
        assert a.data.tobytes() == b.data.tobytes()

    def test_different_seed_differs(self):
        a = apply_noise(_gray(100.0), NoiseSpec(kind="gaussian", sigma=50.0, seed=5))
        b = apply_noise(_gray(100.0), NoiseSpec(kind="gaussian", sigma=50.0, seed=6))
        assert a.data.tobytes() != b.data.tobytes()

    def test_output_clamped(self):
        out = apply_noise(_gray(128.0), NoiseSpec(kind="gaussian", sigma=500.0, seed=7))
        assert out.data.min() >= 0.0 and out.data.max() <= 255.0
        assert (out.data == 0.0).any() and (out.data == 255.0).any()

    def test_lag1_autocorrelation_near_zero(self):
        # at sigma 1 around mid-gray the clamp never binds
        image = _gray(127.5, (1, 1000, 1000))
        noisy = apply_noise(image, NoiseSpec(kind="gaussian", sigma=1.0, seed=8))
        field = (noisy.data.astype(np.float64) - image.data).ravel()
        a, b = field[:-1], field[1:]
        corr = ((a - a.mean()) * (b - b.mean())).mean() / (a.std() * b.std())
        assert abs(corr) < 0.01


class TestPoisson:
    def test_zero_image_stays_zero(self):
        out = apply_noise(_gray(0.0), NoiseSpec(kind="poisson", poisson_scale=0.1, seed=1))
        assert out.data.max() == 0.0

    def test_negative_pixels_rejected(self):
        img = Tensor.__new__(Tensor)
        img.data = np.full((1, 4, 4), -1.0, dtype=np.float32)
        img.requires_grad = False
        with pytest.raises(InvalidInputError):
            apply_noise(img, NoiseSpec(kind="poisson", poisson_scale=0.1, seed=2))

    def test_variance_law(self):
        # var(Poisson(lam*v)/lam) = v/lam: 100/0.1 = 1000
        spec = NoiseSpec(kind="poisson", poisson_scale=0.1, seed=3)
        field = apply_noise(_gray(100.0, (1, 1000, 1000)), spec).data.astype(np.float64)
        assert abs(field.var() - 1000.0) / 1000.0 < 0.03

    def test_large_scale_converges_to_input(self):
        spec = NoiseSpec(kind="poisson", poisson_scale=1e4, seed=4)
        field = apply_noise(_gray(100.0, (1, 1000, 1000)), spec).data.astype(np.float64)
        assert abs(field.mean() - 100.0) / 100.0 < 0.01
        assert np.abs(field - 100.0).mean() / 100.0 < 0.01

    def test_same_seed_bit_identical(self):
        spec = NoiseSpec(kind="poisson", poisson_scale=0.1, seed=5)
        a = apply_noise(_gray(90.0), spec)
        b = apply_noise(_gray(90.0), spec)
        assert a.data.tobytes() == b.data.tobytes()

    def test_output_clamped(self):
        out = apply_noise(_gray(200.0), NoiseSpec(kind="poisson", poisson_scale=0.05, seed=6))
        assert out.data.min() >= 0.0 and out.data.max() <= 255.0


class TestApplyNoise:
    @pytest.mark.parametrize("kind", ["gaussian", "poisson"])
    def test_bit_exact(self, kind):
        # pixels over the whole range, so the clamp binds at both ends
        image = np.random.default_rng(9).uniform(0.0, 255.0, size=(1, 24, 20)).astype(np.float32)
        spec = NoiseSpec(kind=kind, sigma=60.0, poisson_scale=0.05, seed=11)
        pixels = image.astype(np.float64)
        if kind == "gaussian":
            noisy = pixels + Rng(11).gaussian(image.size, 60.0).reshape(image.shape)
        else:
            noisy = Rng(11).poisson(pixels * 0.05) / 0.05
        expected = np.clip(noisy, 0.0, 255.0).astype(np.float32)
        out = apply_noise(Tensor(image), spec).data
        assert out.dtype == np.float32
        assert out.tobytes() == expected.tobytes()
        assert (out == 0.0).any() and (out == 255.0).any()

    def test_dispatch(self):
        img = _gray(100.0, (1, 16, 16))
        g = apply_noise(img, NoiseSpec(kind="gaussian", sigma=10.0, seed=1))
        p = apply_noise(img, NoiseSpec(kind="poisson", poisson_scale=0.1, seed=1))
        assert g.shape == img.shape and p.shape == img.shape
        assert g.data.tobytes() != p.data.tobytes()

    def test_outputs_always_in_range(self):
        for seed in range(5):
            out = apply_noise(_gray(128.0), NoiseSpec(kind="gaussian", sigma=150.0, seed=seed))
            assert out.data.min() >= 0.0 and out.data.max() <= 255.0
