"""Block-DCT: orthonormality, brute-force equality, spectrum properties."""

import math

import numpy as np
import pytest

from taskdenoise import autodiff as ad
from taskdenoise.autodiff import Tensor
from taskdenoise.dct import (
    _DCT,
    block_coefficients,
    export_heatmap,
    frequency_gradient,
    spectrum_sd,
    sum_head,
)
from taskdenoise.errors import InvalidShapeError


def brute_force_dct(block):
    """O(N^4) direct basis projection with explicit cosine sums."""
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            cu = math.sqrt(1 / 8) if u == 0 else math.sqrt(2 / 8)
            cv = math.sqrt(1 / 8) if v == 0 else math.sqrt(2 / 8)
            acc = 0.0
            for x in range(8):
                for y in range(8):
                    acc += (
                        block[x, y]
                        * math.cos(math.pi * (2 * x + 1) * u / 16)
                        * math.cos(math.pi * (2 * y + 1) * v / 16)
                    )
            out[u, v] = cu * cv * acc
    return out


def blocks_of(image):
    """The 8x8 blocks of an image whose extents are multiples of 8, row-major."""
    m, n = image.shape
    return [image[i : i + 8, j : j + 8] for i in range(0, m, 8) for j in range(0, n, 8)]


class TestDct8:
    def test_constant_block_dc_only(self):
        coeffs = block_coefficients(np.full((8, 16), 3.0))
        assert coeffs.shape == (2, 8, 8)
        np.testing.assert_allclose(coeffs[:, 0, 0], 24.0, atol=1e-9)  # 8 * v
        rest = coeffs.copy()
        rest[:, 0, 0] = 0.0
        assert np.abs(rest).max() < 1e-6

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            image = rng.normal(size=(16, 24)) * 100
            for block, coeffs in zip(blocks_of(image), block_coefficients(image)):
                assert np.abs(_DCT.T @ coeffs @ _DCT - block).max() < 1e-4

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for shape in [(8, 8), (16, 24)]:
            image = rng.normal(size=shape) * 50
            expected = np.stack([brute_force_dct(block) for block in blocks_of(image)])
            np.testing.assert_allclose(block_coefficients(image), expected, atol=1e-5)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        for shape in [(8, 8), (24, 16)]:
            image = rng.normal(size=shape) * 10
            coeffs = block_coefficients(image)
            assert abs((coeffs**2).sum() - (image**2).sum()) / (image**2).sum() < 1e-5

    def test_orthonormal_basis_gram_identity(self):
        basis = np.einsum("ix,jy->ijxy", _DCT, _DCT).reshape(64, 64)
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(64)).max() < 1e-6
        # the (i, j) basis image has the single coefficient (i, j)
        coeffs = np.concatenate([block_coefficients(b.reshape(8, 8)) for b in basis]).reshape(64, 64)
        assert np.abs(coeffs - np.eye(64)).max() < 1e-6

    def test_wrong_shape_raises(self):
        with pytest.raises(InvalidShapeError):
            block_coefficients(np.zeros((2, 8, 8)))
        with pytest.raises(InvalidShapeError):
            block_coefficients(np.zeros(8))


class TestSpectrum:
    def test_constant_image_all_zero(self):
        img = np.full((64, 64), 9.0)
        assert len(block_coefficients(img)) == 64
        # identical blocks: residual is pure float rounding of the block mean
        assert np.abs(spectrum_sd(img)).max() < 1e-12

    def test_iid_gaussian_preserves_sd(self):
        rng = np.random.default_rng(3)
        sigma = 2.5
        img = rng.normal(0, sigma, size=(512, 512))
        sd = spectrum_sd(img)
        assert np.abs(sd - sigma).max() / sigma < 0.05

    def test_lowpass_reduces_high_frequencies(self):
        rng = np.random.default_rng(4)
        img = rng.normal(0, 10, size=(128, 128))
        kernel = np.ones((3, 3)) / 9.0
        smooth = np.zeros_like(img)
        padded = np.pad(img, 1, mode="edge")
        for i in range(3):
            for j in range(3):
                smooth += kernel[i, j] * padded[i : i + 128, j : j + 128]
        raw = spectrum_sd(img)
        low = spectrum_sd(smooth)
        outside_low_block = ~((np.arange(8)[:, None] < 2) & (np.arange(8)[None, :] < 2))
        assert np.all(low[outside_low_block] < raw[outside_low_block])

    def test_offset_invariance(self):
        rng = np.random.default_rng(5)
        img = rng.normal(50, 5, size=(64, 64))
        a = spectrum_sd(img)
        b = spectrum_sd(img + 37.0)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_linear_scaling(self):
        rng = np.random.default_rng(6)
        img = rng.normal(0, 5, size=(64, 64))
        a = spectrum_sd(img)
        b = spectrum_sd(3.0 * img)
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-10)

    def test_edge_replication_padding(self):
        img = np.ones((10, 12))  # not multiples of 8
        assert len(block_coefficients(img)) == 4
        assert np.abs(spectrum_sd(img)).max() == 0.0  # constant stays constant under edge padding


class TestFrequencyGradient:
    def test_zero_gradient_model_gives_zero_grid(self):
        rng = np.random.default_rng(7)
        img = rng.normal(100, 10, size=(16, 16))

        def constant_head(x: Tensor) -> Tensor:
            return ad.mse_loss(ad.sub(x, x), Tensor(np.zeros(x.shape, np.float32)))

        grid = frequency_gradient(constant_head, img)
        np.testing.assert_array_equal(grid, np.zeros((8, 8)))

    def test_sum_of_pixels_head_gives_mean_abs_coefficient(self):
        rng = np.random.default_rng(8)
        img = rng.normal(100, 25, size=(32, 32))

        def head(x: Tensor) -> Tensor:
            return ad.tsum(x)

        grid = frequency_gradient(head, img)
        expected = np.abs(block_coefficients(img)).mean(axis=0)
        np.testing.assert_allclose(grid, expected, rtol=1e-5)

    def test_matches_pixelwise_fd_oracle_single_block(self):
        # estimate the pixel gradient by central differences, then apply the
        # same coefficient weighting; compare grids
        rng = np.random.default_rng(9)
        img = rng.normal(0, 1, size=(8, 8))
        w = rng.normal(size=(1, 8, 8))

        def head(x: Tensor) -> Tensor:
            return ad.mse_loss(x, Tensor(w))

        grid = frequency_gradient(head, img)

        def scalar(image2d) -> float:
            t = Tensor(image2d[None].astype(np.float32))
            return head(t).item()

        h = 1e-3
        fd_grad = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                plus = img.copy()
                plus[i, j] += h
                minus = img.copy()
                minus[i, j] -= h
                fd_grad[i, j] = (scalar(plus) - scalar(minus)) / (2 * h)
        coeffs = block_coefficients(img)[0]
        expected = np.abs(coeffs) * np.abs(fd_grad).mean()
        assert np.abs(grid - expected).max() / np.abs(expected).max() < 1e-2

    def test_model_head_end_to_end(self):
        from taskdenoise.networks import NetworkSpec, build_network

        model = build_network(NetworkSpec(kind="redcnn", base_channels=2, seed=3))
        rng = np.random.default_rng(10)
        img = rng.normal(100, 20, size=(16, 16))
        grid = frequency_gradient(sum_head(model), img)
        assert grid.shape == (8, 8)
        assert np.all(np.isfinite(grid)) and grid.max() > 0


class TestExport:
    def test_csv_and_pgm(self, tmp_path):
        rng = np.random.default_rng(11)
        sd = spectrum_sd(rng.normal(0, 3, size=(32, 32)))
        csv_path, pgm_path = export_heatmap(sd, tmp_path / "spec")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 65
        assert pgm_path.read_bytes().startswith(b"P5\n8 8\n255\n")

    def test_deterministic_bytes(self, tmp_path):
        img = np.random.default_rng(12).normal(0, 3, size=(16, 16))
        export_heatmap(spectrum_sd(img), tmp_path / "a")
        export_heatmap(spectrum_sd(img), tmp_path / "b")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
