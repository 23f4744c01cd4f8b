"""Determinism and distribution checks for the repo RNG."""

import hashlib

import numpy as np
import pytest

from taskdenoise.rng import Rng, derive_seed


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = Rng(123), Rng(123)
        np.testing.assert_array_equal(a.next_u64(1000), b.next_u64(1000))

    def test_chunking_does_not_change_stream(self):
        a, b = Rng(9), Rng(9)
        whole = a.uniform(100)
        parts = np.concatenate([b.uniform(37), b.uniform(63)])
        np.testing.assert_array_equal(whole, parts)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).next_u64(10), Rng(2).next_u64(10))

    def test_gaussian_bit_identical(self):
        assert Rng(7).gaussian(101).tobytes() == Rng(7).gaussian(101).tobytes()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "noise/train") == derive_seed(42, "noise/train")

    def test_label_sensitivity(self):
        labels = ["a", "b", "noise/train/0", "noise/train/1", ""]
        seeds = {derive_seed(42, lab) for lab in labels}
        assert len(seeds) == len(labels)

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    @pytest.mark.parametrize(
        "seed, label, expected",
        [
            (0, "", 12591593934349417548),
            (0, "train/0", 1212775507306655996),
            (42, "noise/train/17", 12120126025573102611),
            (7, "shuffle", 8771885833247189568),
            # seeds outside [0, 2**64) wrap modulo 2**64
            (2**64 - 1, "x", 12262943197959972338),
            (-1, "x", 12262943197959972338),
            (2**70 + 3, "test/3", 13827947175833814597),
        ],
    )
    def test_pinned_values(self, seed, label, expected):
        # every dataset sample, noise draw and shuffle order hangs off these
        assert derive_seed(seed, label) == expected


class TestUniform:
    def test_range(self):
        u = Rng(5).uniform(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_mean(self):
        u = Rng(6).uniform(100_000)
        se = 1.0 / np.sqrt(12 * u.size)
        assert abs(u.mean() - 0.5) < 4 * se

    def test_open_interval_never_zero(self):
        u = Rng(7).uniform_open(100_000)
        assert u.min() > 0.0 and u.max() <= 1.0


class TestGaussian:
    def test_moments(self):
        z = Rng(8).gaussian(100_000, sigma=3.0)
        n = z.size
        assert abs(z.mean()) < 4 * 3.0 / np.sqrt(n)
        assert abs(z.std() - 3.0) < 0.03 * 3.0

    def test_sigma_zero_is_constant(self):
        z = Rng(9).gaussian(1000, sigma=0.0)
        np.testing.assert_array_equal(z, np.zeros(1000))


class TestPoisson:
    def test_zero_mean_gives_zero(self):
        out = Rng(10).poisson(np.zeros(1000))
        assert out.max() == 0

    def test_negative_mean_raises(self):
        with pytest.raises(ValueError):
            Rng(10).poisson(np.array([-1.0]))

    def test_nan_mean_raises(self):
        with pytest.raises(ValueError):
            Rng(1).poisson(np.array([np.nan]))

    @pytest.mark.parametrize("mean", [0.5, 4.0, 12.0, 80.0, 1000.0])
    def test_moments(self, mean):
        n = 60_000
        draws = Rng(int(mean * 10) + 1).poisson(np.full(n, mean)).astype(np.float64)
        assert abs(draws.mean() - mean) < 5 * np.sqrt(mean / n)
        # variance of a Poisson equals its mean; sample variance SE ~ sqrt(2/n)*var
        assert abs(draws.var() - mean) < 6 * mean * np.sqrt(2.0 / n)

    def test_mixed_small_and_large_means_deterministic(self):
        means = np.array([0.3, 50.0, 2.0, 400.0, 7.0])
        a = Rng(11).poisson(means)
        b = Rng(11).poisson(means)
        np.testing.assert_array_equal(a, b)

    # the sha256 of the int64 draws, then the stream position after them
    PINNED = "b6d970849f55a590ce97bcb635016add21121c3804344cd74e1157f494a77c29"

    def test_draws_and_stream_position_are_pinned(self):
        # zeros, fractional means below 30 (Knuth) and means of 30 or more
        # (PTRS), interleaved so that neither branch's lanes are contiguous:
        # the hash changes if a lane gets another uniform or the stream
        # position moves
        means = np.concatenate([np.zeros(8), np.linspace(0.05, 29.95, 40), np.linspace(30.0, 1000.5, 24)])
        means = means[(np.arange(72) * 29) % 72].reshape(8, 9)
        rng = Rng(2024)
        draws = rng.poisson(means)
        assert draws.dtype == np.int64 and draws.shape == (8, 9)
        digest = hashlib.sha256(draws.astype("<i8").tobytes())
        digest.update(np.int64(rng._count).astype("<i8").tobytes())
        assert digest.hexdigest() == self.PINNED


class TestHelpers:
    def test_permutation_is_permutation(self):
        perm = Rng(12).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))

