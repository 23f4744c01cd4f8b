"""Adam update oracles and Xavier initialization checks."""

import math

import numpy as np
import pytest

from taskdenoise.autodiff import Tensor
from taskdenoise.optim import adam_step, make_adam_state, xavier_uniform_init


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float32))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = _param([1.0, -2.0, 3.0])
        state = make_adam_state([p], lr=1e-3)
        before = p.data.copy()
        adam_step([p], {p: np.zeros(3, np.float32)}, state)
        np.testing.assert_array_equal(p.data, before)
        assert state.step == 1

    def test_missing_gradient_treated_as_zero(self):
        p = _param([1.0])
        state = make_adam_state([p], lr=1e-3)
        adam_step([p], {}, state)
        np.testing.assert_array_equal(p.data, [1.0])

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        p = _param([0.0])
        state = make_adam_state([p], lr=1e-3)
        adam_step([p], {p: np.array([1.0], np.float32)}, state)
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-5)

    def test_two_steps_match_hand_iterated_recurrence(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        grads = [0.7, -0.3]
        theta, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            theta -= lr * mhat / (math.sqrt(vhat) + eps)

        p = _param([0.5])
        state = make_adam_state([p], lr=lr)
        for g in grads:
            adam_step([p], {p: np.array([g], np.float32)}, state)
        assert p.data[0] == pytest.approx(theta, abs=1e-6)

    def test_step_counter_increments(self):
        p = _param([1.0])
        state = make_adam_state([p], lr=1e-3)
        for expected in range(1, 5):
            adam_step([p], {p: np.array([0.1], np.float32)}, state)
            assert state.step == expected

    def test_moments_match_param_shapes(self):
        a, b = _param(np.zeros((2, 3))), _param(np.zeros(4))
        state = make_adam_state([a, b])
        assert state.m[0].shape == (2, 3) and state.v[1].shape == (4,)


class TestXavierUniform:
    def test_bound_holds_for_many_draws(self):
        shape = (100, 10, 10, 10)  # 1e5 values
        t = xavier_uniform_init(shape, seed=1)
        bound = math.sqrt(6.0 / (10 * 100 + 100 * 100))
        assert np.abs(t.data).max() <= bound
        assert np.abs(t.data).max() > 0.99 * bound  # actually fills the range

    def test_sample_mean_near_zero(self):
        shape = (100, 10, 10, 10)
        t = xavier_uniform_init(shape, seed=2)
        bound = math.sqrt(6.0 / (10 * 100 + 100 * 100))
        se = (2 * bound / math.sqrt(12.0)) / math.sqrt(t.size)
        assert abs(float(t.data.mean())) < 3 * se

    def test_same_seed_bit_identical(self):
        a = xavier_uniform_init((4, 3, 3, 3), seed=7)
        b = xavier_uniform_init((4, 3, 3, 3), seed=7)
        assert a.data.tobytes() == b.data.tobytes()
        c = xavier_uniform_init((4, 3, 3, 3), seed=8)
        assert a.data.tobytes() != c.data.tobytes()

    def test_linear_fans(self):
        t = xavier_uniform_init((20, 80), seed=3)
        bound = math.sqrt(6.0 / (80 + 20))
        assert np.abs(t.data).max() <= bound
