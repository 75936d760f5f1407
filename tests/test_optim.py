"""Adam update math; the learning-rate schedule of train is tested in test_training."""

import numpy as np
import pytest

from noisebench import Adam
from noisebench.errors import NumericError
from noisebench.layers import Param


def make_param(value, grad):
    value = np.asarray(value, dtype=np.float64)
    return Param("p", value, np.asarray(grad, dtype=np.float64))


class TestAdam:
    def test_zero_gradient_is_a_fixed_point(self):
        p = make_param([1.0, -2.0, 3.0], [0.0, 0.0, 0.0])
        Adam([p], learning_rate=0.001).step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0, 3.0])

    def test_first_step_with_unit_gradient(self):
        # Hand-evaluated recurrence: m_hat = g, v_hat = g^2, so the first
        # update is -lr * g / (|g| + eps), a step of almost exactly lr.
        p = make_param([0.0], [1.0])
        Adam([p], learning_rate=0.001).step()
        expected = -0.001 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.value, [expected], rtol=1e-12)

    def test_matches_reference_recurrence_over_steps(self):
        rng = np.random.default_rng(0)
        p = make_param(rng.standard_normal(4), np.zeros(4))
        opt = Adam([p], learning_rate=0.01)
        ref = p.value.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            g = rng.standard_normal(4)
            p.grad[...] = g
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(p.value, ref, rtol=1e-12)

    def test_deterministic_given_state(self):
        results = []
        for _ in range(2):
            p = make_param([1.0, 2.0], [0.3, -0.7])
            opt = Adam([p], learning_rate=0.05)
            opt.step()
            p.grad[...] = [0.3, -0.7]
            opt.step()
            results.append(p.value.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_non_finite_gradient_names_the_parameter(self):
        p = make_param([1.0], [np.nan])
        with pytest.raises(NumericError, match="'p'"):
            Adam([p]).step()

