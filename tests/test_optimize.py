import numpy as np
import pytest

from operon.errors import NonFiniteGradientError
from operon.optimize import BETA1, AdamState, adam_step


def _scalar_state(lr=1e-3):
    params = [np.zeros(1)]
    return params, AdamState.for_params(params, lr=lr)


class TestAdamStep:
    def test_first_step_hand_value(self):
        # theta0 = 0, g = 1: m_hat = 1, v_hat = 1, so
        # theta1 = -lr / (1 + eps) = -9.99999990e-4.
        params, state = _scalar_state()
        adam_step(params, [np.ones(1)], state)
        assert params[0][0] == pytest.approx(-9.9999999e-4, rel=1e-9)

    def test_zero_gradient_leaves_params(self):
        params, state = _scalar_state()
        params[0][0] = 0.7
        adam_step(params, [np.zeros(1)], state)
        assert params[0][0] == 0.7

    def test_second_step_magnitude_about_lr(self):
        params, state = _scalar_state()
        adam_step(params, [np.ones(1)], state)
        before = params[0][0]
        adam_step(params, [np.ones(1)], state)
        delta = abs(params[0][0] - before)
        # bias-corrected ratio stays ~= 1 under a constant gradient
        assert delta == pytest.approx(state.lr, rel=1e-6)

    def test_nan_gradient_aborts(self):
        params, state = _scalar_state()
        with pytest.raises(NonFiniteGradientError):
            adam_step(params, [np.array([np.nan])], state)

    def test_inf_gradient_aborts(self):
        params, state = _scalar_state()
        with pytest.raises(NonFiniteGradientError):
            adam_step(params, [np.array([np.inf])], state)

    @pytest.mark.parametrize("seed", range(4))
    def test_per_step_update_bound(self, seed):
        rng = np.random.default_rng(seed)
        params = [rng.normal(size=(5, 3)), rng.normal(size=4)]
        state = AdamState.for_params(params, lr=1e-3)
        bound = state.lr * (1 + 1e-6) / (1 - BETA1)
        for _ in range(50):
            before = [p.copy() for p in params]
            grads = [
                rng.normal(size=p.shape) * 10.0 ** float(rng.integers(-3, 4))
                for p in params
            ]
            adam_step(params, grads, state)
            for b, p in zip(before, params):
                assert np.max(np.abs(p - b)) <= bound

    def test_quadratic_convergence(self):
        # f(theta) = theta^2 / 2, gradient theta; defaults reach |theta| < 1e-3
        params, state = _scalar_state()
        params[0][0] = 1.0
        for _ in range(5000):
            adam_step(params, [params[0].copy()], state)
            if abs(params[0][0]) < 1e-3:
                break
        assert abs(params[0][0]) < 1e-3

    def test_determinism(self):
        runs = []
        for _ in range(2):
            params, state = _scalar_state()
            rng = np.random.default_rng(0)
            for _ in range(20):
                adam_step(params, [rng.normal(size=1)], state)
            runs.append(params[0][0])
        assert runs[0] == runs[1]

