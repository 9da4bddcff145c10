"""Sliding-window preference estimation and its error envelope."""

import math

import numpy as np
import pytest

from driftpref.config import RunConfig
from driftpref.errors import ConfigError, ContractError, ConvergenceError
from driftpref.estimator import (
    WindowBuffer,
    estimation_error_rhs,
    fit_logistic_window,
    min_curvature_constant,
    window_size,
)
from driftpref.numerics import sigmoid, softplus


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def fill_preference_buffer(rng, n, d, theta_star, capacity=None):
    """Difference-feature rows with Bradley-Terry labels at theta_star."""
    buf = WindowBuffer(capacity=capacity or n, dim=d)
    rows = np.empty((n, d))
    labels = np.empty(n)
    for i in range(n):
        rows[i] = unit(rng, d) - unit(rng, d)
        labels[i] = float(rng.random() < sigmoid(rows[i] @ theta_star))
        buf.push(rows[i], labels[i])
    return buf, rows, labels


def gd_logistic_oracle(X, p, lam, tol=1e-9, max_iter=500_000):
    """Fixed-step gradient descent at the inverse smoothness constant."""
    theta = np.zeros(X.shape[1])
    step = 1.0 / (0.25 * float(np.sum(X * X)) + lam)
    for _ in range(max_iter):
        grad = X.T @ (sigmoid(X @ theta) - p) + lam * theta
        if np.linalg.norm(grad) < tol:
            break
        theta = theta - step * grad
    return theta


def min_eig_bisect(A, tol=1e-12):
    """Smallest eigenvalue of a symmetric PSD matrix via Cholesky bisection."""
    lo, hi = 0.0, float(np.min(np.diag(A)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            np.linalg.cholesky(A - mid * np.eye(A.shape[0]))
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
        if hi - lo < tol:
            break
    return lo


class TestWindowBuffer:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WindowBuffer(capacity=0, dim=3)
        with pytest.raises(ConfigError):
            WindowBuffer(capacity=5, dim=0)

    def test_push_shape_mismatch(self):
        buf = WindowBuffer(capacity=3, dim=2)
        with pytest.raises(ContractError):
            buf.push(np.zeros(3), 1.0)

    def test_eviction_keeps_last_capacity_entries_in_order(self):
        W, k, d = 8, 5, 2
        buf = WindowBuffer(capacity=W, dim=d)
        rows = [np.array([float(i), -float(i)]) for i in range(W + k)]
        for i, row in enumerate(rows):
            buf.push(row, float(i % 2))
        assert len(buf) == W
        expect = np.stack(rows[k:])
        assert np.array_equal(buf.features, expect)
        assert np.array_equal(buf.labels, np.array([float(i % 2) for i in range(k, W + k)]))

    def test_partial_fill(self):
        buf = WindowBuffer(capacity=10, dim=1)
        buf.push(np.array([2.0]), 1.0)
        assert len(buf) == 1
        assert buf.features.shape == (1, 1)


class TestWindowSize:
    def test_two_thirds_rule(self):
        assert window_size(2000, 2.0 / 3.0) == math.ceil(2000 ** (2.0 / 3.0))

    def test_floor_of_one(self):
        assert window_size(1, 0.5) == 1

    def test_full_horizon_at_kappa_one(self):
        assert window_size(500, 1.0) == 500

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            window_size(0, 0.5)
        with pytest.raises(ConfigError):
            window_size(10, 0.0)
        with pytest.raises(ConfigError):
            window_size(10, 1.5)


class TestWindowCovariance:
    """The regularized Gram matrix A and its lambda_min, as the window fit reports."""

    def test_empty_buffer_is_lam_identity(self):
        buf = WindowBuffer(capacity=4, dim=3)
        est = fit_logistic_window(buf, lam=0.7)
        assert np.array_equal(est.A, 0.7 * np.eye(3))
        assert abs(est.lambda_min - 0.7) < 1e-12

    def test_single_axis_entry(self):
        buf = WindowBuffer(capacity=4, dim=3)
        buf.push(np.array([1.0, 0.0, 0.0]), 1.0)
        est = fit_logistic_window(buf, lam=1.0)
        assert np.array_equal(est.A, np.diag([2.0, 1.0, 1.0]))
        assert abs(est.lambda_min - 1.0) < 1e-12

    def test_lambda_min_matches_bisection_oracle(self):
        rng = np.random.default_rng(20)
        buf = WindowBuffer(capacity=50, dim=5)
        for _ in range(50):
            buf.push(unit(rng, 5), float(rng.random() < 0.5))
        est = fit_logistic_window(buf, lam=0.3)
        assert abs(est.lambda_min - min_eig_bisect(est.A)) < 1e-8

    def test_bad_lam(self):
        with pytest.raises(ConfigError):
            fit_logistic_window(WindowBuffer(capacity=2, dim=2), lam=0.0)


class TestFitLogisticWindow:
    def test_empty_buffer_gives_zero(self):
        buf = WindowBuffer(capacity=5, dim=3)
        est = fit_logistic_window(buf, lam=0.2)
        assert np.array_equal(est.theta_hat, np.zeros(3))
        assert np.array_equal(est.A, 0.2 * np.eye(3))
        assert est.converged
        assert est.n_obs == 0

    def test_matches_slow_gradient_descent_oracle(self):
        rng = np.random.default_rng(21)
        theta_star = unit(rng, 4)
        buf, X, p = fill_preference_buffer(rng, 200, 4, theta_star)
        est = fit_logistic_window(buf, lam=0.1)
        oracle = gd_logistic_oracle(X, p, 0.1)
        assert np.linalg.norm(est.theta_hat - oracle) < 1e-6
        assert est.converged
        assert est.grad_norm <= 1e-8

    def test_local_minimality_against_random_perturbations(self):
        rng = np.random.default_rng(22)
        theta_star = unit(rng, 5)
        buf, X, p = fill_preference_buffer(rng, 120, 5, theta_star)
        lam = 0.5
        est = fit_logistic_window(buf, lam=lam)

        def obj(theta):
            z = X @ theta
            return float(np.sum(softplus(z) - p * z) + 0.5 * lam * theta @ theta)

        base = obj(est.theta_hat)
        for _ in range(100):
            v = unit(rng, 5)
            assert obj(est.theta_hat + 1e-3 * v) >= base

    def test_warm_start_agrees_with_cold_start(self):
        rng = np.random.default_rng(23)
        theta_star = unit(rng, 3)
        buf, _, _ = fill_preference_buffer(rng, 80, 3, theta_star)
        cold = fit_logistic_window(buf, lam=0.1)
        warm = fit_logistic_window(buf, lam=0.1, theta0=cold.theta_hat + 0.05)
        assert np.linalg.norm(cold.theta_hat - warm.theta_hat) < 1e-6

    def test_label_range_enforced(self):
        buf = WindowBuffer(capacity=2, dim=2)
        buf.push(np.array([1.0, 0.0]), 2.0)
        with pytest.raises(ContractError):
            fit_logistic_window(buf, lam=0.1)

    def test_bad_lam(self):
        with pytest.raises(ConfigError):
            fit_logistic_window(WindowBuffer(capacity=2, dim=2), lam=-1.0)

    def test_convergence_error_carries_iterate(self):
        rng = np.random.default_rng(24)
        buf, _, _ = fill_preference_buffer(rng, 50, 3, unit(rng, 3))
        with pytest.raises(ConvergenceError) as err:
            fit_logistic_window(buf, lam=0.1, max_iter=0)
        assert err.value.iterate.shape == (3,)
        assert err.value.residual > 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        buf, _, _ = fill_preference_buffer(rng, 60, 4, unit(rng, 4))
        a = fit_logistic_window(buf, lam=0.3)
        b = fit_logistic_window(buf, lam=0.3)
        assert np.array_equal(a.theta_hat, b.theta_hat)


class TestRidgeFit:
    """The reward bandit solves its windowed ridge fit inline; its weight is checked up front."""

    def test_bad_lam(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="reward-bandit", lambda_reg=0.0)


class TestErrorBoundArithmetic:
    def test_min_curvature_hand_value(self):
        s = 1.0 / (1.0 + math.exp(-2.0))
        assert abs(min_curvature_constant() - s * (1.0 - s)) < 1e-15
        s_half = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(min_curvature_constant(0.5, 1.0) - s_half * (1.0 - s_half)) < 1e-15

    def test_hand_oracle(self):
        # independent transcription of the three-term bound
        W, lam, d, delta = 100, 0.1, 5, 0.05
        s1 = 1.0 / (1.0 + math.exp(-1.0))
        m0 = s1 * (1.0 - s1)
        c = 0.2
        v = 0.01
        drift = 1.0 * 0.25 * v / (m0 * c)
        log_term = (d / 2.0) * math.log(1.0 + W / (d * lam)) + math.log(1.0 / delta)
        noise = math.sqrt(lam + W) / (m0 * c * W) * math.sqrt(2.0 * log_term)
        reg = lam * 1.0 / (m0 * c * W)
        got = estimation_error_rhs(v, W, lam, d, delta, m0, c)
        assert abs(got - (drift + noise + reg)) < 1e-10

    def test_doubling_lam_doubles_reg_term_exactly(self):
        m0, c, W, d, delta = 0.2, 0.3, 50, 4, 0.1

        def noise(lam):
            log_term = (d / 2.0) * math.log(1.0 + W / (d * lam)) + math.log(1.0 / delta)
            return math.sqrt(lam + W) / (m0 * c * W) * math.sqrt(2.0 * log_term)

        lam = 0.2
        reg_1 = estimation_error_rhs(0.0, W, lam, d, delta, m0, c) - noise(lam)
        reg_2 = estimation_error_rhs(0.0, W, 2 * lam, d, delta, m0, c) - noise(2 * lam)
        assert abs(reg_2 - 2.0 * reg_1) < 1e-12

    def test_doubling_window_shrinks_noise_and_reg(self):
        # with v_window = 0 only terms two and three remain
        for W in (10, 50, 200):
            a = estimation_error_rhs(0.0, W, 0.1, 5, 0.05, 0.2, 0.2)
            b = estimation_error_rhs(0.0, 2 * W, 0.1, 5, 0.05, 0.2, 0.2)
            assert b < a

    def test_drift_term_linear_in_v(self):
        base = estimation_error_rhs(0.0, 100, 0.1, 5, 0.05, 0.2, 0.2)
        one = estimation_error_rhs(0.5, 100, 0.1, 5, 0.05, 0.2, 0.2)
        two = estimation_error_rhs(1.0, 100, 0.1, 5, 0.05, 0.2, 0.2)
        assert abs((two - base) - 2.0 * (one - base)) < 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            estimation_error_rhs(0.0, 0, 0.1, 5, 0.05, 0.2, 0.2)
        with pytest.raises(ConfigError):
            estimation_error_rhs(0.0, 10, 0.1, 5, 1.5, 0.2, 0.2)
        with pytest.raises(ConfigError):
            estimation_error_rhs(-0.1, 10, 0.1, 5, 0.05, 0.2, 0.2)
        with pytest.raises(ConfigError):
            estimation_error_rhs(0.0, 10, 0.1, 5, 0.05, 0.0, 0.2)
