"""Sliding-window preference estimation and its error envelope."""

import math

import numpy as np
import pytest

from driftpref.config import RunConfig
from driftpref.errors import ConfigError, ContractError, ConvergenceError
from driftpref.estimator import (
    estimation_error_rhs,
    fit_logistic_window,
    min_curvature_constant,
    window_size,
)
from driftpref.numerics import sigmoid
from driftpref.prefloop import run_preference_loop
from oracles import softplus


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def preference_rows(rng, n, d, theta_star):
    """Difference-feature rows with Bradley-Terry labels at theta_star."""
    rows = np.empty((n, d))
    labels = np.empty(n)
    for i in range(n):
        rows[i] = unit(rng, d) - unit(rng, d)
        labels[i] = float(rng.random() < sigmoid(rows[i] @ theta_star))
    return rows, labels


def no_newton(*args, **kwargs):
    """Stands in for the solver where a check must raise before any Newton step."""
    raise AssertionError("newton_logistic was called")


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


class TestWindowBuffer:
    """The estimation window: the last min(t, W) rows of a preference run,
    oldest first, as step t passes them to fit_logistic_window."""

    @staticmethod
    def record_fits(monkeypatch):
        import driftpref.prefloop as prefloop

        fits = []
        fit_window = prefloop.fit_logistic_window

        def recording_fit(X, p, lam, theta0=None):
            fits.append((X.copy(), p.copy()))
            return fit_window(X, p, lam, theta0)

        monkeypatch.setattr(prefloop, "fit_logistic_window", recording_fit)
        cfg = RunConfig(
            mode="evodpo", K=5, d=5, H=60, phase_length=20, gate_size=32,
            drift_mode="sphere-walk", delta_min=0.05, delta_max=0.2, V_T=1e9,
        )
        run_preference_loop(cfg, seed=0)
        return fits, window_size(cfg.H, cfg.kappa)

    def test_eviction_keeps_last_capacity_entries_in_order(self, monkeypatch):
        # each fit's rows are the previous fit's rows, less the oldest once W
        # are held, plus the newest
        fits, W = self.record_fits(monkeypatch)
        assert len(fits) == 59 and W < 59
        for (X0, p0), (X1, p1) in zip(fits, fits[1:]):
            drop = 1 if len(X0) == W else 0
            assert np.array_equal(X1[:-1], X0[drop:])
            assert np.array_equal(p1[:-1], p0[drop:])

    def test_partial_fill(self, monkeypatch):
        fits, W = self.record_fits(monkeypatch)
        for t, (X, p) in enumerate(fits, start=1):
            assert X.shape == (min(t, W), 5) and p.shape == (min(t, W),)
            assert set(np.unique(p)) <= {0.0, 1.0}


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
    """lam > 0 keeps the window's Gram matrix lam * I + X^T X invertible."""

    def test_bad_lam(self):
        with pytest.raises(ConfigError):
            fit_logistic_window(np.zeros((2, 2)), np.zeros(2), lam=0.0)


class TestFitLogisticWindow:
    def test_empty_buffer_gives_zero(self):
        theta_hat, grad_norm = fit_logistic_window(np.zeros((0, 3)), np.zeros(0), lam=0.2)
        assert np.array_equal(theta_hat, np.zeros(3))
        assert grad_norm == 0.0

    def test_matches_slow_gradient_descent_oracle(self):
        rng = np.random.default_rng(21)
        theta_star = unit(rng, 4)
        X, p = preference_rows(rng, 200, 4, theta_star)
        theta_hat, grad_norm = fit_logistic_window(X, p, lam=0.1)
        oracle = gd_logistic_oracle(X, p, 0.1)
        assert np.linalg.norm(theta_hat - oracle) < 1e-6
        assert grad_norm <= 1e-8

    def test_local_minimality_against_random_perturbations(self):
        rng = np.random.default_rng(22)
        theta_star = unit(rng, 5)
        X, p = preference_rows(rng, 120, 5, theta_star)
        lam = 0.5
        theta_hat, _ = fit_logistic_window(X, p, lam=lam)

        def obj(theta):
            z = X @ theta
            return float(np.sum(softplus(z) - p * z) + 0.5 * lam * theta @ theta)

        base = obj(theta_hat)
        for _ in range(100):
            v = unit(rng, 5)
            assert obj(theta_hat + 1e-3 * v) >= base

    def test_warm_start_agrees_with_cold_start(self):
        rng = np.random.default_rng(23)
        theta_star = unit(rng, 3)
        X, p = preference_rows(rng, 80, 3, theta_star)
        cold, _ = fit_logistic_window(X, p, lam=0.1)
        warm, _ = fit_logistic_window(X, p, lam=0.1, theta0=cold + 0.05)
        assert np.linalg.norm(cold - warm) < 1e-6

    def test_label_range_enforced(self):
        with pytest.raises(ContractError):
            fit_logistic_window(np.array([[1.0, 0.0]]), np.array([2.0]), lam=0.1)

    def test_nan_label_raises_before_any_newton_step(self, monkeypatch):
        # a nan passes a (p < 0) | (p > 1) test; without the check, one nan in
        # a window ran Newton steps until a ConvergenceError with a nan residual
        monkeypatch.setattr("driftpref.estimator.newton_logistic", no_newton)
        rng = np.random.default_rng(27)
        X, p = preference_rows(rng, 50, 3, unit(rng, 3))
        p[17] = np.nan
        with pytest.raises(ContractError, match="labels"):
            fit_logistic_window(X, p, lam=0.1)
        stack = [preference_rows(rng, 50, 3, unit(rng, 3)) for _ in range(3)]
        Xs, ps = np.stack([x for x, _ in stack]), np.stack([q for _, q in stack])
        ps[1, 0] = np.nan  # one member's oldest row
        with pytest.raises(ContractError, match="labels"):
            fit_logistic_window(Xs, ps, lam=0.1)

    def test_start_of_the_wrong_shape_rejected(self, monkeypatch):
        monkeypatch.setattr("driftpref.estimator.newton_logistic", no_newton)
        rng = np.random.default_rng(28)
        X, p = preference_rows(rng, 20, 3, unit(rng, 3))
        for theta0 in (np.zeros(2), np.zeros(4), np.zeros((1, 3)), [0.0, 0.0]):
            with pytest.raises(ContractError, match="theta0"):
                fit_logistic_window(X, p, lam=0.1, theta0=theta0)
        Xs, ps = np.stack([X, X]), np.stack([p, p])
        for theta0 in (np.zeros(3), np.zeros((2, 4)), np.zeros((3, 3))):
            with pytest.raises(ContractError, match="theta0"):
                fit_logistic_window(Xs, ps, lam=0.1, theta0=theta0)

    def test_shape_contract(self):
        with pytest.raises(ContractError):
            fit_logistic_window(np.zeros(3), np.zeros(3), lam=0.1)
        with pytest.raises(ContractError):
            fit_logistic_window(np.zeros((3, 2)), np.zeros(2), lam=0.1)
        with pytest.raises(ContractError):
            fit_logistic_window(np.zeros((3, 2)), np.zeros((3, 1)), lam=0.1)

    def test_bad_lam(self):
        with pytest.raises(ConfigError):
            fit_logistic_window(np.zeros((2, 2)), np.zeros(2), lam=-1.0)

    def test_convergence_error_carries_iterate(self, monkeypatch):
        rng = np.random.default_rng(24)
        X, p = preference_rows(rng, 50, 3, unit(rng, 3))
        monkeypatch.setattr("driftpref.numerics.NEWTON_MAX_ITER", 0)
        with pytest.raises(ConvergenceError, match="^window logistic fit") as err:
            fit_logistic_window(X, p, lam=0.1)
        assert err.value.iterate.shape == (3,)
        assert err.value.residual > 0.0

    def test_stack_fits_each_window_as_its_own_fit(self):
        rng = np.random.default_rng(26)
        theta_star = unit(rng, 4)
        rows = [preference_rows(rng, 90, 4, theta_star) for _ in range(3)]
        X, p = np.stack([x for x, _ in rows]), np.stack([q for _, q in rows])
        starts = rng.standard_normal((3, 4))
        thetas, norms = fit_logistic_window(X, p, lam=0.2, theta0=starts)
        for i in range(3):
            theta, norm = fit_logistic_window(X[i], p[i], lam=0.2, theta0=starts[i])
            assert thetas[i].tobytes() == theta.tobytes() and norms[i] == norm
        empty, zero = fit_logistic_window(np.zeros((2, 0, 4)), np.zeros((2, 0)), lam=0.2)
        assert np.array_equal(empty, np.zeros((2, 4))) and np.array_equal(zero, np.zeros(2))
        with pytest.raises(ContractError):
            fit_logistic_window(X, p[:, :-1], lam=0.2)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        X, p = preference_rows(rng, 60, 4, unit(rng, 4))
        a, _ = fit_logistic_window(X, p, lam=0.3)
        b, _ = fit_logistic_window(X, p, lam=0.3)
        assert np.array_equal(a, b)


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
