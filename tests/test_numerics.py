"""Stability contracts for the scalar helpers, and the logistic solver's oracle."""

import math

import numpy as np
import pytest

import driftpref.numerics as numerics
from driftpref.errors import ConvergenceError
from driftpref.numerics import log_sigmoid, newton_logistic, sigmoid, softplus


def masked_sigmoid(z):
    """The sigmoid evaluated branch by branch through boolean masks."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_objective(theta, X, p, lam):
    z = X @ theta
    return float(np.sum(softplus(z) - p * z) + 0.5 * lam * theta @ theta)


def reference_newton(X, p, lam, name, theta0=None, max_iter=500,
                     objective=reference_objective):
    """The two-pass solver: the objective and the sigmoid each from their own
    X @ theta, and np.linalg.norm for the gradient norm.

    This is the loop newton_logistic's one-pass evaluation replaced, kept as
    its oracle: the same theta and grad norm, bit for bit, and the same
    ConvergenceError. objective stands in for the Armijo objective, so a test
    can force rejections in both solvers alike.
    """
    d = X.shape[1]
    theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    obj = objective(theta, X, p, lam)
    for newton_step in range(max_iter + 1):
        s = masked_sigmoid(X @ theta)
        grad = X.T @ (s - p) + lam * theta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= 1e-8:
            return theta, grad_norm
        if newton_step == max_iter:
            raise ConvergenceError(f"{name} did not converge", theta, grad_norm)
        w = s * (1.0 - s)
        hess = (X * w[:, None]).T @ X + lam * np.eye(d)
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        if grad @ direction >= 0.0:
            direction = -grad
        step = 1.0
        slope = float(grad @ direction)
        slack = 1e-12 * max(1.0, abs(obj))
        for _ in range(60):
            cand = theta + step * direction
            cand_obj = objective(cand, X, p, lam)
            if cand_obj <= obj + 1e-4 * step * slope + slack:
                theta, obj = cand, cand_obj
                break
            step *= 0.5
        else:
            step = 1.0 / (0.25 * float(np.sum(X * X)) + lam)
            theta = theta - step * grad
            obj = objective(theta, X, p, lam)


def random_problem(rng):
    """A logistic problem across the shapes, labels and starts the callers use."""
    d = int(rng.integers(1, 9))
    shape = int(rng.integers(4))
    if shape == 0:
        n = 1
    elif shape == 1 and d > 1:
        n = int(rng.integers(1, d))  # fewer rows than features
    else:
        n = int(rng.integers(d, 240))
    X = rng.standard_normal((n, d)) * float(rng.choice([0.1, 1.0, 4.0, 20.0]))
    labels = int(rng.integers(3))
    if labels == 0:
        p = (rng.random(n) < 0.5).astype(float)
    elif labels == 1:
        p = rng.random(n)
    else:
        p = 1.0  # fit_dpo's scalar label
    lam = float(rng.choice([1e-3, 0.1, 2.0]))
    theta0 = None
    if rng.random() < 0.5:
        theta0 = rng.standard_normal(d) * float(rng.choice([0.5, 5.0, 50.0]))
    return X, p, lam, theta0


def outcome(solve):
    """(theta bytes, grad norm) of a solve, or its ConvergenceError's."""
    try:
        theta, grad_norm = solve()
    except ConvergenceError as err:
        return "error", str(err), err.iterate.tobytes(), err.residual
    return "ok", theta.tobytes(), grad_norm


class TestNewtonMatchesReference:
    def test_random_problems(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            X, p, lam, theta0 = random_problem(rng)
            assert outcome(lambda: newton_logistic(X, p, lam, "fit", theta0)) == \
                outcome(lambda: reference_newton(X, p, lam, "fit", theta0))

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_convergence_error_carries_the_same_iterate(self, monkeypatch, max_iter):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITER", max_iter)
        rng = np.random.default_rng(max_iter)
        errors = 0
        for _ in range(40):
            X, p, lam, theta0 = random_problem(rng)
            got = outcome(lambda: newton_logistic(X, p, lam, "fit", theta0))
            assert got == outcome(
                lambda: reference_newton(X, p, lam, "fit", theta0, max_iter=max_iter))
            errors += got[0] == "error"
        assert errors >= 20

    def test_gradient_step_fallback(self, monkeypatch):
        # reject every Armijo candidate of the first Newton step (evaluations
        # 2-61 in both solvers), so each takes the gradient step
        def rejecting(evaluate, calls):
            def wrapped(*args):
                calls.append(None)
                value = evaluate(*args)
                if 2 <= len(calls) <= 61:
                    return (np.inf, value[1]) if isinstance(value, tuple) else np.inf
                return value
            return wrapped

        real_eval = numerics._logistic_eval
        rng = np.random.default_rng(7)
        fallbacks = 0
        for _ in range(100):
            X, p, lam, theta0 = random_problem(rng)
            calls_new, calls_ref = [], []
            monkeypatch.setattr(numerics, "_logistic_eval", rejecting(real_eval, calls_new))
            got = outcome(lambda: newton_logistic(X, p, lam, "fit", theta0))
            assert got == outcome(lambda: reference_newton(
                X, p, lam, "fit", theta0,
                objective=rejecting(reference_objective, calls_ref)))
            assert len(calls_new) == len(calls_ref)
            fallbacks += len(calls_new) > 61
        assert fallbacks >= 90


class TestSigmoid:
    def test_reference_values(self):
        assert sigmoid(0.0) == 0.5
        assert abs(sigmoid(1.0) - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15

    def test_symmetry(self):
        for z in (-3.7, -0.2, 0.9, 12.0):
            assert abs(sigmoid(z) + sigmoid(-z) - 1.0) < 1e-15

    def test_extremes_do_not_overflow(self):
        with np.errstate(over="raise"):
            assert sigmoid(800.0) == 1.0
            assert sigmoid(-800.0) == 0.0

    def test_scalar_in_scalar_out(self):
        assert isinstance(sigmoid(0.3), float)

    def test_vectorized(self):
        z = np.array([-2.0, 0.0, 2.0])
        out = sigmoid(z)
        assert out.shape == (3,)
        assert abs(out[1] - 0.5) < 1e-15

    def test_bit_equal_to_masked_form(self):
        edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf])
        rng = np.random.default_rng(11)
        arrays = [edges] + [rng.standard_normal(int(rng.integers(1, 300))) * scale
                            for scale in (1e-3, 1.0, 30.0, 700.0) for _ in range(25)]
        for z in arrays:
            assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        for z in edges:
            assert np.float64(sigmoid(z)).tobytes() == masked_sigmoid(z).tobytes()

    def test_nan_maps_to_nan(self):
        assert math.isnan(sigmoid(math.nan))
        out = sigmoid(np.array([math.nan, 0.0]))
        assert math.isnan(out[0]) and out[1] == 0.5


class TestSoftplus:
    def test_matches_naive_in_safe_range(self):
        for z in (-5.0, -0.5, 0.0, 0.5, 5.0):
            assert abs(softplus(z) - math.log1p(math.exp(z))) < 1e-12

    def test_large_positive_is_linear(self):
        assert abs(softplus(800.0) - 800.0) < 1e-12

    def test_large_negative_underflows_to_zero(self):
        with np.errstate(over="raise"):
            assert softplus(-800.0) == 0.0

    def test_nonnegative(self):
        z = np.linspace(-40, 40, 401)
        assert np.all(softplus(z) >= 0.0)


class TestLogSigmoid:
    def test_identity_with_softplus(self):
        z = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        assert np.allclose(log_sigmoid(z), -softplus(-z), atol=0.0)

    def test_matches_log_of_sigmoid_in_safe_range(self):
        for z in (-5.0, 0.0, 5.0):
            assert abs(log_sigmoid(z) - math.log(sigmoid(z))) < 1e-12

    def test_deep_negative_tail_is_linear(self):
        # log(sigmoid(z)) ~ z as z -> -inf; the naive form would return -inf
        assert abs(log_sigmoid(-700.0) - (-700.0)) < 1e-12
