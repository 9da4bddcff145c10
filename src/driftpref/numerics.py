"""Numerically stable scalar helpers and the package's one logistic solver."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError


def sigmoid(z):
    """Logistic function, stable for large |z|: 1/(1 + e) or e/(1 + e), e = exp(-|z|)."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def softplus(z):
    """log(1 + e^z) without overflow."""
    z = np.asarray(z, dtype=float)
    out = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    if out.ndim == 0:
        return float(out)
    return out


def log_sigmoid(z):
    """log(sigmoid(z)) = -softplus(-z)."""
    return -softplus(-np.asarray(z, dtype=float))


# Stopping rule of the logistic solver: gradient norm and Newton-step budget.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 500


def _logistic_eval(theta, X, p, lam):
    """(objective, sigmoid(z)) at theta, from one z = X @ theta and one exp(-|z|)."""
    z = X @ theta
    e = np.exp(-np.abs(z))  # softplus(z) = max(z, 0) + log1p(e), as in softplus
    obj = float(np.sum(np.maximum(z, 0.0) + np.log1p(e) - p * z) + 0.5 * lam * theta @ theta)
    return obj, np.where(z >= 0, 1.0, e) / (1.0 + e)


def newton_logistic(X, p, lam, name, theta0=None):
    """Minimize sum(softplus(X @ theta) - p * (X @ theta)) + lam/2 |theta|^2.

    Damped Newton with Armijo backtracking and a gradient-step fallback. The
    problem is strictly convex for lam > 0, so the minimizer is unique and
    the solve is deterministic. One X @ theta per iterate gives its objective
    and sigmoid; the accepted Armijo candidate (or the gradient step) carries
    both into the next Newton step. Returns (theta, residual gradient norm).
    Raises ConvergenceError, with name in its message, if the gradient norm
    has not reached NEWTON_TOL within NEWTON_MAX_ITER Newton steps.
    """
    d = X.shape[1]
    theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    ridge = lam * np.eye(d)
    obj, s = _logistic_eval(theta, X, p, lam)
    for newton_step in range(NEWTON_MAX_ITER + 1):
        grad = X.T @ (s - p) + lam * theta
        grad_norm = math.sqrt(grad.dot(grad))  # the bits of np.linalg.norm
        if grad_norm <= NEWTON_TOL:
            return theta, grad_norm
        if newton_step == NEWTON_MAX_ITER:
            raise ConvergenceError(f"{name} did not converge", theta, grad_norm)
        w = s * (1.0 - s)
        hess = (X * w[:, None]).T @ X + ridge
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        if grad @ direction >= 0.0:  # not a descent direction; fall back
            direction = -grad
        # Armijo backtracking on the damped step. The absolute slack keeps
        # the search from stalling when the attainable decrease (~grad^2)
        # falls below float rounding at the objective's scale; Newton's
        # quadratic contraction then finishes the last digits.
        step = 1.0
        slope = float(grad @ direction)
        slack = 1e-12 * max(1.0, abs(obj))
        for _ in range(60):
            cand = theta + step * direction
            cand_obj, cand_s = _logistic_eval(cand, X, p, lam)
            if cand_obj <= obj + 1e-4 * step * slope + slack:
                theta, obj, s = cand, cand_obj, cand_s
                break
            step *= 0.5
        else:
            step = 1.0 / (0.25 * float(np.sum(X * X)) + lam)  # inverse smoothness
            theta = theta - step * grad
            obj, s = _logistic_eval(theta, X, p, lam)
