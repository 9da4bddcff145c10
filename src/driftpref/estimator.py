"""Sliding-window parameter estimation.

The window is a slice of a run's history: its (feature, label) rows, oldest
to newest, feed a regularized logistic regression for preference data. Each
feature row is the difference between the two compared actions' features and
the label is 1 when the first action won.

The logistic solve is numerics.newton_logistic, the same solver the
preference-loop phase fits use; it fits a stack of windows in one solve.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import newton_logistic, sigmoid

# Lipschitz constant of the logistic derivative; fixed, not a parameter.
SIGMOID_DERIV_LIPSCHITZ = 0.25


def window_size(horizon: int, kappa: float) -> int:
    """Window length ceil(horizon^kappa), at least 1."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < kappa <= 1.0:
        raise ConfigError(f"kappa must lie in (0, 1], got {kappa}")
    return max(1, math.ceil(horizon**kappa))


def fit_logistic_window(
    X: np.ndarray, p: np.ndarray, lam: float, theta0: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Minimize the regularized preference log-loss over the window's rows.

    X is (n, d), oldest row first, or a stack (B, n, d) of windows; p holds
    one label in [0, 1] per row, and theta0 one start per window. Zero rows
    yield the zero estimate. Returns (theta_hat, residual gradient norm),
    stacked as X is. Raises ContractError for a nan label, one outside [0, 1]
    or a start of the wrong shape; ConvergenceError if a solve does not converge.
    """
    if lam <= 0.0:
        raise ConfigError(f"lam must be positive, got {lam}")
    X = np.asarray(X, dtype=float)
    p = np.asarray(p, dtype=float)
    if X.ndim not in (2, 3) or p.shape != X.shape[:-1]:
        raise ContractError("window rows must be (n, d) or (B, n, d) with one label per row")
    if theta0 is not None and np.shape(theta0) != X.shape[:-2] + X.shape[-1:]:
        raise ContractError("theta0 must hold one start of length d per window")
    if not p.size:
        return np.zeros(X.shape[:-2] + X.shape[-1:]), (np.zeros(len(X)) if X.ndim == 3 else 0.0)
    if not (np.minimum.reduce(p, None) >= 0.0 and np.maximum.reduce(p, None) <= 1.0):
        raise ContractError("preference labels must lie in [0, 1]")
    return newton_logistic(X, p, lam, "window logistic fit", theta0)


def min_curvature_constant(phi_max: float = 1.0, theta_max: float = 1.0) -> float:
    """Smallest sigmoid derivative over the reachable margin range.

    Margins are bounded by 2 * phi_max * theta_max in absolute value, and
    sigma'(z) = sigma(z)(1 - sigma(z)) is smallest at the endpoints.
    """
    z = 2.0 * phi_max * theta_max
    s = float(sigmoid(z))
    return s * (1.0 - s)


def estimation_error_rhs(
    v_window: float,
    W: int,
    lam: float,
    d: int,
    delta: float,
    m0: float,
    c: float,
    phi_max: float = 1.0,
    theta_max: float = 1.0,
) -> float:
    """Deterministic error-bound arithmetic for the windowed logistic fit.

    Three terms: drift within the window, noise concentration, and the
    regularization offset. All inputs must be positive (delta in (0, 1));
    v_window is the summed parameter movement across the window and may be 0.
    """
    if W < 1:
        raise ConfigError(f"W must be >= 1, got {W}")
    if min(lam, m0, c, phi_max, theta_max) <= 0.0 or d < 1:
        raise ConfigError("lam, m0, c, phi_max, theta_max must be positive and d >= 1")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    if v_window < 0.0:
        raise ConfigError(f"v_window must be nonnegative, got {v_window}")
    drift_term = phi_max**2 * SIGMOID_DERIV_LIPSCHITZ * v_window / (m0 * c)
    log_term = (d / 2.0) * math.log(1.0 + W * phi_max**2 / (d * lam)) + math.log(1.0 / delta)
    noise_term = (
        math.sqrt(lam + W * phi_max**2) / (m0 * c * W) * math.sqrt(2.0 * log_term)
    )
    reg_term = lam * theta_max / (m0 * c * W)
    return drift_term + noise_term + reg_term
