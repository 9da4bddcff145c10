"""Sliding-window parameter estimation.

A windowed buffer of (feature, label) rows feeds a regularized logistic
regression for preference data: each feature row is the difference between
the two compared actions' features and the label is 1 when the first action
won.

The logistic solve is numerics.newton_logistic, the same solver the
preference-loop phase fits use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import newton_logistic, sigmoid

# Lipschitz constant of the logistic derivative; fixed, not a parameter.
SIGMOID_DERIV_LIPSCHITZ = 0.25


class WindowBuffer:
    """Fixed-capacity FIFO of (feature row, label) observations."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        self.capacity = capacity
        self.dim = dim
        self._feat = np.zeros((capacity, dim))
        self._lab = np.zeros(capacity)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, phi: np.ndarray, label: float) -> None:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.dim,):
            raise ContractError(f"feature row must have shape ({self.dim},)")
        self._feat[self._next] = phi
        self._lab[self._next] = float(label)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def _order(self) -> np.ndarray:
        if self._size < self.capacity:
            return np.arange(self._size)
        return np.roll(np.arange(self.capacity), -self._next)

    @property
    def features(self) -> np.ndarray:
        """Rows oldest to newest, shape (n, dim)."""
        return self._feat[self._order()]

    @property
    def labels(self) -> np.ndarray:
        return self._lab[self._order()]


@dataclass
class WindowEstimate:
    """Result of a windowed fit."""

    theta_hat: np.ndarray
    A: np.ndarray  # regularized Gram matrix X'X + lam*I
    lambda_min: float
    grad_norm: float


def window_size(horizon: int, kappa: float) -> int:
    """Window length ceil(horizon^kappa), at least 1."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < kappa <= 1.0:
        raise ConfigError(f"kappa must lie in (0, 1], got {kappa}")
    return max(1, math.ceil(horizon**kappa))


def fit_logistic_window(
    buffer: WindowBuffer, lam: float, theta0: np.ndarray | None = None
) -> WindowEstimate:
    """Minimize the regularized preference log-loss over the window.

    Labels must lie in [0, 1]. An empty buffer yields the zero estimate with
    A = lam * I. Raises ConvergenceError if the solve does not converge.
    """
    if lam <= 0.0:
        raise ConfigError(f"lam must be positive, got {lam}")
    X = buffer.features
    p = buffer.labels
    if np.any((p < 0.0) | (p > 1.0)):
        raise ContractError("preference labels must lie in [0, 1]")
    d = buffer.dim
    A = X.T @ X + lam * np.eye(d)
    lam_min = float(np.linalg.eigvalsh(A)[0])
    if len(buffer) == 0:
        return WindowEstimate(np.zeros(d), A, lam_min, 0.0)
    theta, grad_norm = newton_logistic(X, p, lam, "window logistic fit", theta0)
    return WindowEstimate(theta, A, lam_min, grad_norm)


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
