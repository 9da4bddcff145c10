"""Non-stationary preference environment.

The hidden utility parameter lives on the unit sphere and performs a budgeted
random walk: each step adds a perturbation with uniform direction and uniform
magnitude, then projects back to the sphere. Total variation (the summed step
distances) is capped by a budget; a step that would overflow the remaining
budget is skipped, so once the budget runs out the parameter is frozen.

Action feature vectors are unit rows and utilities are inner products.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import DRIFT_MODES, RunConfig
from .errors import ConfigError, ContractError

# Unit-norm slack for preconditions on theta.
_NORM_TOL = 1e-9


@dataclass
class DriftConfig:
    """Per-step drift law plus the total-variation budget."""

    delta_min: float = 1.0
    delta_max: float = 5.0
    mode: str = "sphere-walk"
    tv_budget: float = 8000.0

    def __post_init__(self):
        if self.mode not in DRIFT_MODES:
            raise ConfigError(f"mode must be one of {DRIFT_MODES}, got {self.mode!r}")
        if not 0.0 <= self.delta_min <= self.delta_max:
            raise ConfigError(
                f"need 0 <= delta_min <= delta_max, got [{self.delta_min}, {self.delta_max}]"
            )
        if self.tv_budget < 0.0:
            raise ConfigError(f"tv_budget must be nonnegative, got {self.tv_budget}")


@dataclass
class ThetaPath:
    """A realized parameter trajectory with its variation accounting."""

    thetas: np.ndarray  # (T, d), unit rows
    tv_used: float
    tv_budget: float

    def __len__(self) -> int:
        return self.thetas.shape[0]


def _check_unit(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    n = np.linalg.norm(theta)
    if abs(n - 1.0) > _NORM_TOL:
        raise ContractError(f"theta must have unit norm, got norm {n!r}")
    return theta


def advance_theta(
    theta: np.ndarray,
    cfg: DriftConfig,
    rng: np.random.Generator,
    remaining_tv: float,
) -> np.ndarray:
    """One drift step. Returns the next unit-norm parameter.

    Frozen mode returns the input unchanged and consumes no randomness.
    A step whose displacement would exceed the remaining budget is discarded
    (the draw is still consumed, keeping streams aligned).
    """
    theta = _check_unit(theta)
    if cfg.mode == "frozen":
        return theta.copy()
    d = theta.shape[0]
    direction = rng.standard_normal(d)
    norm = np.linalg.norm(direction)
    if norm == 0.0:  # measure-zero; retry once rather than divide by zero
        direction = rng.standard_normal(d)
        norm = np.linalg.norm(direction)
    direction /= norm
    magnitude = rng.uniform(cfg.delta_min, cfg.delta_max)
    proposal = theta + magnitude * direction
    pnorm = np.linalg.norm(proposal)
    if pnorm == 0.0:
        return theta.copy()
    proposal /= pnorm
    if np.linalg.norm(proposal - theta) > remaining_tv:
        return theta.copy()
    return proposal


def generate_path(
    horizon: int,
    dim: int,
    cfg: DriftConfig,
    rng: np.random.Generator,
) -> ThetaPath:
    """Realize a full parameter trajectory of the given length."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    theta0 = rng.standard_normal(dim)
    thetas = np.empty((horizon, dim))
    thetas[0] = theta0 / np.linalg.norm(theta0)
    tv_used = 0.0
    for t in range(1, horizon):
        remaining = cfg.tv_budget - tv_used
        thetas[t] = advance_theta(thetas[t - 1], cfg, rng, remaining)
        tv_used += float(np.linalg.norm(thetas[t] - thetas[t - 1]))
    return ThetaPath(thetas=thetas, tv_used=tv_used, tv_budget=cfg.tv_budget)


def make_features(n_actions: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one context: an (n_actions, dim) table of unit-length feature rows."""
    if n_actions < 2 or dim < 1:
        raise ConfigError(f"need n_actions >= 2 and dim >= 1, got {n_actions}, {dim}")
    rows = rng.standard_normal((n_actions, dim))
    norms = np.linalg.norm(rows, axis=1)
    while np.any(norms == 0.0):  # practically unreachable
        bad = norms == 0.0
        rows[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(rows, axis=1)
    rows /= norms[:, None]
    return rows


def spread_drift_limits(cfg: DriftConfig, horizon: int, dim: int) -> DriftConfig:
    """Rescale the per-step magnitude window so drift persists across the run.

    With the raw limits, the budget would be consumed within a few steps.
    Scaling both limits by a common factor spreads roughly 90% of the budget
    evenly over the horizon (first-order small-step approximation; the exact
    cap is still enforced by the budget check in advance_theta).
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    mean_mag = 0.5 * (cfg.delta_min + cfg.delta_max)
    if mean_mag <= 0.0 or cfg.tv_budget <= 0.0:
        return replace(cfg)
    # E||P_perp u|| for a uniform direction u, to first order in the step size
    perp = np.sqrt(max(1.0 - 1.0 / dim, 1e-12))
    scale = 0.9 * cfg.tv_budget / (horizon * mean_mag * perp)
    scale = min(scale, 1.0)
    return replace(cfg, delta_min=cfg.delta_min * scale, delta_max=cfg.delta_max * scale)


def make_drift(cfg: RunConfig, horizon: int) -> DriftConfig:
    """The run's drift law, spread over drift_spread_h (or horizon) if drift_spread."""
    drift = DriftConfig(cfg.delta_min, cfg.delta_max, cfg.drift_mode, cfg.V_T)
    if cfg.drift_spread and drift.mode == "sphere-walk":
        spread_h = cfg.drift_spread_h if cfg.drift_spread_h > 0 else horizon
        drift = spread_drift_limits(drift, spread_h, cfg.d)
    return drift
