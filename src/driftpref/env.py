"""Non-stationary preference environment.

The hidden utility parameter lives on the unit sphere and performs a budgeted
random walk: each step adds a perturbation with uniform direction and uniform
magnitude, then projects back to the sphere. Total variation (the summed step
distances) is capped by a budget; a step that would overflow the remaining
budget is skipped, so once the budget runs out the parameter is frozen.
generate_path draws all of a path's randomness first, step by step in the
walk's order (a normal direction, redrawn once if exactly zero, then the
magnitude), and then walks the steps, so it leaves the caller's stream where
a draw-as-you-go walk would; frozen mode draws nothing past the start.

Action feature vectors are unit rows and utilities are inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DRIFT_MODES, RunConfig
from .errors import ConfigError, ContractError

# Unit-norm slack for the rows of a realized path.
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
        if not 0.0 <= self.delta_min <= self.delta_max < math.inf:
            raise ConfigError("need 0 <= delta_min <= delta_max < inf, "
                              f"got [{self.delta_min}, {self.delta_max}]")
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
    if cfg.mode == "frozen":
        thetas[1:] = thetas[0]
        return ThetaPath(thetas=thetas, tv_used=0.0, tv_budget=cfg.tv_budget)
    steps = np.empty((horizon - 1, dim))
    start = rng.bit_generator.state
    for retry_zero in (False, True):  # the retry pass replays a pass that drew a zero direction
        u = []
        for row in steps:
            rng.standard_normal(out=row)
            if retry_zero and row.dot(row) == 0.0:
                rng.standard_normal(out=row)
            u.append(rng.random())
        sq = np.vecdot(steps, steps)
        if retry_zero or sq.all():
            break
        rng.bit_generator.state = start
    # Bit for bit rng.uniform(delta_min, delta_max) and the 1-D np.linalg.norm
    # (sqrt of the dot product); np.linalg.norm(axis=1) rounds differently.
    steps /= np.sqrt(sq)[:, None]
    steps *= (cfg.delta_min + (cfg.delta_max - cfg.delta_min) * np.array(u))[:, None]
    theta, tv_used = thetas[0], 0.0
    for t, step in enumerate(steps, 1):
        p = theta + step
        pnorm = math.sqrt(p.dot(p))
        if pnorm != 0.0:
            p /= pnorm
            diff = p - theta
            dist = math.sqrt(diff.dot(diff))
            if not dist > cfg.tv_budget - tv_used:
                theta, tv_used = p, tv_used + dist
        thetas[t] = theta
    off = np.abs(np.linalg.norm(thetas, axis=1) - 1.0)
    if not np.all(off <= _NORM_TOL):
        raise ContractError(f"theta must have unit norm, got a row off by {float(np.max(off))!r}")
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
    cap is still enforced by generate_path's budget check).
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
