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
Given a list of generators, it draws each run's path from its own generator
into that run's slice of one (B, T, d) stack of B x T x d doubles, then
walks all runs together with (B, d) rows; the budget test and the zero-norm
guard become per-row masks, and each path keeps the bits and leaves its
generator where a call of its own would.

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


def _draw(out: np.ndarray, cfg: DriftConfig, rng: np.random.Generator) -> None:
    """Write a path's unit start to out[0] and its scaled steps to out[1:]."""
    theta0 = rng.standard_normal(out.shape[1])
    out[0] = theta0 / np.linalg.norm(theta0)
    steps = out[1:]
    if cfg.mode == "frozen":
        steps[:] = out[0]
        return
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


def _unit_path(thetas: np.ndarray, tv_used: float, cfg: DriftConfig) -> ThetaPath:
    """Wrap a walked path, holding its rows to unit norm."""
    off = np.abs(np.linalg.norm(thetas, axis=1) - 1.0)
    if not np.all(off <= _NORM_TOL):
        raise ContractError(f"theta must have unit norm, got a row off by {float(np.max(off))!r}")
    return ThetaPath(thetas=thetas, tv_used=float(tv_used), tv_budget=cfg.tv_budget)


def generate_path(
    horizon: int,
    dim: int,
    cfg: DriftConfig,
    rng: np.random.Generator | list,
) -> ThetaPath | list[ThetaPath]:
    """Realize a full parameter trajectory of the given length.

    Given a list of generators, return one path per generator, walked
    together step by step with the same bits as one call per generator.
    """
    if horizon < 1 or dim < 1:
        raise ConfigError(f"need horizon >= 1 and dim >= 1, got {horizon}, {dim}")
    walked = horizon if cfg.mode == "sphere-walk" else 1  # a frozen path is all drawn
    if not isinstance(rng, list):
        thetas = np.empty((horizon, dim))
        _draw(thetas, cfg, rng)
        theta, tv_used = thetas[0], 0.0
        for t in range(1, walked):
            p = theta + thetas[t]
            pnorm = math.sqrt(p.dot(p))
            if pnorm != 0.0:
                p /= pnorm
                diff = p - theta
                dist = math.sqrt(diff.dot(diff))
                if not dist > cfg.tv_budget - tv_used:
                    theta, tv_used = p, tv_used + dist
            thetas[t] = theta
        return _unit_path(thetas, tv_used, cfg)
    stack = np.empty((len(rng), horizon, dim))  # each run's steps, overwritten by the walk
    for out, gen in zip(stack, rng):
        _draw(out, cfg, gen)
    theta, tv_used = stack[:, 0].copy(), np.zeros(len(rng))
    for t in range(1, walked):
        p = theta + stack[:, t]
        pnorm = np.sqrt(np.vecdot(p, p))[:, None]
        moved = pnorm != 0.0
        np.divide(p, pnorm, out=p, where=moved)
        diff = p - theta
        dist = np.sqrt(np.vecdot(diff, diff))
        take = moved[:, 0] & ~(dist > cfg.tv_budget - tv_used)
        np.copyto(theta, p, where=take[:, None])
        tv_used = np.where(take, tv_used + dist, tv_used)
        stack[:, t] = theta
    return [_unit_path(thetas, tv, cfg) for thetas, tv in zip(stack, tv_used)]


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
    if horizon < 1 or dim < 1:
        raise ConfigError(f"need horizon >= 1 and dim >= 1, got {horizon}, {dim}")
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
