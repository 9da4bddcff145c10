"""Regret accounting for drifting-utility runs.

Per-step regret splits exactly into two parts measured against the true
utilities: the gap between the oracle action and the KL-regularized
comparator (the best policy reachable from the current reference), and the
gap between that comparator and the policy actually played. The first part
is the price of the reference, the second the price of estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class RegretLedger:
    """Column-oriented per-step record of one run."""

    t: np.ndarray
    phase: np.ndarray
    bias: np.ndarray
    error: np.ndarray
    regret_step: np.ndarray
    regret_cum: np.ndarray
    oracle_arm: np.ndarray
    switch: np.ndarray

    COLUMNS = ("t", "phase", "bias", "error", "regret_step", "regret_cum",
               "oracle_arm", "switch")

    def __len__(self) -> int:
        return self.t.shape[0]

    def final_regret(self) -> float:
        return float(self.regret_cum[-1])

    def cumulative_bias(self) -> float:
        return float(self.bias.sum())


def regret_decompose(
    u: np.ndarray,
    pi: np.ndarray,
    pi_kl: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Split regret into (reference bias, learning error), one pair per row.

    u, pi and pi_kl are rows (K,) or tables (..., K) of utilities, played
    policies and comparators. bias = J(oracle) - J(comparator), error =
    J(comparator) - J(played); their sum is the plain regret by construction.
    The oracle value is the row maximum of u. Each row's np.vecdot has the
    bits of the 1-D pi @ u.
    """
    u = np.asarray(u, dtype=float)
    j_kl = np.vecdot(pi_kl, u)
    return u.max(axis=-1) - j_kl, j_kl - np.vecdot(pi, u)


def _stacked(thetas: np.ndarray, features: np.ndarray):
    """Float arrays, with a shared (K, d) context broadcast to every step."""
    thetas = np.asarray(thetas, dtype=float)
    features = np.asarray(features, dtype=float)
    T = thetas.shape[0]
    if features.ndim == 2:
        features = np.broadcast_to(features, (T,) + features.shape)
    if features.shape[0] != T:
        raise ContractError("features must cover every step")
    return thetas, features


def switch_flags(thetas: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Per-step oracle-change flags.

    Step t is a switch when the oracle under theta_t differs from the oracle
    under theta_{t-1}, both evaluated on step t's feature table. features is
    (T, K, d) or (K, d) for a shared context; the first step is never a switch.
    Each (K, d) @ (d,) slice of the batched products has the per-step bits.
    """
    thetas, features = _stacked(thetas, features)
    now = np.matmul(features[1:], thetas[1:, :, None])[:, :, 0]
    prev = np.matmul(features[1:], thetas[:-1, :, None])[:, :, 0]
    flags = np.zeros(thetas.shape[0], dtype=int)
    flags[1:] = np.argmax(now, axis=1) != np.argmax(prev, axis=1)
    return flags


def min_margin(thetas: np.ndarray, features: np.ndarray,
               flags: np.ndarray | None = None) -> float:
    """Smallest top-two utility gap over switch-free steps.

    Steps flagged as switches are excluded: the gap crosses zero there by
    construction, so only stable steps inform the margin. A caller that
    already holds switch_flags(thetas, features) passes them as flags.
    """
    thetas, features = _stacked(thetas, features)
    if features.shape[1] < 2:
        raise ContractError("margin needs at least two actions")
    flags = switch_flags(thetas, features) if flags is None else flags
    u = np.sort(np.matmul(features, thetas[:, :, None])[:, :, 0], axis=1)
    gaps = (u[:, -1] - u[:, -2])[flags == 0]
    return float(gaps.min()) if gaps.size else np.inf


def slope_fit(horizons, values) -> float:
    """Least-squares slope of log(values) against log(horizons)."""
    horizons = np.asarray(horizons, dtype=float)
    values = np.asarray(values, dtype=float)
    if horizons.shape != values.shape or horizons.ndim != 1:
        raise ContractError("horizons and values must be equal-length rows")
    if horizons.shape[0] < 2:
        raise ContractError("slope fit needs at least two points")
    if np.any(horizons <= 0.0) or np.any(values <= 0.0):
        raise ContractError("slope fit needs strictly positive inputs")
    x = np.log(horizons)
    y = np.log(values)
    xc = x - x.mean()
    return float((xc @ (y - y.mean())) / (xc @ xc))
