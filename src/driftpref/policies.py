"""Categorical policies over finite action menus.

Policies are per-context probability rows. Every constructed row is floored
away from zero by mixing in a sliver of the uniform distribution, so log
ratios stay finite and the full-support requirement holds by construction.

The Gibbs tilt is the exact maximizer of expected utility minus a scaled KL
penalty against the reference row; it is the building block for both the
learner's policy and the reference-promotion candidates.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError

DEFAULT_SUPPORT_FLOOR = 1e-9


def apply_floor(table: np.ndarray, floor: float = DEFAULT_SUPPORT_FLOOR) -> np.ndarray:
    """Mix a normalized row (or table of rows) with the uniform distribution.

    The mixture (1 - K*floor) * p + floor keeps rows summing to one while
    guaranteeing every entry >= floor exactly. floor = 0 is a no-op.
    """
    table = np.asarray(table, dtype=float)
    n_actions = table.shape[-1]
    if floor < 0.0 or n_actions * floor >= 1.0:
        raise ConfigError(f"floor must lie in [0, 1/K), got {floor}")
    if floor == 0.0:
        return table
    return (1.0 - n_actions * floor) * table + floor


def gibbs(
    pi_ref: np.ndarray,
    u: np.ndarray,
    beta: float | np.ndarray,
    floor: float = DEFAULT_SUPPORT_FLOOR,
) -> np.ndarray:
    """Tilt reference rows by exp(u / beta) and renormalize (log-domain).

    Accepts a single row (K,) with utilities (K,), or tables (n, K). beta is
    a scalar or an array that broadcasts against u, such as an (n, 1) column
    of per-row temperatures. Maximizes pi @ u - beta * kl(pi, pi_ref)
    exactly when floor = 0.
    """
    if np.any(np.asarray(beta) <= 0.0):
        raise ConfigError(f"beta must be positive, got {beta}")
    pi_ref = np.asarray(pi_ref, dtype=float)
    u = np.asarray(u, dtype=float)
    if pi_ref.shape != u.shape:
        raise ContractError("pi_ref and u must have matching shapes")
    if np.any(pi_ref <= 0.0):
        raise ContractError(
            "reference rows must have full support (strictly positive entries)"
        )
    return softmax_rows(np.log(pi_ref) + u / beta, floor)


def softmax_rows(logits: np.ndarray, floor: float = DEFAULT_SUPPORT_FLOOR) -> np.ndarray:
    """Row-wise softmax with the support floor; logits shape (..., K)."""
    logits = np.asarray(logits, dtype=float)
    weights = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return apply_floor(weights, floor)


def kl(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """KL divergence between probability rows, with 0 * log 0 = 0.

    p and q are one row (K,), giving a float, or tables (n, K), giving one
    value per row. Raises if any q entry is nonpositive: the divergence is
    only defined against full-support references.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim not in (1, 2):
        raise ContractError("p and q must be probability rows or tables of equal shape")
    if np.any(q <= 0.0):
        raise ContractError("second argument must have full support (every entry positive)")
    terms = np.zeros_like(p)
    mask = p > 0.0
    terms[mask] = p[mask] * (np.log(p[mask]) - np.log(q[mask]))
    out = terms.sum(axis=-1)
    return float(out) if p.ndim == 1 else out


def gate_kl_estimate(pi_rows: np.ndarray, ref_rows: np.ndarray) -> float:
    """Mean exact per-context KL over the gate subset's rows."""
    return float(np.mean(kl(pi_rows, ref_rows)))


def inspector_score(pi_rows: np.ndarray, u_rows: np.ndarray) -> float:
    """Mean expected utility of the policy rows under the scorer's utilities."""
    pi_rows = np.asarray(pi_rows, dtype=float)
    u_rows = np.asarray(u_rows, dtype=float)
    if pi_rows.shape != u_rows.shape or pi_rows.ndim != 2:
        raise ContractError("policy and utility tables must be 2-d and matching")
    return float(np.mean(np.sum(pi_rows * u_rows, axis=1)))
