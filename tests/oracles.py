"""Reference formulas the tests check the package against.

The package fits preference pairs as a logistic problem on winner-minus-loser
feature rows; these are the plain forms of the losses that fit minimizes.
"""

import numpy as np


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


def dpo_loss(pi_rows, ref_rows, pairs, beta):
    """Mean DPO pair loss of a policy against a reference.

    Each (context, winner, loser) pair contributes -log sigmoid(beta * (the
    winner's log-ratio minus the loser's)); both tables are indexed by the
    pairs' context ids (Rafailov et al. 2023, "Direct Preference
    Optimization").
    """
    ctx, win, lose = np.array(pairs).T
    log_ratio = np.log(pi_rows) - np.log(ref_rows)
    margin = beta * (log_ratio[ctx, win] - log_ratio[ctx, lose])
    return float(np.mean(-log_sigmoid(margin)))
