"""Reference formulas the tests check the package against.

The package fits preference pairs as a logistic problem on winner-minus-loser
feature rows; these are the plain forms of the losses that fit minimizes, and
a minimizer that reaches the DPO optimum by another route. The report tables
are written in one %-format each; the row-by-row formatters here are the
reference for their bytes.
"""

import numpy as np

from driftpref.cli import PHASE_COLUMNS
from driftpref.regret import RegretLedger


def fmt_float(x) -> str:
    """17-significant-digit decimal; round-trips float64 exactly."""
    return format(float(x), ".17g")


def steps_csv_rows(ledger):
    """The steps table, one row per loop pass."""
    lines = [",".join(RegretLedger.COLUMNS)]
    for i in range(len(ledger)):
        lines.append(",".join([
            str(int(ledger.t[i])),
            str(int(ledger.phase[i])),
            fmt_float(ledger.bias[i]),
            fmt_float(ledger.error[i]),
            fmt_float(ledger.regret_step[i]),
            fmt_float(ledger.regret_cum[i]),
            str(int(ledger.oracle_arm[i])),
            str(int(ledger.switch[i])),
        ]))
    return "\n".join(lines) + "\n"


def phases_csv_rows(phases):
    """The phases table, one row per loop pass."""
    lines = [",".join(PHASE_COLUMNS)]
    for p in phases:
        lines.append(",".join([
            str(int(p.phase_index)),
            str(int(p.n_pairs)),
            fmt_float(p.delta_s),
            fmt_float(p.kl_hat),
            str(int(p.accepted)),
            fmt_float(p.beta),
            fmt_float(p.eps_s),
            fmt_float(p.delta_H),
        ]))
    return "\n".join(lines) + "\n"


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


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def tilted_policy(ref_rows, feats, w, beta):
    """pi(a | c) proportional to ref(a | c) * exp(feats[c, a] @ w / beta)."""
    return softmax(np.log(ref_rows) + feats @ w / beta)


def dpo_minimizer(ref_rows, feats, pairs, beta, lam, tol=1e-8, max_iter=100_000):
    """Tilt w minimizing len(pairs) * dpo_loss(tilted_policy(w)) + lam/2 |w|^2.

    Plain gradient descent from w = 0 with the fixed step 1/L, where L bounds
    the objective's curvature. The gradient runs through the policy tables:
    a pair's margin is beta times its winner's log-ratio minus its loser's,
    and d log pi(a | c) / dw = (feats[c, a] - E_pi[feats[c]]) / beta.
    """
    ctx, win, lose = np.array(pairs).T
    x = feats[ctx, win] - feats[ctx, lose]
    step = 1.0 / (0.25 * float(np.sum(x * x)) + lam)
    w = np.zeros(feats.shape[-1])
    for _ in range(max_iter):
        pi = tilted_policy(ref_rows, feats, w, beta)
        log_ratio = np.log(pi) - np.log(ref_rows)
        margin = beta * (log_ratio[ctx, win] - log_ratio[ctx, lose])
        dlog = (feats - np.einsum("ca,cad->cd", pi, feats)[:, None, :]) / beta
        dmargin = beta * (dlog[ctx, win] - dlog[ctx, lose])
        # d/dm of -log sigmoid(m) is -sigmoid(-m)
        grad = -(np.exp(log_sigmoid(-margin))[:, None] * dmargin).sum(axis=0) + lam * w
        if np.linalg.norm(grad) <= tol:
            return w
        w = w - step * grad
    raise AssertionError(f"gradient descent did not reach tol {tol} in {max_iter} steps")
