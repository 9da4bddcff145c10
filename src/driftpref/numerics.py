"""The stable sigmoid and the package's one logistic solver, which takes stacks."""

from __future__ import annotations

import math
from contextlib import suppress

import numpy as np

from .errors import ConvergenceError


def sigmoid(z):
    """Logistic function, stable for large |z|: 1/(1 + e) or e/(1 + e), e = exp(-|z|).

    Each entry of an array carries its scalar call's bits, so the preference
    loop reads every label's win probability from one table.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


# Stopping rule of the logistic solver: gradient norm and Newton-step budget.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 500


def _logistic_eval(theta, X, p, lam):
    """Each member's objective (a list of floats) and sigmoid(z), from one z = X @ theta."""
    z = np.matvec(X, theta)
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)  # log(1 + exp(z)) = max(z, 0) + log1p(e), no overflow
    s = np.exp(np.minimum(z, 0.0))  # exactly 1 or e, so s below is sigmoid(z)
    loss = np.maximum(z, 0.0)
    loss += np.log1p(e)
    loss -= p * z
    e += 1.0
    s /= e
    return (np.add.reduce(loss, 1) + np.vecdot(0.5 * lam * theta, theta)).tolist(), s


def newton_logistic(X, p, lam, name, theta0=None):
    """Minimize sum(log(1 + exp(X @ theta)) - p * (X @ theta)) + lam/2 |theta|^2.

    X is one problem (n, d) or a stack (B, n, d); p is a scalar or one label
    per row, theta0 None (zeros) or one start per problem. Damped Newton with
    Armijo backtracking and a gradient-step fallback (Boyd and Vandenberghe,
    9.5); lam > 0 makes the solve unique and deterministic. One loop steps
    the stack, giving each member the bits of its own solve; only members
    whose full step fails backtrack, and a member leaves once it converges.
    Returns (theta, residual gradient norm), stacked as X is. Raises
    ConvergenceError, naming name and in a stack the first unconverged
    member, if NEWTON_MAX_ITER Newton steps leave a gradient above NEWTON_TOL.
    """
    if single := X.ndim == 2:
        X, p = X[None], p[None] if isinstance(p, np.ndarray) else p
    B, _, d = X.shape
    theta = np.zeros((B, d)) if theta0 is None else np.array(theta0, dtype=float, ndmin=2)
    done, members = {}, list(range(B))  # converged members' (theta, grad norm)
    ridge = np.zeros((d, d))
    ridge.flat[:: d + 1] = lam
    obj, s = _logistic_eval(theta, X, p, lam)
    for newton_step in range(NEWTON_MAX_ITER + 1):
        grad = np.vecmat(s - p, X) + lam * theta
        grad_norm = list(map(math.sqrt, np.vecdot(grad, grad).tolist()))
        if min(grad_norm) <= NEWTON_TOL:  # min skips nans after member 0; nan never converges
            if single:
                return theta[0], grad_norm[0]
            keep = [i for i, g in enumerate(grad_norm) if not g <= NEWTON_TOL]
            done.update(zip(members, zip(theta, grad_norm)))  # the rest are rewritten later
            if not keep:  # the stack's thetas and grad norms, in member order
                return tuple(np.array(v) for v in zip(*(done[m] for m in range(B))))
            p = np.broadcast_to(p, X.shape[:2])[keep]
            X, theta, s, grad = X[keep], theta[keep], s[keep], grad[keep]
            obj, members, grad_norm = ([v[i] for i in keep] for v in (obj, members, grad_norm))
        if newton_step == NEWTON_MAX_ITER:
            where = "" if single else f" member {members[0]}"
            raise ConvergenceError(f"{name}{where} did not converge", theta[0], grad_norm[0])
        # the Newton step is theta - newton, so slope = grad @ newton is minus the descent slope
        hess = (X * (s * (1.0 - s))[..., None]).mT @ X + ridge
        try:
            newton = np.linalg.solve(hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:  # one member at a time; a singular one steps along -grad
            newton = grad.copy()
            for i in range(len(members)):
                with suppress(np.linalg.LinAlgError):
                    newton[i] = np.linalg.solve(hess[i], grad[i])
        slope = np.vecdot(grad, newton).tolist()
        if not min(slope) > 0.0:
            for i in [i for i, g in enumerate(slope) if g <= 0.0]:  # not a descent direction
                newton[i] = grad[i]
                slope[i] = float(grad[i] @ newton[i])
        # Armijo backtracking, then an inverse-smoothness gradient step. The slack
        # keeps the search from stalling when the decrease (~grad^2) falls below
        # float rounding; Newton's quadratic contraction finishes the last digits.
        cand = theta - newton
        cand_obj, cand_s = _logistic_eval(cand, X, p, lam)
        step, pending = 1.0, range(len(members))
        while step > 2.0 ** -60 and (pending := [
                i for i in pending if not cand_obj[i]
                <= obj[i] - 1e-4 * step * slope[i] + 1e-12 * max(1.0, abs(obj[i]))]):
            step *= 0.5  # 60 candidates, steps 1 to 2^-59
            if step > 2.0 ** -60:
                cand[pending] = theta[pending] - step * newton[pending]
            else:
                cand[pending] = [theta[i] - 1.0 / (0.25 * float(np.sum(X[i] * X[i])) + lam)
                                 * grad[i] for i in pending]
            trial_obj, cand_s[pending] = _logistic_eval(
                cand[pending], X[pending], np.broadcast_to(p, X.shape[:2])[pending], lam)
            for i, o in zip(pending, trial_obj):
                cand_obj[i] = o
        theta, obj, s = cand, cand_obj, cand_s
