"""Calibration kernel: puts times measured on a shared host on one scale.

The cores of the benchmark host are shared, and their speed for this kind
of code drifts by up to 2x over tens of seconds. A slowdown hits this
kernel and driftpref alike, since both spend their time in the interpreter
and in tiny numpy/LAPACK calls. So every timed stretch is bracketed by
calibrations, and its time t is reported as t * REFERENCE_S / c, where c is
the mean of the kernel's bracketing times: seconds at the host's reference
speed. On a quiet host c is close to REFERENCE_S and the scaling is small.

The kernel is the benchmark's own code, so a change to driftpref cannot
change it.
"""

from __future__ import annotations

import time

# Kernel time on the 2-core x86-64 host the benchmark was defined on, when
# quiet (Python 3.11, numpy 2.4, one OpenBLAS thread).
REFERENCE_S = 0.011
_ROUNDS = 5


def _kernel(np, mats, rhs, X, labels) -> None:
    # Small solves with per-step float formatting, as in the bandit loops
    # and the CSV emission.
    acc = 0.0
    text = []
    for i in range(mats.shape[0]):
        sol = np.linalg.solve(mats[i], rhs)
        acc += float(sol @ rhs) + float(np.max(mats[i, 0]))
        text.append(format(acc, ".17g"))
    ",".join(text)
    # Newton steps of a 160-row logistic fit, as in the window estimator.
    theta = np.zeros(X.shape[1])
    for _ in range(150):
        z = X @ theta
        s = 1.0 / (1.0 + np.exp(-z))
        w = s * (1.0 - s)
        hess = (X * w[:, None]).T @ X + 0.1 * np.eye(X.shape[1])
        grad = X.T @ (s - labels) + 0.1 * theta
        theta = theta - 0.1 * np.linalg.solve(hess, grad)
        acc += float(np.sum(np.log1p(np.exp(-np.abs(z)))))


def calibrate() -> float:
    """Kernel time in seconds: the median of a few rounds, so that one
    preemption or one lucky round does not count."""
    import numpy as np  # here, so that run.py can use scale without numpy

    rng = np.random.default_rng(7)
    raw = rng.standard_normal((600, 5, 5))
    mats = raw @ raw.transpose(0, 2, 1) + 5.0 * np.eye(5)
    X = rng.standard_normal((160, 5))
    labels = (rng.uniform(size=160) < 0.5).astype(float)
    times = []
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        _kernel(np, mats, np.ones(5), X, labels)
        times.append(time.perf_counter() - t0)
    return sorted(times)[_ROUNDS // 2]


def scale(seconds: float, before: float, after: float) -> float:
    """Seconds at reference speed for a stretch bracketed by two calibrations."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
