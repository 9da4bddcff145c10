"""Empirical checks of the drift/estimation bounds and the regret scaling.

Each check replays its bound on freshly simulated data, collects every
trial's LHS and RHS, and hands them to one verdict rule (_tally) that counts
violations. Deterministic inequalities must never violate; probabilistic
ones are allowed the stated failure rate delta plus three binomial standard
errors. Every check derives its randomness from (seed, check tag, trial
index), so reports are reproducible bit for bit. The two Monte-Carlo checks
draw each trial's values in trial order, as a per-trial loop would, into
stacks, then score them in vectorized passes: kl-perturbation in one pass,
self-normalized in blocks of _BLOCK trials. Each trial keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .env import DriftConfig, draw_pairs, generate_path, make_features, spread_drift_limits
from .errors import ConfigError
from .estimator import (
    estimation_error_rhs,
    fit_logistic_window,
    min_curvature_constant,
)
from .numerics import sigmoid
from .policies import gibbs, kl
from .prefloop import run_preference_loop
from .regret import min_margin, slope_fit, switch_flags

# Check tags for RNG substreams (disjoint from the run loops' tags).
_T_KL, _T_SWITCH, _T_LOCAL, _T_SELF, _T_EST = 101, 102, 103, 104, 105

# Self-normalized trials per vectorized pass, a memory bound: a block's stacks peak
# near 0.7 MB, where all 2,000 trials at once would hold about 40 MB.
_BLOCK = 25

# Float-rounding guard for exact inequalities.
_EXACT_EPS = 1e-9

# Scaling-study verdict thresholds.
MAX_EVOLVING_EXPONENT = 0.95
MIN_DOMINATION = 0.8
MIN_BIAS_SEPARATION = 0.15
FROZEN_BIAS_CEILING = 1e-3


@dataclass
class LemmaReport:
    """Outcome of one bound check."""

    lemma_id: str
    trials: int
    violations: int
    excluded: int
    max_ratio: float  # max LHS/RHS over checked trials
    violation_rate: float
    allowed_rate: float  # 0 for deterministic bounds
    passed: bool
    constants: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _tally(lemma_id: str, lhs, rhs, delta: float = 0.0, excluded: int = 0,
           constants: dict | None = None, details: dict | None = None) -> LemmaReport:
    """The one verdict rule, from each trial's left- and right-hand side.

    delta = 0 marks an exact bound: a trial violates when lhs exceeds rhs
    past float rounding, and the check passes with no violation. Otherwise
    a trial violates when lhs > rhs, and the check passes while the rate is
    at most delta plus three binomial standard errors. max_ratio is the
    largest lhs / rhs over trials with rhs > 0. No trials pass at rate 0.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), lhs.shape)
    n = lhs.size
    bound = rhs + _EXACT_EPS * np.maximum(1.0, rhs) if delta == 0.0 else rhs
    violations = int(np.count_nonzero(lhs > bound))
    # A trial with rhs <= 0 reads as ratio 0, the floor max_ratio starts from.
    ratios = np.divide(lhs, rhs, out=np.zeros(n), where=rhs > 0.0)
    rate = violations / n if n else 0.0
    allowed = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / n) if n else delta
    return LemmaReport(
        lemma_id=lemma_id, trials=n, violations=violations, excluded=excluded,
        max_ratio=float(ratios.max(initial=0.0)), violation_rate=rate,
        allowed_rate=allowed, passed=rate <= allowed,
        constants=constants or {}, details=details or {},
    )


def check_kl_bound(
    trials: int = 1000, K: int = 4, d: int = 3, seed: int = 0
) -> LemmaReport:
    """Gibbs-policy KL perturbation bound.

    For Gibbs tilts of a shared reference by utilities from parameters theta
    and theta_hat, kl(pi_theta, pi_theta_hat) <= phi_max^2 * ||theta -
    theta_hat||^2 / (2 beta^2). The bound is exact mathematics, so only a
    tiny float-rounding epsilon is tolerated and zero violations pass.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng([seed, _T_KL])
    feats = np.empty((trials, K, d))
    theta, noise = np.empty((2, trials, d))
    scale, beta = np.empty((2, trials))
    ref = np.empty((trials, K))
    for i in range(trials):  # one trial's draws, in its order
        feats[i] = make_features(K, d, rng)
        rng.standard_normal(out=theta[i])
        scale[i] = rng.uniform(0.02, 1.0)
        rng.standard_normal(out=noise[i])
        beta[i] = rng.uniform(0.1, 2.0)
        ref[i] = rng.dirichlet(np.ones(K))
    # sqrt(vecdot) has the bits of a 1-D np.linalg.norm; a row-wise norm does not.
    theta /= np.sqrt(np.vecdot(theta, theta))[:, None]
    theta_hat = theta + scale[:, None] * noise
    ref = (1.0 - K * 1e-6) * ref + 1e-6  # keep the reference full-support
    p = gibbs(ref, np.matmul(feats, theta[:, :, None])[:, :, 0], beta[:, None], floor=0.0)
    q = gibbs(ref, np.matmul(feats, theta_hat[:, :, None])[:, :, 0], beta[:, None], floor=0.0)
    dist = np.sqrt(np.vecdot(theta - theta_hat, theta - theta_hat))
    return _tally("kl-perturbation", kl(p, q), dist * dist / (2.0 * beta * beta),
                  constants={"phi_max": 1.0, "K": K, "d": d})


def check_switching_budget(
    runs: int = 100,
    horizon: int = 500,
    K: int = 5,
    d: int = 5,
    v_total: float = 6.0,
    seed: int = 0,
    gamma_floor: float = 1e-6,
) -> LemmaReport:
    """Oracle switching budget: switches <= 2 phi_max V_T / gamma.

    gamma is the smallest top-two utility margin measured over switch-free
    steps of the same run; runs whose measured gamma falls below gamma_floor
    are excluded as near-degenerate and reported separately. Each run uses a
    fixed context so the margin is a property of the parameter path.
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if K < 2:
        raise ConfigError(f"a top-two margin needs K >= 2, got {K}")
    drift = spread_drift_limits(DriftConfig(1.0, 5.0, "sphere-walk", v_total), horizon, d)
    rngs = [np.random.default_rng([seed, _T_SWITCH, run]) for run in range(runs)]
    contexts = [make_features(K, d, rng) for rng in rngs]
    lhs, rhs, gammas = [], [], []
    for feats, path in zip(contexts, generate_path(horizon, d, drift, rngs)):
        flags = switch_flags(path.thetas, feats)
        gamma = min_margin(path.thetas, feats, flags)
        if gamma < gamma_floor:
            continue
        gammas.append(gamma)
        lhs.append(float(flags.sum()))
        rhs.append(2.0 * 1.0 * path.tv_used / gamma)
    return _tally(
        "switching-budget", lhs, rhs, excluded=runs - len(lhs),
        constants={"phi_max": 1.0, "gamma_floor": gamma_floor, "K": K, "d": d},
        details={
            "min_gamma": float(min(gammas)) if gammas else math.nan,
            "v_total": v_total,
        },
    )


def local_window_variation(thetas: np.ndarray, window: int) -> np.ndarray:
    """V_{t,W}: summed parameter movement over each step's trailing window."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[0] < 1:
        raise ConfigError("thetas must be a nonempty (T, d) path")
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    T = thetas.shape[0]
    incs = np.zeros(T)
    if T > 1:
        incs[1:] = np.linalg.norm(np.diff(thetas, axis=0), axis=1)
    csum = np.concatenate([[0.0], np.cumsum(incs)])
    return csum[1:] - csum[np.maximum(np.arange(T) - window, 0) + 1]


def _window_distance_sums(thetas: np.ndarray, window: int) -> np.ndarray:
    """Per step t, the summed distance from theta_t to each of its <= W predecessors."""
    T = thetas.shape[0]
    sums = np.empty(T)
    for t in range(min(window, T)):
        sums[t] = np.linalg.norm(thetas[t] - thetas[:t], axis=1).sum()
    if T > window:
        past = np.lib.stride_tricks.sliding_window_view(thetas[:-1], window, axis=0)
        diffs = thetas[window:, None, :] - past.transpose(0, 2, 1)  # (T - W, W, d)
        sums[window:] = np.linalg.norm(diffs, axis=2).sum(axis=1)
    return sums


def check_local_variation(
    runs: int = 50,
    horizon: int = 400,
    d: int = 4,
    window: int = 16,
    v_total: float = 4.0,
    seed: int = 0,
) -> LemmaReport:
    """Window-variation inequalities, both checked exactly on every run.

    (i) per step, the summed distance from theta_t to each window member is
    at most W * V_{t,W}; (ii) per run, the V_{t,W} total is at most W * V_T.
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    drift = spread_drift_limits(DriftConfig(1.0, 5.0, "sphere-walk", v_total), horizon, d)
    lhs = np.empty((runs, horizon + 1))  # per run: the per-step sums, then the total
    rhs = np.empty_like(lhs)
    rngs = [np.random.default_rng([seed, _T_LOCAL, run]) for run in range(runs)]
    for run, path in enumerate(generate_path(horizon, d, drift, rngs)):
        v_local = local_window_variation(path.thetas, window)
        lhs[run, :-1] = _window_distance_sums(path.thetas, window)
        rhs[run, :-1] = window * v_local
        lhs[run, -1] = v_local.sum()
        rhs[run, -1] = window * path.tv_used
    return _tally(
        "local-variation", lhs.ravel(), rhs.ravel(),
        constants={"W": window, "d": d},
        details={"runs": runs, "horizon": horizon, "v_total": v_total},
    )


def self_normalized_rhs(window: int, d: int, lam: float, delta: float,
                        phi_max: float) -> float:
    """Concentration radius for the noise-weighted feature sum."""
    if window < 1 or d < 1:
        raise ConfigError("window and d must be >= 1")
    if lam <= 0.0 or phi_max <= 0.0:
        raise ConfigError("lam and phi_max must be positive")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    log_term = (d / 2.0) * math.log(1.0 + window * phi_max**2 / (d * lam)) \
        + math.log(1.0 / delta)
    return math.sqrt(lam + window * phi_max**2) * math.sqrt(2.0 * log_term)


def check_self_normalized(
    trials: int = 2000,
    window: int = 100,
    d: int = 5,
    lam: float = 0.1,
    delta: float = 0.05,
    seed: int = 0,
) -> LemmaReport:
    """Noise-weighted feature sums stay inside the concentration radius.

    Noise is centered Bernoulli preference noise (bounded in [-1, 1]), which
    the radius treats as 1-sub-Gaussian; the sharper constant available for
    range-1 bounded noise (1/2) is recorded alongside. The empirical
    violation rate must stay within delta plus three binomial sigma.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    phi_max = 2.0  # winner-minus-loser rows of unit features
    lhs = np.empty(trials)
    for start in range(0, trials, _BLOCK):
        block = range(start, min(start + _BLOCK, trials))
        rows = np.empty((2, len(block), window, d))
        theta = np.empty((len(block), d))
        uniforms = np.empty((len(block), window))
        for i, trial in enumerate(block):  # one trial's own stream, in its draw order
            rng = np.random.default_rng([seed, _T_SELF, trial])
            rng.standard_normal(out=rows[0, i])
            rng.standard_normal(out=rows[1, i])
            rng.standard_normal(out=theta[i])
            rng.random(out=uniforms[i])  # the bits of rng.uniform(size=window)
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        phi = rows[0] - rows[1]
        theta /= np.sqrt(np.vecdot(theta, theta))[:, None]
        p = sigmoid(np.matmul(phi, theta[:, :, None])[:, :, 0])
        eta = (uniforms < p).astype(float) - p
        noise_sum = np.matmul(phi.transpose(0, 2, 1), eta[:, :, None])[:, :, 0]
        lhs[start:block.stop] = np.sqrt(np.vecdot(noise_sum, noise_sum))
    return _tally(
        "self-normalized", lhs, self_normalized_rhs(window, d, lam, delta, phi_max),
        delta=delta,
        constants={
            "phi_max": phi_max, "lambda": lam, "W": window, "d": d,
            "delta": delta, "subgaussian_used": 1.0,
            "subgaussian_bounded_noise": 0.5,
        },
    )


def check_estimation_error(
    runs: int = 50,
    checks_per_run: int = 8,
    window: int = 100,
    horizon: int = 340,
    K: int = 5,
    d: int = 5,
    lam: float = 0.1,
    delta: float = 0.05,
    v_total: float = 0.2,
    seed: int = 0,
) -> LemmaReport:
    """Windowed-logistic error against the three-term bound arithmetic.

    Each run holds the context fixed, streams random-pair preference labels
    under slow spread drift, and refits the window at sampled steps. The
    bound is evaluated with realized constants: the window's drift total,
    its measured covariance floor c = lambda_min(A)/W, curvature floor from
    unit parameters, and phi_max = 2 for difference rows. Each run's check
    windows are fitted as one stack; one stack of every run's windows is no
    faster and raises the traced peak from about 1 MB to 8 MB.
    """
    if runs < 1 or checks_per_run < 1:
        raise ConfigError("runs and checks_per_run must be >= 1")
    if K < 2:
        raise ConfigError(f"random pairs need K >= 2, got {K}")
    if horizon <= window:
        raise ConfigError("horizon must exceed the window length")
    drift = spread_drift_limits(DriftConfig(1.0, 5.0, "sphere-walk", v_total), horizon, d)
    m0 = min_curvature_constant(1.0, 1.0)  # margins lie in [-2, 2]
    check_steps = np.unique(
        np.linspace(window, horizon - 1, checks_per_run).astype(int)
    )
    windows = check_steps[:, None] + np.arange(-window, 0)  # each check step's row indices
    rngs = [np.random.default_rng([seed, _T_EST, run]) for run in range(runs)]
    contexts = [make_features(K, d, rng) for rng in rngs]
    paths = generate_path(horizon, d, drift, rngs)
    lhs, rhs, c_values = [], [], []
    for rng, feats, path in zip(rngs, contexts, paths):
        first, second = draw_pairs(K, horizon, rng)
        dphi = feats[first] - feats[second]
        z = np.einsum("td,td->t", dphi, path.thetas)
        labels = (rng.uniform(size=horizon) < sigmoid(z)).astype(float)
        v_local = local_window_variation(path.thetas, window)
        X = dphi[windows]  # the run's check windows, fitted as one stack
        theta_hat, _ = fit_logistic_window(X, labels[windows], lam)
        diff = theta_hat - path.thetas[check_steps]
        lhs.extend(np.sqrt(np.vecdot(diff, diff)).tolist())
        lambda_min = np.linalg.eigvalsh(np.matmul(X.mT, X) + lam * np.eye(d))[:, 0]
        c_run = (lambda_min / window).tolist()
        c_values += c_run
        rhs += [estimation_error_rhs(v, window, lam, d, delta, m0, c, phi_max=2.0, theta_max=1.0)
                for v, c in zip(v_local[check_steps].tolist(), c_run)]
    return _tally(
        "estimation-error", lhs, rhs, delta=delta,
        constants={
            "phi_max": 2.0, "theta_max": 1.0, "m0": m0,
            "c_mean": float(np.mean(c_values)), "c_min": float(np.min(c_values)),
            "lambda": lam, "W": window, "delta": delta,
        },
        details={"runs": runs, "checks_per_run": int(len(check_steps)),
                 "v_total": v_total},
    )


def scaling_base_config() -> RunConfig:
    """Run settings for the multi-horizon scaling study.

    The environment is one fixed drift process observed at increasing
    horizons: raw step-size limits with an O(1) variation budget, so the
    budget is spent in the opening steps and the parameter is still for
    the rest of the run. Both variants start from the same initial policy,
    fit on a pre-run preference batch, so the run opens with a reference
    that is well adapted — and immediately outdated once the drift spends
    its budget. The fixed arm keeps paying for that stale reference at
    every extra step of horizon; the evolving arm repairs it through
    gated promotions, which is exactly the contrast the slope verdicts
    quantify. With the drift frozen instead, the shared initial policy
    stays adapted and neither arm accumulates bias.
    """
    return RunConfig(
        mode="evodpo",
        K=5,
        d=5,
        H=2000,
        delta_min=1.0,
        delta_max=5.0,
        V_T=2.0,
        drift_spread=False,
        kappa=2.0 / 3.0,
        lam=0.1,
        dpo_lam=2.0,
        beta=0.6,
        beta_ref=0.01,
        eps_s=0.005,
        delta_H=0.05,
        phase_length=20,
        gate_size=32,
        dataset_phases=4,
        warm_scale=60.0,
        warm_pairs=25600,
    )


@dataclass
class ScalingReport:
    """Multi-horizon paired comparison of the two reference policies."""

    horizons: tuple
    seeds: tuple
    evolving_regret: list  # [seed][horizon] final cumulative regret
    fixed_regret: list
    evolving_bias: list  # [seed][horizon] final cumulative bias component
    fixed_bias: list
    evolving_exponents: list
    fixed_exponents: list
    evolving_bias_slopes: list
    fixed_bias_slopes: list
    evolving_exponent: float  # slope of the seed-averaged regret curve
    fixed_exponent: float
    domination: float  # fraction of seeds with evolving exponent strictly lower
    bias_separation: float  # fixed minus evolving seed-averaged bias slope
    accept_rate_mean: float
    passed_exponent: bool
    passed_domination: bool
    passed_bias_separation: bool
    passed: bool


def check_regret_scaling(
    base: RunConfig | None = None,
    horizons: tuple = (2000, 4000, 8000),
    seeds=None,
    min_seeds: int = 20,
) -> ScalingReport:
    """Fit log-log regret exponents for both variants over paired seeds.

    Verdicts: the exponent of the evolving variant's seed-averaged regret
    curve must be <= 0.95; its per-seed exponent must be strictly below
    the fixed variant's on at least 80% of seed pairs; and the slope of
    the fixed variant's seed-averaged cumulative-bias curve must exceed
    the evolving variant's by at least 0.15. Per-seed exponent and slope
    arrays ride along in the report for the paired view.
    """
    if base is None:
        base = scaling_base_config()
    if seeds is None:
        seeds = tuple(range(20))
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < min_seeds:
        raise ConfigError(
            f"scaling study needs at least {min_seeds} seeds, got {len(seeds)}"
        )
    if len(horizons) < 2:
        raise ConfigError("scaling study needs at least two horizons")
    horizons = tuple(int(h) for h in horizons)

    evo_R = np.empty((len(seeds), len(horizons)))
    fix_R = np.empty_like(evo_R)
    evo_B = np.empty_like(evo_R)
    fix_B = np.empty_like(evo_R)
    accept_rates = []
    for i, s in enumerate(seeds):
        for j, T in enumerate(horizons):
            evo = run_preference_loop(replace(base, H=T, mode="evodpo"), s)
            fix = run_preference_loop(replace(base, H=T, mode="fixed-ref"), s)
            evo_R[i, j] = evo.ledger.final_regret()
            fix_R[i, j] = fix.ledger.final_regret()
            evo_B[i, j] = evo.ledger.cumulative_bias()
            fix_B[i, j] = fix.ledger.cumulative_bias()
            rate = evo.accept_rate()
            if rate is not None:
                accept_rates.append(rate)

    evo_exp = [slope_fit(horizons, evo_R[i]) for i in range(len(seeds))]
    fix_exp = [slope_fit(horizons, fix_R[i]) for i in range(len(seeds))]
    evo_bias_slope = [slope_fit(horizons, evo_B[i]) for i in range(len(seeds))]
    fix_bias_slope = [slope_fit(horizons, fix_B[i]) for i in range(len(seeds))]

    evo_agg = float(slope_fit(horizons, evo_R.mean(axis=0)))
    fix_agg = float(slope_fit(horizons, fix_R.mean(axis=0)))
    domination = float(np.mean([e < f for e, f in zip(evo_exp, fix_exp)]))
    separation = float(
        slope_fit(horizons, fix_B.mean(axis=0))
        - slope_fit(horizons, evo_B.mean(axis=0))
    )
    passed_exponent = evo_agg <= MAX_EVOLVING_EXPONENT
    passed_domination = domination >= MIN_DOMINATION
    passed_bias = separation >= MIN_BIAS_SEPARATION
    return ScalingReport(
        horizons=horizons,
        seeds=seeds,
        evolving_regret=evo_R.tolist(),
        fixed_regret=fix_R.tolist(),
        evolving_bias=evo_B.tolist(),
        fixed_bias=fix_B.tolist(),
        evolving_exponents=[float(x) for x in evo_exp],
        fixed_exponents=[float(x) for x in fix_exp],
        evolving_bias_slopes=[float(x) for x in evo_bias_slope],
        fixed_bias_slopes=[float(x) for x in fix_bias_slope],
        evolving_exponent=evo_agg,
        fixed_exponent=fix_agg,
        domination=domination,
        bias_separation=separation,
        accept_rate_mean=float(np.mean(accept_rates)) if accept_rates else math.nan,
        passed_exponent=passed_exponent,
        passed_domination=passed_domination,
        passed_bias_separation=passed_bias,
        passed=passed_exponent and passed_domination and passed_bias,
    )


@dataclass
class FrozenBiasReport:
    """Sanity check: with drift frozen neither variant carries bias."""

    horizon: int
    seeds: tuple
    evolving_mean_abs_bias: float  # mean over seeds of |cumulative bias| / H
    fixed_mean_abs_bias: float
    ceiling: float
    passed: bool


def check_frozen_bias(
    base: RunConfig | None = None,
    horizon: int = 2000,
    seeds=None,
) -> FrozenBiasReport:
    """Run both variants with the parameter frozen; per-step bias must vanish."""
    if base is None:
        base = scaling_base_config()
    if seeds is None:
        seeds = tuple(range(10))
    seeds = tuple(int(s) for s in seeds)
    cfg = replace(base, H=horizon, drift_mode="frozen")
    evo_vals = []
    fix_vals = []
    for s in seeds:
        evo = run_preference_loop(replace(cfg, mode="evodpo"), s)
        fix = run_preference_loop(replace(cfg, mode="fixed-ref"), s)
        evo_vals.append(abs(evo.ledger.cumulative_bias()) / horizon)
        fix_vals.append(abs(fix.ledger.cumulative_bias()) / horizon)
    evo_mean = float(np.mean(evo_vals))
    fix_mean = float(np.mean(fix_vals))
    return FrozenBiasReport(
        horizon=horizon,
        seeds=seeds,
        evolving_mean_abs_bias=evo_mean,
        fixed_mean_abs_bias=fix_mean,
        ceiling=FROZEN_BIAS_CEILING,
        passed=evo_mean <= FROZEN_BIAS_CEILING and fix_mean <= FROZEN_BIAS_CEILING,
    )


def run_standard_checks(cfg: RunConfig | None = None, seed: int = 0) -> list[LemmaReport]:
    """The five quick bound checks with their standard sizes.

    cfg.trials, when positive, overrides the trial counts of the two
    per-trial Monte-Carlo checks; the run-based checks keep their defaults.
    """
    trials_kl = 1000
    trials_self = 2000
    if cfg is not None and cfg.trials > 0:
        trials_kl = cfg.trials
        trials_self = cfg.trials
    return [
        check_kl_bound(trials=trials_kl, seed=seed),
        check_switching_budget(seed=seed),
        check_local_variation(seed=seed),
        check_self_normalized(trials=trials_self, seed=seed),
        check_estimation_error(seed=seed),
    ]
