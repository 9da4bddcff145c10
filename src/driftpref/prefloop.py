"""Preference-optimization loop with a gated, evolving reference policy.

The learner's policy is always a Gibbs tilt of the current reference by the
windowed utility estimate. At the end of each phase, candidate references
(the phase fit, a half-data checkpoint, and the incumbent) are scored on a
fresh gate subset; the best penalized candidate is promoted only when its
score improvement and its KL distance from the incumbent both clear the gate
thresholds. The fixed-reference baseline is the identical loop with the gate
decision forced to reject, so the two variants are bit-compatible.

Policies here are log-linear: a tilt vector g defines softmax(features @ g)
per context, and promoting a Gibbs tilt of the reference adds w / beta to g.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .env import generate_path, make_drift, make_features
from .errors import ConfigError, ContractError, ConvergenceError
from .estimator import WindowBuffer, fit_logistic_window, window_size
from .numerics import log_sigmoid, sigmoid, softplus
from .policies import gate_kl_estimate, inspector_score, softmax_rows
from .regret import RegretLedger, oracle_action, regret_decompose

# Substream tags: path, contexts, agent draws, gate subsets, warmup batch.
_S_PATH, _S_CTX, _S_AGENT, _S_GATE, _S_WARM = 0, 1, 2, 3, 4

CANDIDATE_LABELS = ("full", "half", "reference")


@dataclass(frozen=True)
class PreferencePair:
    """One labeled comparison: the winner and loser share a context."""

    context_id: int
    winner: int
    loser: int

    def __post_init__(self):
        if self.winner == self.loser:
            raise ContractError("a preference pair needs two distinct actions")


@dataclass
class PhaseReport:
    """Outcome of one fine-tuning phase."""

    phase_index: int
    n_pairs: int
    loss_trace: list[float]
    delta_s: float
    kl_hat: float
    decision: str  # accept | reject | inert | skipped
    accepted: bool
    chosen: str
    ref_version_before: int
    ref_version_after: int
    beta: float
    eps_s: float
    delta_H: float
    gate_size: int


@dataclass
class DpoFit:
    """Fitted Gibbs-class policy for a pair dataset."""

    tables: np.ndarray  # (n_contexts, K) policy rows on the fitted contexts
    tilt: np.ndarray  # w; the fitted policy is softmax(log ref + phi @ w / beta)
    loss_trace: list[float]
    grad_norm: float
    converged: bool


def dpo_loss(
    pi_rows: np.ndarray,
    ref_rows: np.ndarray,
    pairs: list[PreferencePair],
    beta: float,
) -> float:
    """Mean preference loss of a policy against a reference.

    Each pair contributes -log sigmoid(beta * (log-ratio of the winner minus
    log-ratio of the loser)). Both tables are indexed by pair context ids.
    """
    if beta <= 0.0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if not pairs:
        raise ContractError("dpo_loss needs at least one pair")
    pi_rows = np.asarray(pi_rows, dtype=float)
    ref_rows = np.asarray(ref_rows, dtype=float)
    if np.any(pi_rows <= 0.0) or np.any(ref_rows <= 0.0):
        raise ContractError("policy and reference rows must have full support")
    ctx = np.array([p.context_id for p in pairs])
    win = np.array([p.winner for p in pairs])
    lose = np.array([p.loser for p in pairs])
    log_ratio = np.log(pi_rows) - np.log(ref_rows)
    margin = beta * (log_ratio[ctx, win] - log_ratio[ctx, lose])
    return float(np.mean(-log_sigmoid(margin)))


def fit_dpo(
    ref_rows: np.ndarray,
    feats: np.ndarray,
    pairs: list[PreferencePair],
    beta: float,
    lam: float = 0.1,
    tol: float = 1e-8,
    max_iter: int = 500,
    floor: float = 1e-9,
) -> DpoFit:
    """Minimize the preference loss over Gibbs tilts of the reference.

    The policy class is softmax(log ref + phi @ w / beta) with w free, so the
    pair loss reduces to a logistic loss on winner-minus-loser feature rows;
    an L2 penalty (lam) keeps the problem strictly convex. Solved by damped
    Newton with Armijo backtracking. Zero pairs returns the reference.
    """
    if beta <= 0.0 or lam <= 0.0:
        raise ConfigError("beta and lam must be positive")
    ref_rows = np.asarray(ref_rows, dtype=float)
    feats = np.asarray(feats, dtype=float)
    if ref_rows.ndim != 2 or feats.ndim != 3 or feats.shape[:2] != ref_rows.shape:
        raise ContractError("ref_rows must be (n, K) and feats (n, K, d)")
    d = feats.shape[2]
    if not pairs:
        return DpoFit(ref_rows.copy(), np.zeros(d), [], 0.0, True)
    ctx = np.array([p.context_id for p in pairs])
    if ctx.min() < 0 or ctx.max() >= ref_rows.shape[0]:
        raise ContractError("pair context ids must index the provided tables")
    win = np.array([p.winner for p in pairs])
    lose = np.array([p.loser for p in pairs])
    dphi = feats[ctx, win] - feats[ctx, lose]  # (n_pairs, d)

    w = np.zeros(d)
    trace: list[float] = []
    grad_norm = math.inf
    converged = False
    obj = float(np.sum(softplus(-dphi @ w)) + 0.5 * lam * (w @ w))
    for _ in range(max_iter):
        m = dphi @ w
        trace.append(float(np.mean(softplus(-m))))
        s = sigmoid(m)
        grad = dphi.T @ (s - 1.0) + lam * w
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            converged = True
            break
        curvature = s * (1.0 - s)
        hess = (dphi * curvature[:, None]).T @ dphi + lam * np.eye(d)
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        if grad @ direction >= 0.0:
            direction = -grad
        step = 1.0
        slope = float(grad @ direction)
        slack = 1e-12 * max(1.0, abs(obj))  # float-rounding guard near optimum
        for _ in range(60):
            cand = w + step * direction
            cand_obj = float(np.sum(softplus(-dphi @ cand)) + 0.5 * lam * (cand @ cand))
            if cand_obj <= obj + 1e-4 * step * slope + slack:
                w, obj = cand, cand_obj
                break
            step *= 0.5
        else:
            step = 1.0 / (0.25 * float(np.sum(dphi * dphi)) + lam)
            w = w - step * grad
            obj = float(np.sum(softplus(-dphi @ w)) + 0.5 * lam * (w @ w))
    if not converged:
        m = dphi @ w
        grad = dphi.T @ (sigmoid(m) - 1.0) + lam * w
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm > tol:
            raise ConvergenceError("preference fit did not converge", w, grad_norm)
        converged = True
    logits = np.log(ref_rows) + np.einsum("nkd,d->nk", feats, w) / beta
    tables = softmax_rows(logits, floor=floor)
    return DpoFit(tables, w, trace, grad_norm, converged)


def propose_reference(
    candidate_rows: list[np.ndarray],
    ref_rows: np.ndarray,
    u_rows: np.ndarray,
    beta_ref: float,
) -> tuple[int, np.ndarray]:
    """Pick the candidate maximizing score minus beta_ref * KL to the incumbent.

    Scores and KL are means over the gate subset's rows. Ties resolve to the
    earliest candidate. Returns (index, penalized objectives).
    """
    if beta_ref <= 0.0:
        raise ConfigError(f"beta_ref must be positive, got {beta_ref}")
    if not candidate_rows:
        raise ContractError("need at least one candidate")
    objectives = np.empty(len(candidate_rows))
    for i, rows in enumerate(candidate_rows):
        objectives[i] = inspector_score(rows, u_rows) - beta_ref * gate_kl_estimate(
            rows, ref_rows
        )
    best = 0
    for i in range(1, len(candidate_rows)):
        if objectives[i] > objectives[best]:
            best = i
    return best, objectives


def gate(delta_s: float, kl_hat: float, cfg: RunConfig) -> bool:
    """Accept iff the score improvement and KL budget both clear (inclusive)."""
    return bool(delta_s >= cfg.eps_s and kl_hat <= cfg.delta_H)


def sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> int:
    """One inverse-CDF draw; consumes exactly one uniform."""
    cdf = np.cumsum(probs)
    u = rng.uniform() * cdf[-1]
    return int(np.searchsorted(cdf, u, side="right").clip(0, probs.shape[0] - 1))


@dataclass
class PrefRunResult:
    """Everything one phase-loop run produced."""

    ledger: RegretLedger
    phases: list[PhaseReport]
    evolving: bool
    window: int
    tv_used: float
    ref_version: int
    accepted_phases: int
    gated_phases: int
    theta_hat_final: np.ndarray
    ref_tilt: np.ndarray

    def accept_rate(self) -> float | None:
        if not self.evolving or self.gated_phases == 0:
            return None
        return self.accepted_phases / self.gated_phases


def _warm_start(
    cfg: RunConfig, seed: int, theta0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fit the initial policy on a pre-run preference batch.

    Returns (initial estimate, initial reference tilt). The tilt direction
    comes from data only; warm_scale fixes its length, playing the role of
    the initial policy's sharpness. Both loop variants share this start, so
    the fixed-reference arm begins well adapted and then ages.
    """
    rng = np.random.default_rng([seed, _S_WARM])
    n0, K, d = cfg.warm_pairs, cfg.K, cfg.d
    phi = rng.standard_normal((n0, K, d))
    phi /= np.linalg.norm(phi, axis=2, keepdims=True)
    first = rng.integers(K, size=n0)
    raw = rng.integers(K - 1, size=n0)
    second = raw + (raw >= first)
    rows = np.arange(n0)
    dphi = phi[rows, first] - phi[rows, second]
    wins = rng.uniform(size=n0) < sigmoid(dphi @ theta0)
    buf = WindowBuffer(n0, d)
    for row, win in zip(dphi, wins):
        buf.push(row, 1.0 if win else 0.0)
    est = fit_logistic_window(buf, cfg.lam)
    norm = float(np.linalg.norm(est.theta_hat))
    if norm <= 1e-12:
        return np.zeros(d), np.zeros(d)
    return est.theta_hat, (cfg.warm_scale / norm) * est.theta_hat


def run_preference_loop(
    cfg: RunConfig, seed: int, evolving: bool | None = None
) -> PrefRunResult:
    """Run the full drifting-preference loop for one seed.

    evolving defaults from cfg.mode ('evodpo' evolves the reference,
    'fixed-ref' never does).
    """
    if evolving is None:
        if cfg.mode not in ("evodpo", "fixed-ref"):
            raise ConfigError(f"mode {cfg.mode!r} is not a preference-loop mode")
        evolving = cfg.mode == "evodpo"
    if cfg.K < 2:
        raise ConfigError("preference collection needs at least two actions")
    H, K, d = cfg.H, cfg.K, cfg.d
    W = window_size(H, cfg.kappa)
    drift = make_drift(cfg, H)

    rng_path = np.random.default_rng([seed, _S_PATH])
    rng_ctx = np.random.default_rng([seed, _S_CTX])
    rng_agent = np.random.default_rng([seed, _S_AGENT])
    rng_gate = np.random.default_rng([seed, _S_GATE])

    path = generate_path(H, d, drift, rng_path)
    if cfg.fixed_context:
        shared = make_features(K, d, rng_ctx)
        feats_all = np.broadcast_to(shared, (H, K, d))
    else:
        feats_all = rng_ctx.standard_normal((H, K, d))
        feats_all /= np.linalg.norm(feats_all, axis=2, keepdims=True)

    buffer = WindowBuffer(W, d)
    theta_hat = np.zeros(d)
    g_ref = np.zeros(d)
    if cfg.warm_scale > 0.0:
        theta_hat, g_ref = _warm_start(cfg, seed, path.thetas[0])
    ref_version = 0
    floor = cfg.pi_min

    max_phases = cfg.max_phases if cfg.max_phases > 0 else H // cfg.phase_length
    dataset: deque[list[PreferencePair]] = deque(maxlen=cfg.dataset_phases)
    phase_pairs: list[PreferencePair] = []
    phases: list[PhaseReport] = []
    accepted_phases = 0
    gated_phases = 0

    led = RegretLedger(
        t=np.arange(1, H + 1),
        phase=np.zeros(H, dtype=int),
        bias=np.zeros(H),
        error=np.zeros(H),
        regret_step=np.zeros(H),
        regret_cum=np.zeros(H),
        oracle_arm=np.zeros(H, dtype=int),
        switch=np.zeros(H, dtype=int),
    )

    cum = 0.0
    phase_index = 0
    for t in range(H):
        phi = feats_all[t]
        theta = path.thetas[t]
        u_true = phi @ theta

        if len(buffer) > 0:
            est = fit_logistic_window(buffer, cfg.lam, theta0=theta_hat)
            theta_hat = est.theta_hat

        learner = softmax_rows(phi @ (g_ref + theta_hat / cfg.beta), floor=floor)
        comparator = softmax_rows(phi @ (g_ref + theta / cfg.beta_ref), floor=floor)

        # ledger before any phase update: the reference is constant in-phase
        oracle = oracle_action(u_true)
        bias, error = regret_decompose(u_true, learner, comparator)
        cum += bias + error
        led.phase[t] = phase_index + 1
        led.bias[t] = bias
        led.error[t] = error
        led.regret_step[t] = bias + error
        led.regret_cum[t] = cum
        led.oracle_arm[t] = oracle
        if t > 0:
            prev_oracle = int(np.argmax(phi @ path.thetas[t - 1]))
            led.switch[t] = int(oracle != prev_oracle)

        first = sample_categorical(rng_agent, learner)
        residual = learner.copy()
        residual[first] = 0.0
        second = sample_categorical(rng_agent, residual)
        gap = float(u_true[first] - u_true[second])
        p_first = float(sigmoid(gap))
        first_wins = bool(rng_agent.uniform() < p_first)
        winner, loser = (first, second) if first_wins else (second, first)
        buffer.push(phi[first] - phi[second], 1.0 if first_wins else 0.0)
        phase_pairs.append(PreferencePair(context_id=t, winner=winner, loser=loser))

        if (t + 1) % cfg.phase_length == 0 and phase_index < max_phases:
            phase_index += 1
            dataset.append(phase_pairs)
            report, g_new, version_new = _run_phase(
                phase_index, dataset, feats_all, g_ref, ref_version, theta_hat,
                path.thetas[t], cfg, rng_gate, evolving,
                phase_start=t + 1 - cfg.phase_length,
            )
            phases.append(report)
            gated_phases += 1
            if report.accepted:
                accepted_phases += 1
            g_ref, ref_version = g_new, version_new
            phase_pairs = []

    return PrefRunResult(
        ledger=led,
        phases=phases,
        evolving=evolving,
        window=W,
        tv_used=path.tv_used,
        ref_version=ref_version,
        accepted_phases=accepted_phases,
        gated_phases=gated_phases,
        theta_hat_final=theta_hat,
        ref_tilt=g_ref,
    )


def _run_phase(
    phase_index: int,
    dataset: deque,
    feats_all: np.ndarray,
    g_ref: np.ndarray,
    ref_version: int,
    theta_hat: np.ndarray,
    theta_true: np.ndarray,
    cfg: RunConfig,
    rng_gate: np.random.Generator,
    evolving: bool,
    phase_start: int,
) -> tuple[PhaseReport, np.ndarray, int]:
    """Fit candidates, gate the best one, and maybe promote the reference."""
    pairs = [p for chunk in dataset for p in chunk]
    # remap pair contexts onto a compact table of the contexts they touch
    ctx_ids = sorted({p.context_id for p in pairs})
    pos = {c: i for i, c in enumerate(ctx_ids)}
    feats_sub = feats_all[ctx_ids]
    ref_sub = softmax_rows(
        np.einsum("nkd,d->nk", feats_sub, g_ref), floor=cfg.pi_min
    )
    local_pairs = [replace(p, context_id=pos[p.context_id]) for p in pairs]

    fit_full = fit_dpo(ref_sub, feats_sub, local_pairs, cfg.beta,
                       lam=cfg.dpo_lam, floor=cfg.pi_min)
    half = local_pairs[: math.ceil(len(local_pairs) / 2)]
    fit_half = fit_dpo(ref_sub, feats_sub, half, cfg.beta,
                       lam=cfg.dpo_lam, floor=cfg.pi_min)

    # fresh gate subset from this phase's own steps
    population = cfg.phase_length
    take = min(cfg.gate_size, population)
    gate_ids = phase_start + rng_gate.choice(population, size=take, replace=False)
    gate_feats = feats_all[gate_ids]
    scorer = theta_true if cfg.true_theta_scores else theta_hat
    u_rows = np.einsum("nkd,d->nk", gate_feats, scorer)

    tilts = [
        g_ref + fit_full.tilt / cfg.beta,
        g_ref + fit_half.tilt / cfg.beta,
        g_ref,
    ]
    cand_rows = [
        softmax_rows(np.einsum("nkd,d->nk", gate_feats, g), floor=cfg.pi_min)
        for g in tilts
    ]
    ref_rows = cand_rows[2]
    best, _ = propose_reference(cand_rows, ref_rows, u_rows, cfg.beta_ref)
    delta_s = inspector_score(cand_rows[best], u_rows) - inspector_score(
        ref_rows, u_rows
    )
    kl_hat = gate_kl_estimate(cand_rows[best], ref_rows)

    passes = gate(delta_s, kl_hat, cfg)
    accepted = bool(passes and evolving)
    if not evolving:
        decision = "inert"
    else:
        decision = "accept" if accepted else "reject"
    new_ref = g_ref
    new_version = ref_version
    if accepted and CANDIDATE_LABELS[best] != "reference":
        new_ref = tilts[best]
        new_version = ref_version + 1

    report = PhaseReport(
        phase_index=phase_index,
        n_pairs=len(pairs),
        loss_trace=fit_full.loss_trace,
        delta_s=float(delta_s),
        kl_hat=float(kl_hat),
        decision=decision,
        accepted=accepted,
        chosen=CANDIDATE_LABELS[best],
        ref_version_before=ref_version,
        ref_version_after=new_version,
        beta=cfg.beta,
        eps_s=cfg.eps_s,
        delta_H=cfg.delta_H,
        gate_size=take,
    )
    return report, new_ref, new_version
