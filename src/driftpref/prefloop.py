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
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .env import generate_path, make_drift, make_features
from .errors import ConfigError, ContractError
from .estimator import fit_logistic_window, window_size
from .numerics import newton_logistic, sigmoid
from .policies import gate_kl_estimate, inspector_score, softmax_rows
from .regret import RegretLedger, regret_decompose, switch_flags

# Substream tags: path, contexts, agent draws, gate subsets, warmup batch.
_S_PATH, _S_CTX, _S_AGENT, _S_GATE, _S_WARM = 0, 1, 2, 3, 4

CANDIDATE_LABELS = ("full", "half", "reference")


@dataclass
class PhaseReport:
    """Outcome of one fine-tuning phase."""

    phase_index: int
    n_pairs: int
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


def fit_dpo(dphi: np.ndarray, lam: float) -> np.ndarray:
    """Tilt w of the Gibbs-class policy that minimizes the preference loss.

    In the class softmax(log ref + phi @ w / beta), a pair whose
    winner-minus-loser feature row is x has loss -log sigmoid(x @ w), whatever
    the reference and beta. So the fit is a logistic problem on the rows of
    dphi with every label 1; an L2 penalty (lam) keeps it strictly convex.
    Zero rows give the zero tilt, which leaves the reference unchanged.
    """
    if lam <= 0.0:
        raise ConfigError(f"lam must be positive, got {lam}")
    return newton_logistic(dphi, 1.0, lam, "preference fit")[0]


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
    return min(int(np.searchsorted(cdf, u, side="right")), probs.shape[0] - 1)


@dataclass(kw_only=True)
class RunRecord:
    """What one seed's run of any mode reports.

    The ledger has one row per step (one per round for the island search),
    and final_metric is the run's headline number. The phase counts and the
    reference version are read off the phases; a skipped phase is not gated.
    """

    ledger: RegretLedger
    final_metric: float
    phases: list[PhaseReport] = field(default_factory=list)
    evolving: bool = False

    @property
    def accepted_phases(self) -> int:
        return sum(p.accepted for p in self.phases)

    @property
    def gated_phases(self) -> int:
        return sum(p.decision != "skipped" for p in self.phases)

    @property
    def ref_version(self) -> int:
        return self.phases[-1].ref_version_after if self.phases else 0

    def accept_rate(self) -> float | None:
        if not self.evolving or self.gated_phases == 0:
            return None
        return self.accepted_phases / self.gated_phases


@dataclass(kw_only=True)
class PrefRunResult(RunRecord):
    """A phase-loop run's record and its final reference tilt."""

    ref_tilt: np.ndarray


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
    theta_hat, _ = fit_logistic_window(dphi, wins.astype(float), cfg.lam)
    norm = float(np.linalg.norm(theta_hat))
    if norm <= 1e-12:
        return np.zeros(d), np.zeros(d)
    return theta_hat, (cfg.warm_scale / norm) * theta_hat


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
    # each (K, d) @ (d,) slice of the batched product has the per-step bits
    utils = np.matmul(feats_all, path.thetas[:, :, None])[:, :, 0]

    # each step's difference row and label; step t fits on the W before it
    rows = np.empty((H, d))
    labels = np.empty(H)
    theta_hat = np.zeros(d)
    g_ref = np.zeros(d)
    if cfg.warm_scale > 0.0:
        theta_hat, g_ref = _warm_start(cfg, seed, path.thetas[0])
    ref_version = 0
    floor = cfg.pi_min

    max_phases = cfg.max_phases if cfg.max_phases > 0 else H // cfg.phase_length
    phases: list[PhaseReport] = []

    led = RegretLedger(
        t=np.arange(1, H + 1),
        phase=np.zeros(H, dtype=int),
        bias=np.zeros(H),
        error=np.zeros(H),
        regret_step=np.zeros(H),
        regret_cum=np.zeros(H),
        oracle_arm=np.argmax(utils, axis=1),
        switch=switch_flags(path.thetas, feats_all),
    )

    cum = 0.0
    phase_index = 0
    block_end = 0
    for t in range(H):
        phi = feats_all[t]
        u_true = utils[t]

        if t > 0:
            lo = max(0, t - W)
            theta_hat, _ = fit_logistic_window(
                rows[lo:t], labels[lo:t], cfg.lam, theta0=theta_hat)

        learner = softmax_rows(phi @ (g_ref + theta_hat / cfg.beta), floor=floor)
        if t == block_end:
            # g_ref holds until the next gated boundary, so the comparator
            # rows up to it are one batched softmax (per-step bits, as above)
            block_start = t
            block_end = H if phase_index >= max_phases else t + cfg.phase_length
            vecs = g_ref + path.thetas[t:block_end] / cfg.beta_ref
            comparators = softmax_rows(
                np.matmul(feats_all[t:block_end], vecs[:, :, None])[:, :, 0],
                floor=floor)
        comparator = comparators[t - block_start]

        # ledger before any phase update: the reference is constant in-phase
        bias, error = regret_decompose(u_true, learner, comparator)
        cum += bias + error
        led.phase[t] = phase_index + 1
        led.bias[t] = bias
        led.error[t] = error
        led.regret_step[t] = bias + error
        led.regret_cum[t] = cum

        first = sample_categorical(rng_agent, learner)
        residual = learner.copy()
        residual[first] = 0.0
        second = sample_categorical(rng_agent, residual)
        gap = float(u_true[first] - u_true[second])
        p_first = float(sigmoid(gap))
        first_wins = bool(rng_agent.uniform() < p_first)
        rows[t] = phi[first] - phi[second]
        labels[t] = 1.0 if first_wins else 0.0

        if (t + 1) % cfg.phase_length == 0 and phase_index < max_phases:
            phase_index += 1
            # gated phases run back to back from step 0, so the last
            # dataset_phases of them are one slice; a - b is exactly -(b - a),
            # so each row is the winner minus the loser
            lo = max(0, t + 1 - cfg.dataset_phases * cfg.phase_length)
            dphi = np.where(labels[lo:t + 1, None] == 1.0, rows[lo:t + 1], -rows[lo:t + 1])
            report, g_new, version_new = _run_phase(
                phase_index, dphi, feats_all, g_ref, ref_version, theta_hat,
                path.thetas[t], cfg, rng_gate, evolving,
                phase_start=t + 1 - cfg.phase_length,
            )
            phases.append(report)
            g_ref, ref_version = g_new, version_new

    return PrefRunResult(ledger=led, final_metric=led.final_regret(), phases=phases,
                         evolving=evolving, ref_tilt=g_ref)


def _run_phase(
    phase_index: int,
    dphi: np.ndarray,
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
    """Fit candidates on the rows dphi, gate the best one, maybe promote it."""
    w_full = fit_dpo(dphi, cfg.dpo_lam)
    w_half = fit_dpo(dphi[: math.ceil(len(dphi) / 2)], cfg.dpo_lam)

    # fresh gate subset from this phase's own steps
    population = cfg.phase_length
    take = min(cfg.gate_size, population)
    gate_ids = phase_start + rng_gate.choice(population, size=take, replace=False)
    gate_feats = feats_all[gate_ids]
    scorer = theta_true if cfg.true_theta_scores else theta_hat
    u_rows = np.einsum("nkd,d->nk", gate_feats, scorer)

    tilts = [
        g_ref + w_full / cfg.beta,
        g_ref + w_half / cfg.beta,
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
        n_pairs=len(dphi),
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
