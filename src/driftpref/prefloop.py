"""Preference-optimization loop with a gated, evolving reference policy.

The learner's policy is always a Gibbs tilt of the current reference by the
windowed utility estimate. At the end of each phase, candidate references
(the phase fit, a half-data checkpoint, and the incumbent) are scored on a
fresh gate subset; the best penalized candidate is promoted only when its
score improvement and its KL distance from the incumbent both clear the gate
thresholds. The mode is the arm: 'fixed-ref' is the identical loop whose
every decision is inert, so the two variants are bit-compatible. promote and
phase_ends are the verdict and the schedule that the island search shares.
The step loop holds only sequential work: the window fit, the learner row,
the pair draws (on the row as Python floats, each label's win probability
read from one table) and the phase gate. It records each step's learner
row and reference tilt; after the loop, one pass builds the ledger.

Policies here are log-linear: a tilt vector g defines softmax(features @ g)
per context, and promoting a Gibbs tilt of the reference adds w / beta to g.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .config import RunConfig
from .env import generate_path, make_drift, make_features, pair_rows
from .errors import ConfigError, ContractError
from .estimator import fit_logistic_window, window_size
from .numerics import newton_logistic, sigmoid
from .policies import kl, softmax_rows
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
    u_rows: np.ndarray,
    beta_ref: float,
) -> tuple[int, float, float]:
    """Pick the candidate maximizing score minus beta_ref * KL to the incumbent.

    The incumbent is the last candidate. A candidate's score is the mean
    over the gate subset's rows of its expected utility under u_rows, and
    its KL the mean of its rows' exact KL to the incumbent's. Ties resolve
    to the earliest candidate. Returns (index, its score minus the
    incumbent's, its KL to the incumbent).
    """
    if beta_ref <= 0.0:
        raise ConfigError(f"beta_ref must be positive, got {beta_ref}")
    if not candidate_rows:
        raise ContractError("need at least one candidate")
    u_rows = np.asarray(u_rows, dtype=float)
    if u_rows.ndim != 2 or any(np.shape(rows) != u_rows.shape for rows in candidate_rows):
        raise ContractError("policy and utility tables must be 2-d and matching")
    scores = [float(np.mean(np.sum(rows * u_rows, axis=1))) for rows in candidate_rows]
    kls = [float(np.mean(kl(rows, candidate_rows[-1]))) for rows in candidate_rows]
    objectives = [s - beta_ref * k for s, k in zip(scores, kls)]
    best = max(range(len(objectives)), key=objectives.__getitem__)
    return best, scores[best] - scores[-1], kls[best]


def gate(delta_s: float, kl_hat: float, cfg: RunConfig) -> bool:
    """Accept iff the score improvement and KL budget both clear (inclusive)."""
    return bool(delta_s >= cfg.eps_s and kl_hat <= cfg.delta_H)


def sample_categorical(rng: np.random.Generator, weights: list[float] | np.ndarray) -> int:
    """One inverse-CDF draw on Python floats; takes one uniform, never draws a zero weight.

    Raises ContractError, before the draw, unless every weight is >= 0 and
    their total is positive and finite (a nan weight makes the total nan).
    """
    if isinstance(weights, np.ndarray):
        weights = weights.tolist()
    cdf = list(accumulate(weights))
    if not (cdf and 0.0 < cdf[-1] < math.inf) or min(weights) < 0.0:
        raise ContractError("weights must be nonnegative with a positive finite total")
    i = bisect_right(cdf, rng.random() * cdf[-1])
    # u * total rounds up to the total only when the total is subnormal
    return i if i < len(cdf) else bisect_left(cdf, cdf[-1])


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


def _warm_start(
    cfg: RunConfig, rng: np.random.Generator, theta0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fit the initial policy on a pre-run preference batch drawn from rng.

    Returns (initial estimate, initial reference tilt). The tilt direction
    comes from data only; warm_scale fixes its length, playing the role of
    the initial policy's sharpness. Both loop variants share this start, so
    the fixed-reference arm begins well adapted and then ages. The batch's
    contexts are never held: pair_rows streams them twice, a block at a
    time, and keeps each pair's difference row, so the peak is the Newton
    fit on those rows.
    """
    dphi = pair_rows(cfg.K, cfg.d, cfg.warm_pairs, rng)
    wins = rng.uniform(size=cfg.warm_pairs) < sigmoid(dphi @ theta0)
    theta_hat, _ = fit_logistic_window(dphi, wins.astype(float), cfg.lam)
    norm = float(np.linalg.norm(theta_hat))
    if norm <= 1e-12:
        return np.zeros(cfg.d), np.zeros(cfg.d)
    return theta_hat, (cfg.warm_scale / norm) * theta_hat


def phase_ends(cfg: RunConfig, steps: int) -> range:
    """The 0-based steps that close a gated phase: each phase_length-th one,
    up to max_phases of them (0: every boundary within the steps)."""
    L = cfg.phase_length
    return range(L - 1, L * (cfg.max_phases or steps // L), L)


def promote(
    phases: list[PhaseReport],
    n_pairs: int,
    gate_size: int,
    tilts: list[np.ndarray],
    proposal: tuple[int, float, float],
    passes: bool,
    evolving: bool,
    cfg: RunConfig,
) -> np.ndarray:
    """Record one gated phase in phases and return the tilt in force after it.

    tilts are the candidates in CANDIDATE_LABELS order, the incumbent last;
    proposal is propose_reference's verdict on them and passes the gate's.
    A non-evolving run decides 'inert' and never accepts. The version, read
    off the last report, counts accepted candidates other than the incumbent.
    """
    best, delta_s, kl_hat = proposal
    accepted = passes and evolving
    promoted = accepted and best != len(tilts) - 1
    version = phases[-1].ref_version_after if phases else 0
    phases.append(PhaseReport(
        phase_index=len(phases) + 1, n_pairs=n_pairs, delta_s=delta_s, kl_hat=kl_hat,
        decision=("accept" if accepted else "reject") if evolving else "inert",
        accepted=accepted, chosen=CANDIDATE_LABELS[best], ref_version_before=version,
        ref_version_after=version + 1 if promoted else version, beta=cfg.beta,
        eps_s=cfg.eps_s, delta_H=cfg.delta_H, gate_size=gate_size,
    ))
    return tilts[best] if promoted else tilts[-1]


def run_preference_loop(cfg: RunConfig, seed: int) -> RunRecord:
    """Run the full drifting-preference loop for one seed.

    The mode is the arm: 'evodpo' evolves the reference, 'fixed-ref' never does.
    """
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
        feats_all = np.broadcast_to(make_features(K, d, rng_ctx), (H, K, d))
    else:
        feats_all = make_features(K, d, rng_ctx, (H,))
    # each (K, d) @ (d,) slice of the batched product has the per-step bits
    utils = np.matmul(feats_all, path.thetas[:, :, None])[:, :, 0]

    # each step's difference row and label; step t fits on the W before it
    rows = np.empty((H, d))
    labels = np.empty(H)
    # each step's played row and reference tilt, for the ledger after the loop
    learners = np.empty((H, K))
    g_refs = np.empty((H, d))
    theta_hat = np.zeros(d)
    g_ref = np.zeros(d)
    if cfg.warm_scale > 0.0:
        theta_hat, g_ref = _warm_start(cfg, np.random.default_rng([seed, _S_WARM]),
                                        path.thetas[0])
    # P(a beats b at step t); made after the warm start, which sets the peak memory
    win_prob = sigmoid(utils[:, :, None] - utils[:, None, :])

    ends = phase_ends(cfg, H)
    phases: list[PhaseReport] = []

    for t in range(H):
        phi = feats_all[t]
        if t > 0:
            lo = max(0, t - W)
            theta_hat, _ = fit_logistic_window(
                rows[lo:t], labels[lo:t], cfg.lam, theta0=theta_hat)

        learner = learners[t] = softmax_rows(phi @ (g_ref + theta_hat / cfg.beta),
                                             floor=cfg.pi_min)
        g_refs[t] = g_ref  # before any phase update: the reference is constant in-phase

        weights = learner.tolist()
        first = sample_categorical(rng_agent, weights)
        weights[first] = 0.0  # the second action differs from the first
        second = sample_categorical(rng_agent, weights)
        rows[t] = phi[first] - phi[second]
        labels[t] = rng_agent.random() < win_prob[t, first, second]  # 1.0: the first wins

        if t in ends:
            # gated phases run back to back from step 0, so the last
            # dataset_phases of them are one slice; a - b is exactly -(b - a),
            # so each row is the winner minus the loser
            lo = max(0, t + 1 - cfg.dataset_phases * cfg.phase_length)
            dphi = np.where(labels[lo:t + 1, None] == 1.0, rows[lo:t + 1], -rows[lo:t + 1])
            w_full = fit_dpo(dphi, cfg.dpo_lam)
            w_half = fit_dpo(dphi[: math.ceil(len(dphi) / 2)], cfg.dpo_lam)
            # a fresh gate subset from this phase's own steps
            take = min(cfg.gate_size, cfg.phase_length)
            gate_ids = rng_gate.choice(cfg.phase_length, size=take, replace=False)
            gate_feats = feats_all[t + 1 - cfg.phase_length + gate_ids]
            scorer = path.thetas[t] if cfg.true_theta_scores else theta_hat
            u_rows = np.einsum("nkd,d->nk", gate_feats, scorer)
            tilts = [g_ref + w_full / cfg.beta, g_ref + w_half / cfg.beta, g_ref]
            cand_rows = [softmax_rows(np.einsum("nkd,d->nk", gate_feats, g), floor=cfg.pi_min)
                         for g in tilts]
            proposal = propose_reference(cand_rows, u_rows, cfg.beta_ref)
            g_ref = promote(phases, len(dphi), take, tilts, proposal,
                            gate(*proposal[1:], cfg), evolving, cfg)

    # each (K, d) @ (d,) slice and each softmax row has its per-step bits
    comparators = softmax_rows(
        np.matmul(feats_all, (g_refs + path.thetas / cfg.beta_ref)[:, :, None])[:, :, 0],
        floor=cfg.pi_min)
    bias, error = regret_decompose(utils, learners, comparators)
    regret_step = bias + error
    step = np.arange(H)
    led = RegretLedger(
        t=step + 1,
        phase=np.minimum(step // cfg.phase_length, len(ends)) + 1,
        bias=bias,
        error=error,
        regret_step=regret_step,
        regret_cum=np.cumsum(regret_step),
        oracle_arm=np.argmax(utils, axis=1),
        switch=switch_flags(path.thetas, feats_all),
    )
    return RunRecord(ledger=led, final_metric=led.final_regret(), phases=phases,
                     evolving=evolving)
