"""Island-based strategy search over sliding-window bandit hyperparameters.

A small panel of anchor strategies (window size, ridge weight, exploration
width) defines the action menu. Each round, every island samples an anchor
from the shared sampling policy, jitters it locally, and scores the jittered
candidate by simulated episodes of a drifting reward bandit (negative mean
regret, higher is better). Scores stream into a rolling window whose
quantile sets the pass threshold. At phase boundaries the top-s passed
candidates are paired against weaker ones, the pairs drive the same gated
reference-promotion machinery as the preference loop, and simple telemetry
rules adjust the phase settings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .env import DriftConfig, ThetaPath, generate_path, make_drift
from .errors import ConfigError, ContractError
from .policies import gate_kl_estimate, inspector_score, softmax_rows
from .prefloop import (
    PhaseReport,
    PreferencePair,
    fit_dpo,
    gate,
    propose_reference,
    sample_categorical,
)
from .regret import nmr as nmr_of

# Substream tags (distinct from the preference loop's 0..3).
_S_EPATH, _S_ECTX, _S_ENOISE = 0, 1, 2
_S_ISLAND, _S_EVAL, _S_GATE2, _S_PAIRS = 5, 6, 7, 8

_SCALE_CAP = 16.0  # invented plumbing: keep the proposal spread bounded
_SCORE_WINDOW = 50

ALPHA_GRID = (0.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class StrategyCandidate:
    """Hyperparameters of the sliding-window UCB policy being searched."""

    window_size: int
    lambda_reg: float
    ucb_alpha: float

    def __post_init__(self):
        if self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")
        if self.lambda_reg <= 0.0:
            raise ConfigError(f"lambda_reg must be positive, got {self.lambda_reg}")
        if self.ucb_alpha < 0.0:
            raise ConfigError(f"ucb_alpha must be >= 0, got {self.ucb_alpha}")


def candidate_descriptor(cand: StrategyCandidate) -> np.ndarray:
    """Unit-norm feature row describing a candidate's hyperparameters."""
    raw = np.array([
        math.log2(cand.window_size) / 10.0,
        (math.log10(cand.lambda_reg) + 3.0) / 4.0,
        cand.ucb_alpha / 2.0,
        1.0,
    ])
    return raw / np.linalg.norm(raw)


def cluster_of(cand: StrategyCandidate) -> tuple[int, int, float]:
    """Coarse grid cell (log2 window, log10 ridge, nearest alpha)."""
    w_cell = int(np.clip(round(math.log2(cand.window_size)), 0, 10))
    l_cell = int(np.clip(round(math.log10(cand.lambda_reg)), -3, 1))
    a_cell = min(ALPHA_GRID, key=lambda a: abs(a - cand.ucb_alpha))
    return (w_cell, l_cell, a_cell)


def default_anchor_panel() -> tuple[list[StrategyCandidate], np.ndarray]:
    """Fixed anchor menu and its (1, n_anchors, 4) feature tensor."""
    anchors = [
        StrategyCandidate(window_size=w, lambda_reg=l, ucb_alpha=a)
        for w in (8, 20, 50, 200)
        for l in (0.1, 1.0)
        for a in (0.5, 1.0)
    ]
    feats = np.stack([candidate_descriptor(c) for c in anchors])
    return anchors, feats[None, :, :]


@dataclass
class EpisodeResult:
    """One reward-bandit episode's regret accounting."""

    expected_best: np.ndarray
    expected_chosen: np.ndarray
    oracle_arm: np.ndarray
    switch: np.ndarray
    nmr: float


def run_reward_episode(
    cand: StrategyCandidate,
    K: int,
    d: int,
    horizon: int,
    path: ThetaPath,
    noise_scale: float,
    rng_ctx: np.random.Generator,
    rng_noise: np.random.Generator,
) -> EpisodeResult:
    """Play the sliding-window UCB policy against rewards drifting along path."""
    if K < 1 or horizon < 1:
        raise ConfigError("need K >= 1 and horizon >= 1")
    if path.thetas.shape != (horizon, d):
        raise ContractError(
            f"path has shape {path.thetas.shape}, expected {(horizon, d)}")
    feats = rng_ctx.standard_normal((horizon, K, d))
    feats /= np.linalg.norm(feats, axis=2, keepdims=True)

    # Everything that does not depend on the chosen arms is computed up front;
    # each (K, d) @ (d,) slice gives the same bits as the per-step product.
    utils = np.matmul(feats, path.thetas[:, :, None])[:, :, 0]
    stale = np.matmul(feats[1:], path.thetas[:-1, :, None])[:, :, 0]
    noise = rng_noise.standard_normal(horizon)
    expected_best = utils.max(axis=1)
    oracle_arm = np.argmax(utils, axis=1)
    switch = np.zeros(horizon, dtype=int)
    switch[1:] = oracle_arm[1:] != np.argmax(stale, axis=1)

    W = cand.window_size
    A = cand.lambda_reg * np.eye(d)
    b = np.zeros(d)
    rhs = np.empty((d, K + 1))
    arms = np.empty(horizon, dtype=int)
    rewards = np.empty(horizon)
    for t in range(horizon):
        ft = feats[t]
        rhs[:, 0] = b
        rhs[:, 1:] = ft.T
        solved = np.linalg.solve(A, rhs)
        widths = np.sqrt(np.maximum((ft.T * solved[:, 1:]).sum(axis=0), 0.0))
        arm = int((ft @ solved[:, 0] + cand.ucb_alpha * widths).argmax())
        reward = float(utils[t, arm]) + noise_scale * float(noise[t])
        if t >= W:  # the window is full: drop its oldest observation
            old_x = feats[t - W, arms[t - W]]
            A -= old_x[:, None] * old_x
            b -= rewards[t - W] * old_x
        x = ft[arm]
        A += x[:, None] * x
        b += reward * x
        arms[t] = arm
        rewards[t] = reward
    expected_chosen = utils[np.arange(horizon), arms]

    return EpisodeResult(
        expected_best=expected_best,
        expected_chosen=expected_chosen,
        oracle_arm=oracle_arm,
        switch=switch,
        nmr=nmr_of(expected_best, expected_chosen),
    )


def make_episode_scorer(cfg: RunConfig, seed: int):
    """Deterministic candidate scorer: mean episode score for a round index.

    The evaluation streams depend on (seed, round, episode) only, never on
    the island, so identical candidates get identical scores wherever they
    are proposed. The drift paths of the latest round are kept, since every
    candidate of a round plays against the same ones.
    """
    # Known bug: this ignores drift_spread. make_drift(cfg, cfg.eval_horizon)
    # would honour it, but changes atlas outputs, so it waits for its own change.
    drift = DriftConfig(cfg.delta_min, cfg.delta_max, cfg.drift_mode, cfg.V_T)
    paths: dict[int, list[ThetaPath]] = {}

    def scorer(cand: StrategyCandidate, round_idx: int) -> float:
        if round_idx not in paths:
            paths.clear()
            paths[round_idx] = [
                generate_path(cfg.eval_horizon, cfg.d, drift, np.random.default_rng(
                    [seed, _S_EVAL, round_idx, ep, _S_EPATH]))
                for ep in range(cfg.eval_episodes)
            ]
        total = 0.0
        for ep, path in enumerate(paths[round_idx]):
            ep_res = run_reward_episode(
                cand, cfg.K, cfg.d, cfg.eval_horizon, path, cfg.noise_scale,
                np.random.default_rng([seed, _S_EVAL, round_idx, ep, _S_ECTX]),
                np.random.default_rng([seed, _S_EVAL, round_idx, ep, _S_ENOISE]),
            )
            total += ep_res.nmr
        return total / cfg.eval_episodes

    return scorer


@dataclass
class IslandEntry:
    """One scored proposal in an island buffer."""

    index: int  # global insertion order
    island: int
    round: int
    anchor: int
    candidate: StrategyCandidate
    score: float
    failure: bool = False
    passed: bool | None = None
    cluster: tuple = ()


@dataclass
class IslandState:
    """Mutable per-island search state."""

    island_id: int
    proposal_scale: float = 1.0
    best_score: float = -math.inf
    non_improving: int = 0


@dataclass
class Telemetry:
    """Rolling gate outcomes the strategist reacts to."""

    decisions: list[str] = field(default_factory=list)


def island_step(
    state: IslandState,
    policy_row: np.ndarray,
    anchors: list[StrategyCandidate],
    scorer,
    rng: np.random.Generator,
    round_idx: int,
    n_proposals: int,
    next_index: int,
) -> list[IslandEntry]:
    """Propose, jitter, and score candidates for one island and round.

    The proposal spread doubles after 10 proposals without a new island-best
    score (capped), which widens the search when an island stalls.
    """
    entries: list[IslandEntry] = []
    for j in range(n_proposals):
        anchor_idx = sample_categorical(rng, policy_row)
        base = anchors[anchor_idx]
        s = state.proposal_scale
        w = int(np.clip(round(base.window_size * 2.0 ** rng.normal(0.0, 0.5 * s)), 1, 1024))
        lam = float(np.clip(base.lambda_reg * 10.0 ** rng.normal(0.0, 0.3 * s), 1e-3, 10.0))
        alpha = float(np.clip(base.ucb_alpha + rng.normal(0.0, 0.25 * s), 0.0, 2.0))
        cand = StrategyCandidate(window_size=w, lambda_reg=lam, ucb_alpha=alpha)
        failure = False
        try:
            score = float(scorer(cand, round_idx))
            if not math.isfinite(score):
                raise ValueError(f"scorer returned a non-finite value {score!r}")
        except Exception:
            failure = True
            score = math.nan
        entries.append(IslandEntry(
            index=next_index + j, island=state.island_id, round=round_idx,
            anchor=anchor_idx, candidate=cand, score=score, failure=failure,
            cluster=cluster_of(cand),
        ))
        if not failure:
            if score > state.best_score:
                state.best_score = score
                state.non_improving = 0
            else:
                state.non_improving += 1
                if state.non_improving >= 10:
                    state.proposal_scale = min(state.proposal_scale * 2.0, _SCALE_CAP)
                    state.non_improving = 0
    return entries


def build_pairs_top_s(
    entries: list[IslandEntry],
    s: int,
    threshold: float,
    rng: np.random.Generator,
) -> tuple[list[PreferencePair], list[dict]]:
    """Pair the top-s passed candidates against weaker ones.

    Entries with the failure flag are ignored. Passed entries (score >=
    threshold) are ranked by score with earlier insertion winning ties; the
    top s become winners. Losers come from the below-threshold pool first,
    then from passed-but-not-top entries, drawn without replacement. Pairs
    whose two candidates map to the same anchor are skipped (recorded).
    """
    if s < 1:
        raise ConfigError(f"s must be >= 1, got {s}")
    ok = [e for e in entries if not e.failure]
    for e in ok:
        e.passed = bool(e.score >= threshold)
    passed = sorted((e for e in ok if e.passed), key=lambda e: (-e.score, e.index))
    winners = passed[:s]
    pool_failed = [e for e in ok if not e.passed]
    pool_lower = passed[s:]
    pairs: list[PreferencePair] = []
    records: list[dict] = []
    for winner in winners:
        pool = pool_failed if pool_failed else pool_lower
        if not pool:
            break
        loser = pool.pop(int(rng.integers(len(pool))))
        record = {
            "winner_index": winner.index, "winner_anchor": winner.anchor,
            "winner_score": winner.score, "loser_index": loser.index,
            "loser_anchor": loser.anchor, "loser_score": loser.score,
            "skipped_same_anchor": winner.anchor == loser.anchor,
        }
        records.append(record)
        if winner.anchor == loser.anchor:
            continue
        pairs.append(PreferencePair(context_id=0, winner=winner.anchor,
                                    loser=loser.anchor))
    return pairs, records


def strategist_rules(telemetry: Telemetry, cfg: RunConfig) -> RunConfig:
    """Adjust phase settings from recent gate outcomes.

    Two consecutive rejections soften the fit temperature (beta * 0.8,
    floored) and raise the pass quantile; acceptances leave settings alone.
    The temperature always ends clamped to [0.1, 5.0].
    """
    beta = cfg.beta
    quantile = cfg.pass_quantile
    if len(telemetry.decisions) >= 2 and telemetry.decisions[-1] == "reject" \
            and telemetry.decisions[-2] == "reject":
        beta = max(0.1, beta * 0.8)
        quantile = min(0.9, quantile + 0.1)
    beta = float(min(5.0, max(0.1, beta)))
    return replace(cfg, beta=beta, pass_quantile=quantile)


@dataclass
class PhaseSnapshot:
    """What the pair builder saw at one phase boundary (for audits)."""

    phase_index: int
    threshold: float
    entry_indices: list[int]
    entry_scores: list[float]
    pair_records: list[dict]


@dataclass
class IslandRunResult:
    """Full record of one island-search run."""

    entries: list[IslandEntry]
    phases: list[PhaseReport]
    snapshots: list[PhaseSnapshot]
    round_best: np.ndarray  # best successful score per round (nan if none)
    round_best_anchor: np.ndarray  # its anchor index (-1 if none)
    round_phase: np.ndarray
    final_metric: float
    accepted_phases: int
    gated_phases: int
    ref_version: int
    states: list[IslandState]

    def accept_rate(self) -> float | None:
        if self.gated_phases == 0:
            return None
        return self.accepted_phases / self.gated_phases


def run_island_search(cfg: RunConfig, seed: int) -> IslandRunResult:
    """Run the full island loop: explore every round, gate at phase ends."""
    anchors, anchor_feats = default_anchor_panel()
    n_anchors = anchor_feats.shape[1]
    scorer = make_episode_scorer(cfg, seed)
    rng_gate = np.random.default_rng([seed, _S_GATE2])
    rng_pairs = np.random.default_rng([seed, _S_PAIRS])

    states = [IslandState(island_id=i) for i in range(cfg.islands)]
    g_ref = np.zeros(anchor_feats.shape[2])
    g_policy = np.zeros(anchor_feats.shape[2])
    ref_version = 0

    entries: list[IslandEntry] = []
    score_window: deque[float] = deque(maxlen=_SCORE_WINDOW)
    phase_entries_start = 0
    dataset: deque[list[PreferencePair]] = deque(maxlen=cfg.dataset_phases)
    phases: list[PhaseReport] = []
    snapshots: list[PhaseSnapshot] = []
    telemetry = Telemetry()
    accepted_phases = 0
    gated_phases = 0
    phase_index = 0
    max_phases = cfg.max_phases if cfg.max_phases > 0 else cfg.rounds // cfg.phase_length

    round_best = np.full(cfg.rounds, np.nan)
    round_best_anchor = np.full(cfg.rounds, -1, dtype=int)
    round_phase = np.zeros(cfg.rounds, dtype=int)

    for r in range(1, cfg.rounds + 1):
        policy_row = softmax_rows(anchor_feats[0] @ g_policy, floor=cfg.pi_min)
        for state in states:
            rng_i = np.random.default_rng([seed, _S_ISLAND, state.island_id, r])
            new = island_step(
                state, policy_row, anchors, scorer, rng_i, r,
                cfg.proposals_per_island, next_index=len(entries),
            )
            entries.extend(new)
            for e in new:
                if not e.failure:
                    score_window.append(e.score)
        good = [e for e in entries[-cfg.islands * cfg.proposals_per_island:]
                if not e.failure]
        if good:
            top = max(good, key=lambda e: (e.score, -e.index))
            round_best[r - 1] = top.score
            round_best_anchor[r - 1] = top.anchor
        round_phase[r - 1] = phase_index + 1

        if r % cfg.phase_length == 0 and phase_index < max_phases:
            phase_index += 1
            phase_entries = [e for e in entries[phase_entries_start:] if not e.failure]
            phase_entries_start = len(entries)
            pairs = []
            if phase_entries:
                threshold = float(np.quantile(np.asarray(score_window), cfg.pass_quantile))
                pairs, records = build_pairs_top_s(phase_entries, cfg.top_s, threshold,
                                                   rng_pairs)
                snapshots.append(PhaseSnapshot(
                    phase_index=phase_index, threshold=threshold,
                    entry_indices=[e.index for e in phase_entries],
                    entry_scores=[e.score for e in phase_entries],
                    pair_records=records,
                ))
            if not pairs:
                phases.append(PhaseReport(
                    phase_index=phase_index, n_pairs=0, loss_trace=[],
                    delta_s=math.nan, kl_hat=math.nan, decision="skipped",
                    accepted=False, chosen="", ref_version_before=ref_version,
                    ref_version_after=ref_version, beta=cfg.beta,
                    eps_s=cfg.eps_s, delta_H=cfg.delta_H, gate_size=0,
                ))
                continue
            dataset.append(pairs)
            all_pairs = [p for chunk in dataset for p in chunk]

            ref_rows = softmax_rows(anchor_feats[0] @ g_ref, floor=cfg.pi_min)[None, :]
            fit_full = fit_dpo(ref_rows, anchor_feats, all_pairs, cfg.beta,
                               lam=cfg.dpo_lam, floor=cfg.pi_min)
            half = all_pairs[: math.ceil(len(all_pairs) / 2)]
            fit_half = fit_dpo(ref_rows, anchor_feats, half, cfg.beta,
                               lam=cfg.dpo_lam, floor=cfg.pi_min)
            # The routing policy follows every phase fit; the gate moves only g_ref.
            g_policy = g_ref + fit_full.tilt / cfg.beta

            take = min(cfg.gate_size, len(phase_entries))
            picked = rng_gate.choice(len(phase_entries), size=take, replace=False)
            subset = [phase_entries[i] for i in picked]
            u_hat = np.full(n_anchors, np.mean([e.score for e in subset]))
            by_anchor: dict[int, list[float]] = {}
            for e in subset:
                by_anchor.setdefault(e.anchor, []).append(e.score)
            for a, vals in by_anchor.items():
                u_hat[a] = float(np.mean(vals))
            u_rows = u_hat[None, :]

            tilts = [g_ref + fit_full.tilt / cfg.beta,
                     g_ref + fit_half.tilt / cfg.beta,
                     g_ref]
            cand_rows = [
                softmax_rows(anchor_feats[0] @ g, floor=cfg.pi_min)[None, :]
                for g in tilts
            ]
            best, _ = propose_reference(cand_rows, cand_rows[2], u_rows, cfg.beta_ref)
            delta_s = inspector_score(cand_rows[best], u_rows) - inspector_score(
                cand_rows[2], u_rows)
            kl_hat = gate_kl_estimate(cand_rows[best], cand_rows[2])
            accepted = gate(delta_s, kl_hat, cfg)
            decision = "accept" if accepted else "reject"
            if accepted and best != 2:
                g_ref = tilts[best]
                ref_version += 1
            gated_phases += 1
            if accepted:
                accepted_phases += 1
            telemetry.decisions.append(decision)
            phases.append(PhaseReport(
                phase_index=phase_index, n_pairs=len(all_pairs),
                loss_trace=fit_full.loss_trace, delta_s=float(delta_s),
                kl_hat=float(kl_hat), decision=decision, accepted=accepted,
                chosen=("full", "half", "reference")[best],
                ref_version_before=ref_version - (1 if accepted and best != 2 else 0),
                ref_version_after=ref_version, beta=cfg.beta, eps_s=cfg.eps_s,
                delta_H=cfg.delta_H, gate_size=take,
            ))
            cfg = strategist_rules(telemetry, cfg)

    final_metric = float(np.mean(score_window)) if score_window else math.nan
    return IslandRunResult(
        entries=entries, phases=phases, snapshots=snapshots,
        round_best=round_best, round_best_anchor=round_best_anchor,
        round_phase=round_phase,
        final_metric=final_metric, accepted_phases=accepted_phases,
        gated_phases=gated_phases, ref_version=ref_version, states=states,
    )


@dataclass
class RewardRunResult:
    """Reward-bandit mode output: episode accounting plus the final score."""

    episode: EpisodeResult
    nmr: float
    regret_step: np.ndarray
    regret_cum: np.ndarray


def run_reward_bandit(cfg: RunConfig, seed: int) -> RewardRunResult:
    """One full-horizon sliding-window UCB run under the configured drift."""
    cand = StrategyCandidate(
        window_size=cfg.window_size, lambda_reg=cfg.lambda_reg,
        ucb_alpha=cfg.ucb_alpha,
    )
    path = generate_path(cfg.H, cfg.d, make_drift(cfg, cfg.H),
                         np.random.default_rng([seed, _S_EPATH]))
    episode = run_reward_episode(
        cand, cfg.K, cfg.d, cfg.H, path, cfg.noise_scale,
        np.random.default_rng([seed, _S_ECTX]),
        np.random.default_rng([seed, _S_ENOISE]),
    )
    regret_step = episode.expected_best - episode.expected_chosen
    return RewardRunResult(
        episode=episode, nmr=episode.nmr,
        regret_step=regret_step, regret_cum=np.cumsum(regret_step),
    )
