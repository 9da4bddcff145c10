"""Island-based strategy search over sliding-window bandit hyperparameters.

A small panel of anchor strategies (window size, ridge weight, exploration
width) defines the action menu. Each round, every island samples an anchor
from the shared sampling policy, jitters it locally, and scores the jittered
candidate by simulated episodes of a drifting reward bandit (negative mean
regret, higher is better). All candidates of a round play the same
episodes, so each proposal slot is scored as one batch: slot j of every
island plays every episode of the round in one lockstep kernel call. Scores
stream into a rolling window whose quantile sets the pass threshold. At
phase boundaries the top-s passed candidates are paired against weaker
ones, the pairs drive the same gated reference-promotion machinery as the
preference loop, and simple telemetry rules adjust the phase settings.
The reward-bandit mode plays the same kernel: one candidate, one episode
per seed, every seed stepped together.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .env import ThetaPath, generate_path, make_drift
from .errors import ConfigError, ContractError, ConvergenceError
from .policies import gate_kl_estimate, inspector_score, softmax_rows
from .prefloop import PhaseReport, RunRecord, fit_dpo, gate, propose_reference, sample_categorical
from .regret import RegretLedger, nmr as nmr_of

# Substream tags (distinct from the preference loop's 0..3).
_S_EPATH, _S_ECTX, _S_ENOISE = 0, 1, 2
_S_ISLAND, _S_EVAL, _S_GATE2, _S_PAIRS = 5, 6, 7, 8

_SCALE_CAP = 16.0  # invented plumbing: keep the proposal spread bounded
_SCORE_WINDOW = 50
_BLOCK = 512  # episode steps whose contexts are drawn and scored at a time


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
    """Regret accounting of a batch of candidates over a batch of episodes.

    Row e of the oracle columns belongs to episode e; entry (e, c) of
    expected_chosen and nmr belongs to candidate c playing episode e.
    """

    expected_best: np.ndarray  # (E, horizon)
    expected_chosen: np.ndarray  # (E, C, horizon)
    oracle_arm: np.ndarray  # (E, horizon)
    switch: np.ndarray  # (E, horizon)
    nmr: np.ndarray  # (E, C)


def run_reward_episode(
    cands: list[StrategyCandidate],
    K: int,
    d: int,
    horizon: int,
    paths: list[ThetaPath],
    noise_scale: float,
    rngs_ctx: list[np.random.Generator],
    rngs_noise: list[np.random.Generator],
) -> EpisodeResult:
    """Play every candidate's sliding-window UCB policy against every episode.

    Episode e has its own drift path and its own context and noise streams
    (paths[e], rngs_ctx[e], rngs_noise[e]); every candidate sees the same
    contexts, utilities and reward noise in it, and only the arms they pull
    differ. The ridge states of all (episode, candidate) members are
    stacked, so one step of the batch is one stacked solve, and member
    (e, c) gets the same bits as if candidate c had played episode e alone.
    Contexts are drawn and scored _BLOCK steps at a time, which bounds
    memory and changes no value.
    """
    E, C = len(paths), len(cands)
    if K < 1 or horizon < 1:
        raise ConfigError("need K >= 1 and horizon >= 1")
    if C < 1 or E < 1 or not E == len(rngs_ctx) == len(rngs_noise):
        raise ContractError("need candidates, and one path and two streams per episode")
    for shape in {path.thetas.shape for path in paths} - {(horizon, d)}:
        raise ContractError(f"path has shape {shape}, expected {(horizon, d)}")

    alpha = np.array([[c.ucb_alpha] for c in cands])
    # Ab = [A | b]: each member's ridge matrix and reward-weighted sum. An
    # observation y = [x, reward] adds x[:, None] * y, which gives b the bits
    # of reward * x.
    Ab = np.zeros((E, C, d, d + 1))
    Ab[..., :d] = [c.lambda_reg * np.eye(d) for c in cands]
    A = Ab[..., :d]
    rhs = np.empty((E, C, d, K + 1))
    # Observation rows y, step t's in ring row t % R, the last row zero. Row i
    # of a block's leaving indexes the observation leaving each member's
    # window at that step (read before step t's row is written: for a window
    # of R it is the same row), or the zero row while the window is not full
    # (subtracting zeros changes no bit).
    wins = np.array([c.window_size for c in cands])
    R = min(horizon, int(wins.max()))
    hist = np.zeros((R + 1, E, C, d + 1))
    flat = hist.reshape(-1, d + 1)
    member = np.arange(E * C).reshape(E, C)
    # Outer-product views made once; old is a fixed buffer.
    y_col, y_row = hist[..., :d, None], hist[..., None, :]
    old = np.empty((E, C, d + 1))
    old_col, old_row = old[..., :d, None], old[..., None, :]
    # Member (e, c) picks row arm + K * e of a step's flattened (E * K) rows.
    offset = K * np.arange(E)[:, None]

    expected_best = np.empty((E, horizon))
    expected_chosen = np.empty((E, C, horizon))
    oracle_arm = np.empty((E, horizon), dtype=int)
    switch = np.empty((E, horizon), dtype=int)
    for t0 in range(0, horizon, _BLOCK):
        n = min(_BLOCK, horizon - t0)
        block = slice(t0, t0 + n)
        # A generator fills its output in order, so block draws are the
        # values of one whole-horizon draw; each (K, d) @ (d,) slice of the
        # products has the per-step bits.
        f = np.stack([rng.standard_normal((n, K, d)) for rng in rngs_ctx], axis=1)
        f /= np.linalg.norm(f, axis=3, keepdims=True)
        noise = np.stack([rng.standard_normal(n) for rng in rngs_noise], axis=1)
        steps = np.arange(t0, t0 + n)
        utils = np.matmul(f, np.stack([p.thetas[block] for p in paths], axis=1)[..., None])[..., 0]
        # Step t is a switch when the oracle under theta_{t-1} differs; step 0
        # compares theta_0 with itself.
        before = np.matmul(f, np.stack([p.thetas[np.maximum(steps - 1, 0)] for p in paths],
                                       axis=1)[..., None])[..., 0]
        steps = steps[:, None, None]
        leaving = np.where(steps >= wins, (steps - wins) % R * E * C + member, R * E * C)
        oracle = utils.argmax(axis=2)
        oracle_arm[:, block] = oracle.T
        switch[:, block] = (oracle != before.argmax(axis=2)).T
        expected_best[:, block] = utils.max(axis=2).T
        # Each step's observation candidates [x, reward], flattened to E * K rows.
        obs = np.concatenate([f, (utils + noise_scale * noise[:, :, None])[..., None]],
                             axis=3).reshape(n, E * K, d + 1)
        f_col = f[:, :, None]  # (n, E, 1, K, d): a step's contexts, per member
        f_t = f_col.swapaxes(3, 4)
        arms = np.empty((n, E, C), dtype=int)
        for i in range(n):
            rhs[..., 0] = Ab[..., d]
            rhs[..., 1:] = f_t[i]
            solved = np.linalg.solve(A, rhs)
            widths = np.sqrt(np.maximum((f_t[i] * solved[..., 1:]).sum(axis=2), 0.0))
            arm = (np.matmul(f_col[i], solved[..., :1])[..., 0] + alpha * widths).argmax(axis=2)
            r = (t0 + i) % R
            flat.take(leaving[i], axis=0, out=old)
            obs[i].take(arm + offset, axis=0, out=hist[r])
            Ab -= old_col * old_row
            Ab += y_col[r] * y_row[r]
            arms[i] = arm
        expected_chosen[:, :, block] = np.take_along_axis(
            utils, arms, axis=2).transpose(1, 2, 0)

    return EpisodeResult(
        expected_best=expected_best,
        expected_chosen=expected_chosen,
        oracle_arm=oracle_arm,
        switch=switch,
        nmr=np.array([[nmr_of(best, row) for row in chosen]
                      for best, chosen in zip(expected_best, expected_chosen)]),
    )


def make_episode_scorer(cfg: RunConfig, seed: int):
    """Deterministic batch scorer: mean episode score of each candidate.

    The evaluation streams depend on (seed, round, episode) only, never on
    the island or on the rest of the batch, so identical candidates get
    identical scores wherever they are proposed. The drift paths of the
    latest round are kept, since every candidate of a round plays against
    the same ones; one kernel call plays the whole batch over every episode.
    """
    drift = make_drift(cfg, cfg.eval_horizon)
    paths: dict[int, list[ThetaPath]] = {}

    def scorer(cands: list[StrategyCandidate], round_idx: int) -> list[float]:
        def rngs(tag):
            return [np.random.default_rng([seed, _S_EVAL, round_idx, ep, tag])
                    for ep in range(cfg.eval_episodes)]
        if round_idx not in paths:
            paths.clear()
            paths[round_idx] = [generate_path(cfg.eval_horizon, cfg.d, drift, rng)
                                for rng in rngs(_S_EPATH)]
        nmr = run_reward_episode(cands, cfg.K, cfg.d, cfg.eval_horizon, paths[round_idx],
                                 cfg.noise_scale, rngs(_S_ECTX), rngs(_S_ENOISE)).nmr
        # Summed in episode order from +0.0, one episode's row at a time.
        return (sum(nmr, np.zeros(len(cands))) / cfg.eval_episodes).tolist()

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
    states: list[IslandState],
    policy_row: np.ndarray,
    anchors: list[StrategyCandidate],
    scorer,
    rngs: list[np.random.Generator],
    round_idx: int,
    n_proposals: int,
    next_index: int,
) -> list[IslandEntry]:
    """Propose, jitter, and score one round's candidates on every island.

    Proposal slot j of every island is drawn (island i from rngs[i]) and the
    slot is scored as one batch; then each island records its entry and
    updates its stall count before its next slot is drawn. The proposal
    spread doubles after 10 proposals without a new island-best score
    (capped), which widens the search when an island stalls. A solver
    failure in a slot's batch flags every candidate of the slot, and a
    non-finite score flags its own candidate. Entries come back island-major.
    """
    rows: list[list[IslandEntry]] = [[] for _ in states]
    for j in range(n_proposals):
        slot = []
        for state, rng in zip(states, rngs):
            anchor_idx = sample_categorical(rng, policy_row)
            base = anchors[anchor_idx]
            s = state.proposal_scale
            w = int(np.clip(round(base.window_size * 2.0 ** rng.normal(0.0, 0.5 * s)), 1, 1024))
            lam = float(np.clip(base.lambda_reg * 10.0 ** rng.normal(0.0, 0.3 * s), 1e-3, 10.0))
            alpha = float(np.clip(base.ucb_alpha + rng.normal(0.0, 0.25 * s), 0.0, 2.0))
            slot.append((anchor_idx, StrategyCandidate(window_size=w, lambda_reg=lam,
                                                       ucb_alpha=alpha)))
        try:
            scores = [float(v) for v in scorer([cand for _, cand in slot], round_idx)]
        except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError):
            scores = [math.nan] * len(slot)
        for i, (state, (anchor_idx, cand), score) in enumerate(
                zip(states, slot, scores, strict=True)):
            failure = not math.isfinite(score)
            rows[i].append(IslandEntry(
                index=next_index + i * n_proposals + j, island=state.island_id,
                round=round_idx, anchor=anchor_idx, candidate=cand,
                score=math.nan if failure else score, failure=failure,
            ))
            if failure:
                continue
            if score > state.best_score:
                state.best_score = score
                state.non_improving = 0
            else:
                state.non_improving += 1
                if state.non_improving >= 10:
                    state.proposal_scale = min(state.proposal_scale * 2.0, _SCALE_CAP)
                    state.non_improving = 0
    return [e for row in rows for e in row]


def build_pairs_top_s(
    entries: list[IslandEntry],
    s: int,
    threshold: float,
    rng: np.random.Generator,
) -> tuple[list[tuple[int, int]], list[dict]]:
    """Pair the top-s passed candidates against weaker ones.

    Entries with the failure flag are ignored. Passed entries (score >=
    threshold) are ranked by score with earlier insertion winning ties; the
    top s become winners. Losers come from the below-threshold pool first,
    then from passed-but-not-top entries, drawn without replacement. Pairs
    whose two candidates map to the same anchor are skipped (recorded).
    Returns the (winner anchor, loser anchor) pairs and the records.
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
    pairs: list[tuple[int, int]] = []
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
        pairs.append((winner.anchor, loser.anchor))
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


@dataclass(kw_only=True)
class IslandRunResult(RunRecord):
    """An island-search run's record, its scored proposals and its snapshots."""

    entries: list[IslandEntry]
    snapshots: list[PhaseSnapshot]


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
    dataset: deque[np.ndarray] = deque(maxlen=cfg.dataset_phases)  # per-phase rows
    phases: list[PhaseReport] = []
    snapshots: list[PhaseSnapshot] = []
    telemetry = Telemetry()
    phase_index = 0
    max_phases = cfg.max_phases if cfg.max_phases > 0 else cfg.rounds // cfg.phase_length

    # One ledger row per round: regret_step is the negated best round score
    # (scores are negative mean regret), the oracle arm is that proposal's
    # anchor, and a switch marks a change of best anchor. A round with no
    # successful proposal keeps nan and anchor -1.
    n = cfg.rounds
    led = RegretLedger(t=np.arange(1, n + 1), phase=np.zeros(n, dtype=int), bias=np.zeros(n),
                       regret_step=np.full(n, np.nan), oracle_arm=np.full(n, -1),
                       switch=np.zeros(n, dtype=int))

    for r in range(1, cfg.rounds + 1):
        policy_row = softmax_rows(anchor_feats[0] @ g_policy, floor=cfg.pi_min)
        rngs = [np.random.default_rng([seed, _S_ISLAND, state.island_id, r])
                for state in states]
        new = island_step(states, policy_row, anchors, scorer, rngs, r,
                          cfg.proposals_per_island, next_index=len(entries))
        entries.extend(new)
        good = [e for e in new if not e.failure]
        score_window.extend(e.score for e in good)
        if good:
            top = max(good, key=lambda e: (e.score, -e.index))
            led.regret_step[r - 1] = -top.score
            led.oracle_arm[r - 1] = top.anchor
        led.phase[r - 1] = phase_index + 1

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
                    phase_index=phase_index, n_pairs=0, delta_s=math.nan,
                    kl_hat=math.nan, decision="skipped", accepted=False, chosen="",
                    ref_version_before=ref_version, ref_version_after=ref_version,
                    beta=cfg.beta, eps_s=cfg.eps_s, delta_H=cfg.delta_H, gate_size=0,
                ))
                continue
            win, lose = np.array(pairs).T
            dataset.append(anchor_feats[0, win] - anchor_feats[0, lose])
            dphi = np.concatenate(dataset)
            w_full = fit_dpo(dphi, cfg.dpo_lam)
            w_half = fit_dpo(dphi[: math.ceil(len(dphi) / 2)], cfg.dpo_lam)
            # The routing policy follows every phase fit; the gate moves only g_ref.
            g_policy = g_ref + w_full / cfg.beta

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

            tilts = [g_ref + w_full / cfg.beta, g_ref + w_half / cfg.beta, g_ref]
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
            ref_version_before = ref_version
            if accepted and best != 2:
                g_ref = tilts[best]
                ref_version += 1
            telemetry.decisions.append(decision)
            phases.append(PhaseReport(
                phase_index=phase_index, n_pairs=len(dphi),
                delta_s=float(delta_s), kl_hat=float(kl_hat), decision=decision,
                accepted=accepted, chosen=("full", "half", "reference")[best],
                ref_version_before=ref_version_before,
                ref_version_after=ref_version, beta=cfg.beta, eps_s=cfg.eps_s,
                delta_H=cfg.delta_H, gate_size=take,
            ))
            cfg = strategist_rules(telemetry, cfg)

    # Rounds with no successful proposal do not advance the cumulative column.
    led.error = led.regret_step
    led.regret_cum = np.where(np.isnan(led.regret_step), 0.0, led.regret_step).cumsum()
    led.switch[1:] = led.oracle_arm[1:] != led.oracle_arm[:-1]
    final_metric = float(np.mean(score_window)) if score_window else math.nan
    return IslandRunResult(ledger=led, final_metric=final_metric, phases=phases,
                           evolving=True, entries=entries, snapshots=snapshots)


def run_reward_bandit(cfg: RunConfig, seeds) -> list[RunRecord]:
    """Full-horizon sliding-window UCB runs under the configured drift.

    The seeds' episodes are stepped together in one kernel call; each seed
    gets the bits it gets alone. A record's final metric is its nmr, its
    error column is its regret_step, and its t, phase (0) and bias (0)
    columns are one set of arrays shared by every seed.
    """
    def rngs(tag):
        return [np.random.default_rng([seed, tag]) for seed in seeds]
    cand = StrategyCandidate(cfg.window_size, cfg.lambda_reg, cfg.ucb_alpha)
    drift = make_drift(cfg, cfg.H)
    paths = [generate_path(cfg.H, cfg.d, drift, rng) for rng in rngs(_S_EPATH)]
    ep = run_reward_episode([cand], cfg.K, cfg.d, cfg.H, paths, cfg.noise_scale,
                            rngs(_S_ECTX), rngs(_S_ENOISE))
    regret = ep.expected_best - ep.expected_chosen[:, 0]
    t, phase, bias = np.arange(1, cfg.H + 1), np.zeros(cfg.H, dtype=int), np.zeros(cfg.H)
    return [RunRecord(ledger=RegretLedger(t=t, phase=phase, bias=bias, error=regret[e],
                                          regret_step=regret[e], regret_cum=np.cumsum(regret[e]),
                                          oracle_arm=ep.oracle_arm[e], switch=ep.switch[e]),
                      final_metric=float(ep.nmr[e, 0]))
            for e in range(len(seeds))]
