"""Island-based strategy search over sliding-window bandit hyperparameters.

A small panel of anchor strategies (window size, ridge weight, exploration
width) defines the action menu. Each round, every island samples an anchor
from the shared sampling policy, jitters it locally, and scores the jittered
candidate by simulated episodes of a drifting reward bandit (negative mean
regret, higher is better). All candidates of a round play the same
episodes, so proposal slots are scored in groups: the slots that no stall
update can separate, on every island, play every episode of the round in
one lockstep kernel call. Scores
stream into a rolling window whose quantile sets the pass threshold. At
phase boundaries the top-s passed candidates are paired against weaker
ones, the pairs drive the same gated reference-promotion machinery as the
preference loop, and rules on the gate decisions adjust the phase settings.
The reward-bandit mode plays the same kernel: one candidate, one episode
per seed, every seed stepped together.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .env import ThetaPath, generate_path, make_drift, make_features
from .errors import ConfigError, ContractError, ConvergenceError
from .numerics import solve
from .policies import softmax_rows
from .prefloop import (PhaseReport, RunRecord, fit_dpo, gate, phase_ends, promote,
                       propose_reference, sample_categorical)
from .regret import RegretLedger

# Substream tags. The episode tags key the scorer's [seed, _S_EVAL, round, episode,
# tag] streams and the reward bandit's [seed, tag], the same keys as the preference
# loop's path, context and agent streams (no run mixes modes); 5..8 follow its 0..4.
_S_EPATH, _S_ECTX, _S_ENOISE = 0, 1, 2
_S_ISLAND, _S_EVAL, _S_GATE2, _S_PAIRS = 5, 6, 7, 8

_SCALE_CAP = 16.0  # invented plumbing: keep the proposal spread bounded
_STALL_LIMIT = 10  # non-improving proposals that double an island's spread
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
    """Fixed anchor menu and its (n_anchors, 4) feature rows."""
    anchors = [
        StrategyCandidate(window_size=w, lambda_reg=l, ucb_alpha=a)
        for w in (8, 20, 50, 200)
        for l in (0.1, 1.0)
        for a in (0.5, 1.0)
    ]
    return anchors, np.stack([candidate_descriptor(c) for c in anchors])


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
    nmr: np.ndarray  # (E, C): negative mean regret on expected rewards


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
    The solve is numerics.solve, LAPACK's stacked solve without
    np.linalg.solve's per-call wrapper, which at 5 x 5 costs more than the
    factorization; a singular ridge matrix raises LinAlgError.
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
        f = np.stack([make_features(K, d, rng, (n,)) for rng in rngs_ctx], axis=1)
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
            solved = solve(A, rhs)
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
        nmr=-np.mean(expected_best[:, None] - expected_chosen, axis=2),
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


@dataclass
class IslandState:
    """Mutable per-island search state."""

    island_id: int
    proposal_scale: float = 1.0
    best_score: float = -math.inf
    non_improving: int = 0


def _propose(rng: np.random.Generator, policy_row: np.ndarray,
             anchors: list[StrategyCandidate], s: float) -> tuple[int, StrategyCandidate]:
    """Sample an anchor and jitter it with spread s: one proposal's draws."""
    anchor_idx = sample_categorical(rng, policy_row)
    base = anchors[anchor_idx]
    w = int(np.clip(round(base.window_size * 2.0 ** rng.normal(0.0, 0.5 * s)), 1, 1024))
    lam = float(np.clip(base.lambda_reg * 10.0 ** rng.normal(0.0, 0.3 * s), 1e-3, 10.0))
    alpha = float(np.clip(base.ucb_alpha + rng.normal(0.0, 0.25 * s), 0.0, 2.0))
    return anchor_idx, StrategyCandidate(window_size=w, lambda_reg=lam, ucb_alpha=alpha)


def _score_slots(scorer, cands: list[StrategyCandidate], round_idx: int,
                 n: int) -> list[float]:
    """Score consecutive slots of n candidates each in one scorer call.

    After a solver failure the slots are scored one call each, so a failure
    flags (as nan) only the candidates of the slot whose own call failed.
    """
    try:
        scores = [float(v) for v in scorer(cands, round_idx)]
    except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError):
        if len(cands) <= n:
            return [math.nan] * len(cands)
        return [v for k in range(0, len(cands), n)
                for v in _score_slots(scorer, cands[k:k + n], round_idx, n)]
    if len(scores) != len(cands):
        raise ValueError(f"scorer returned {len(scores)} scores for {len(cands)} candidates")
    return scores


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

    The proposal spread doubles after _STALL_LIMIT proposals without a new
    island-best score (capped), which widens the search when an island
    stalls. The stall count rises by at most one per slot, so the next
    g = min(slots left, _STALL_LIMIT - the largest stall count) slots are
    drawn with the spreads they would see slot by slot. They form a group:
    each island draws its g slots from its own stream (island i from
    rngs[i]), all g * n candidates are scored in one scorer call (slot k of
    island i at position k * n + i), and each slot's entries and stall
    updates are applied in slot order. A group of one is a single slot. A
    solver failure flags every candidate of its slot, and a non-finite
    score flags its own candidate. Entries come back island-major.
    """
    n = len(states)
    rows: list[list[IslandEntry]] = [[] for _ in states]
    j = 0
    while j < n_proposals:
        g = max(1, min([n_proposals - j]
                       + [_STALL_LIMIT - state.non_improving for state in states]))
        drawn = [[_propose(rng, policy_row, anchors, state.proposal_scale) for _ in range(g)]
                 for state, rng in zip(states, rngs, strict=True)]
        slots = [island[k] for k in range(g) for island in drawn]
        scores = _score_slots(scorer, [cand for _, cand in slots], round_idx, n)
        for pos, ((anchor_idx, cand), score) in enumerate(zip(slots, scores)):
            k, i = divmod(pos, n)
            state = states[i]
            failure = not math.isfinite(score)
            rows[i].append(IslandEntry(
                index=next_index + i * n_proposals + j + k, island=state.island_id,
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
                if state.non_improving >= _STALL_LIMIT:
                    state.proposal_scale = min(state.proposal_scale * 2.0, _SCALE_CAP)
                    state.non_improving = 0
        j += g
    return [e for row in rows for e in row]


def build_pairs_top_s(
    entries: list[IslandEntry],
    s: int,
    threshold: float,
    rng: np.random.Generator,
) -> list[tuple[IslandEntry, IslandEntry]]:
    """Pair the top-s passed candidates against weaker ones.

    Entries with the failure flag are ignored. Passed entries (score >=
    threshold) are ranked by score with earlier insertion winning ties; the
    top s become winners. Losers come from the below-threshold pool first,
    then from passed-but-not-top entries, drawn without replacement.
    Returns the (winner, loser) entry pairs in draw order, including pairs
    whose two candidates map to the same anchor; the caller drops those.
    """
    if s < 1:
        raise ConfigError(f"s must be >= 1, got {s}")
    ok = [e for e in entries if not e.failure]
    passed = sorted((e for e in ok if e.score >= threshold), key=lambda e: (-e.score, e.index))
    winners = passed[:s]
    pool_failed = [e for e in ok if e.score < threshold]
    pool_lower = passed[s:]
    pairs = []
    for winner in winners:
        pool = pool_failed if pool_failed else pool_lower
        if not pool:
            break
        pairs.append((winner, pool.pop(int(rng.integers(len(pool))))))
    return pairs


def strategist_rules(decisions: list[str], cfg: RunConfig) -> RunConfig:
    """Adjust phase settings from the gate decisions so far.

    Two consecutive rejections soften the fit temperature (beta * 0.8,
    floored) and raise the pass quantile; acceptances leave settings alone.
    The temperature always ends clamped to [0.1, 5.0].
    """
    beta = cfg.beta
    quantile = cfg.pass_quantile
    if decisions[-2:] == ["reject", "reject"]:
        beta = max(0.1, beta * 0.8)
        quantile = min(0.9, quantile + 0.1)
    beta = float(min(5.0, max(0.1, beta)))
    return replace(cfg, beta=beta, pass_quantile=quantile)


@dataclass(kw_only=True)
class IslandRunResult(RunRecord):
    """An island-search run's record and its scored proposals."""

    entries: list[IslandEntry]


def run_island_search(cfg: RunConfig, seed: int) -> IslandRunResult:
    """Run the full island loop: explore every round, gate at phase ends."""
    anchors, anchor_feats = default_anchor_panel()
    n_anchors = len(anchors)
    if not cfg.pi_min < 1.0 / n_anchors:  # the routing policy is a softmax over the panel
        raise ConfigError(f"pi_min must lie below 1/{n_anchors} for the atlas panel of "
                          f"{n_anchors} anchors, got {cfg.pi_min}")
    scorer = make_episode_scorer(cfg, seed)
    rng_gate = np.random.default_rng([seed, _S_GATE2])
    rng_pairs = np.random.default_rng([seed, _S_PAIRS])

    states = [IslandState(island_id=i) for i in range(cfg.islands)]
    g_ref = np.zeros(anchor_feats.shape[1])
    g_policy = np.zeros(anchor_feats.shape[1])

    entries: list[IslandEntry] = []
    score_window: deque[float] = deque(maxlen=_SCORE_WINDOW)
    phase_entries_start = 0
    dataset: deque[np.ndarray] = deque(maxlen=cfg.dataset_phases)  # per-phase rows
    phases: list[PhaseReport] = []
    ends = phase_ends(cfg, cfg.rounds)

    # Each round's negated best score (scores are negative mean regret) and
    # that proposal's anchor; a round with no successful proposal keeps nan
    # and anchor -1.
    regret = np.full(cfg.rounds, np.nan)
    top_anchor = np.full(cfg.rounds, -1)

    for r in range(1, cfg.rounds + 1):
        policy_row = softmax_rows(anchor_feats @ g_policy, floor=cfg.pi_min)
        rngs = [np.random.default_rng([seed, _S_ISLAND, state.island_id, r])
                for state in states]
        new = island_step(states, policy_row, anchors, scorer, rngs, r,
                          cfg.proposals_per_island, next_index=len(entries))
        entries.extend(new)
        good = [e for e in new if not e.failure]
        score_window.extend(e.score for e in good)
        if good:
            top = max(good, key=lambda e: (e.score, -e.index))
            regret[r - 1] = -top.score
            top_anchor[r - 1] = top.anchor

        if r - 1 in ends:
            phase_entries = [e for e in entries[phase_entries_start:] if not e.failure]
            phase_entries_start = len(entries)
            pairs = []
            if phase_entries:
                threshold = float(np.quantile(np.asarray(score_window), cfg.pass_quantile))
                pairs = [(w.anchor, l.anchor) for w, l in build_pairs_top_s(
                    phase_entries, cfg.top_s, threshold, rng_pairs) if w.anchor != l.anchor]
            if not pairs:
                version = phases[-1].ref_version_after if phases else 0
                phases.append(PhaseReport(
                    phase_index=len(phases) + 1, n_pairs=0, delta_s=math.nan,
                    kl_hat=math.nan, decision="skipped", accepted=False, chosen="",
                    ref_version_before=version, ref_version_after=version,
                    beta=cfg.beta, eps_s=cfg.eps_s, delta_H=cfg.delta_H, gate_size=0,
                ))
                continue
            win, lose = np.array(pairs).T
            dataset.append(anchor_feats[win] - anchor_feats[lose])
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
                softmax_rows(anchor_feats @ g, floor=cfg.pi_min)[None, :]
                for g in tilts
            ]
            proposal = propose_reference(cand_rows, u_rows, cfg.beta_ref)
            g_ref = promote(phases, len(dphi), take, tilts, proposal,
                            gate(*proposal[1:], cfg), True, cfg)
            cfg = strategist_rules([p.decision for p in phases if p.decision != "skipped"],
                                   cfg)

    # One ledger row per round. Rounds with no successful proposal do not
    # advance the cumulative column; a switch marks a change of best anchor.
    rounds = np.arange(cfg.rounds)
    led = RegretLedger(t=rounds + 1,
                       phase=np.minimum(rounds // cfg.phase_length, len(ends)) + 1,
                       bias=np.zeros(cfg.rounds), error=regret, regret_step=regret,
                       regret_cum=np.where(np.isnan(regret), 0.0, regret).cumsum(),
                       oracle_arm=top_anchor,
                       switch=(np.diff(top_anchor, prepend=top_anchor[0]) != 0).astype(int))
    final_metric = float(np.mean(score_window)) if score_window else math.nan
    return IslandRunResult(ledger=led, final_metric=final_metric, phases=phases,
                           evolving=True, entries=entries)


def run_reward_bandit(cfg: RunConfig, seeds) -> list[RunRecord]:
    """Full-horizon sliding-window UCB runs under the configured drift.

    The seeds' episodes are stepped together in one kernel call; each seed
    gets the bits it gets alone. A record's final metric is its nmr, its
    error column is its regret_step, and its t, phase (0) and bias (0)
    columns are one set of arrays shared by every seed. Raises LinAlgError,
    naming lambda_reg, when a ridge matrix turns singular.
    """
    def rngs(tag):
        return [np.random.default_rng([seed, tag]) for seed in seeds]
    cand = StrategyCandidate(cfg.window_size, cfg.lambda_reg, cfg.ucb_alpha)
    drift = make_drift(cfg, cfg.H)
    paths = [generate_path(cfg.H, cfg.d, drift, rng) for rng in rngs(_S_EPATH)]
    try:
        ep = run_reward_episode([cand], cfg.K, cfg.d, cfg.H, paths, cfg.noise_scale,
                                rngs(_S_ECTX), rngs(_S_ENOISE))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"a ridge matrix turned singular; lambda_reg = {cfg.lambda_reg:g} is too small "
            "to keep it invertible") from exc
    regret = ep.expected_best - ep.expected_chosen[:, 0]
    t, phase, bias = np.arange(1, cfg.H + 1), np.zeros(cfg.H, dtype=int), np.zeros(cfg.H)
    return [RunRecord(ledger=RegretLedger(t=t, phase=phase, bias=bias, error=regret[e],
                                          regret_step=regret[e], regret_cum=np.cumsum(regret[e]),
                                          oracle_arm=ep.oracle_arm[e], switch=ep.switch[e]),
                      final_metric=float(ep.nmr[e, 0]))
            for e in range(len(seeds))]
