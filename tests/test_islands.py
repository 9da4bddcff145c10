"""Strategy search islands, pairing, and the reward bandit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from driftpref import islands
from driftpref.config import RunConfig
from driftpref.env import DriftConfig, generate_path, make_drift
from driftpref.errors import ConfigError, ContractError
from driftpref.islands import (
    IslandState,
    StrategyCandidate,
    build_pairs_top_s,
    candidate_descriptor,
    default_anchor_panel,
    island_step,
    make_episode_scorer,
    run_island_search,
    run_reward_bandit,
    run_reward_episode,
    strategist_rules,
)
from driftpref.regret import RegretLedger, switch_flags

import oracles


class TestStrategyCandidate:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StrategyCandidate(window_size=0, lambda_reg=0.1, ucb_alpha=0.5)
        with pytest.raises(ConfigError):
            StrategyCandidate(window_size=10, lambda_reg=0.0, ucb_alpha=0.5)
        with pytest.raises(ConfigError):
            StrategyCandidate(window_size=10, lambda_reg=0.1, ucb_alpha=-0.1)

    def test_descriptor_is_unit(self):
        cand = StrategyCandidate(window_size=20, lambda_reg=0.1, ucb_alpha=0.5)
        assert abs(np.linalg.norm(candidate_descriptor(cand)) - 1.0) < 1e-12


class TestAnchorPanel:
    def test_sixteen_anchors_with_unit_features(self):
        anchors, feats = default_anchor_panel()
        assert len(anchors) == 16
        assert feats.shape == (16, 4)
        assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)

    def test_covers_window_grid(self):
        anchors, _ = default_anchor_panel()
        assert {a.window_size for a in anchors} == {8, 20, 50, 200}


def reference_episode(cand, K, d, horizon, path, noise_scale, rng_ctx, rng_noise):
    """One candidate's episode played step by step.

    This is the per-candidate, per-episode loop the batched kernel replaced,
    kept as its oracle. Contexts and noise are drawn for the whole horizon at
    once, and the oracle columns come from the whole-horizon utility table:
    (expected_best, expected_chosen, nmr, oracle_arm, switch).
    """
    feats = rng_ctx.standard_normal((horizon, K, d))
    feats /= np.linalg.norm(feats, axis=2, keepdims=True)
    utils = np.matmul(feats, path.thetas[:, :, None])[:, :, 0]
    noise = rng_noise.standard_normal(horizon)
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
        if t >= W:
            old_x = feats[t - W, arms[t - W]]
            A -= old_x[:, None] * old_x
            b -= rewards[t - W] * old_x
        x = ft[arm]
        A += x[:, None] * x
        b += reward * x
        arms[t] = arm
        rewards[t] = reward
    expected_best = utils.max(axis=1)
    expected_chosen = utils[np.arange(horizon), arms]
    return (expected_best, expected_chosen, -float(np.mean(expected_best - expected_chosen)),
            np.argmax(utils, axis=1), switch_flags(path.thetas, feats))


def episode_batch(seeds, d, horizon):
    """Drift paths and (context, noise) streams of one test episode per seed."""
    drift = DriftConfig(delta_min=0.2, delta_max=1.0, tv_budget=1e9)
    paths = [generate_path(horizon, d, drift, np.random.default_rng([s, 0]))
             for s in seeds]
    return (paths, [np.random.default_rng([s, 1]) for s in seeds],
            [np.random.default_rng([s, 2]) for s in seeds])


def play(cands, seeds, K, d, horizon, noise_scale=1.0):
    """Every candidate against the test episode of every seed, in one call."""
    paths, ctx, noise = episode_batch(seeds, d, horizon)
    return run_reward_episode(cands, K, d, horizon, paths, noise_scale, ctx, noise)


class TestRunRewardEpisode:
    def make(self, cand, seed, horizon=80, K=4, d=3):
        return play([cand], [seed], K, d, horizon)

    def test_validation(self):
        cand = StrategyCandidate(10, 0.1, 0.5)
        path = generate_path(10, 3, DriftConfig(), np.random.default_rng(0))
        ctx, noise = [np.random.default_rng(1)], [np.random.default_rng(2)]
        with pytest.raises(ConfigError):
            run_reward_episode([cand], 0, 3, 10, [path], 1.0, ctx, noise)
        with pytest.raises(ConfigError):
            run_reward_episode([cand], 3, 3, 0, [path], 1.0, ctx, noise)
        with pytest.raises(ContractError):
            run_reward_episode([cand], 3, 3, 9, [path], 1.0, ctx, noise)
        with pytest.raises(ContractError):
            run_reward_episode([cand], 3, 3, 10, [path, path], 1.0, ctx, noise)
        with pytest.raises(ContractError):
            run_reward_episode([], 3, 3, 10, [path], 1.0, ctx, noise)

    def test_accounting_identities(self):
        res = self.make(StrategyCandidate(10, 0.1, 0.5), seed=0)
        assert res.expected_chosen.shape == (1, 1, 80) and res.nmr.shape == (1, 1)
        assert np.all(res.expected_best >= res.expected_chosen[:, 0] - 1e-12)
        assert res.switch[0, 0] == 0
        assert res.nmr[0, 0] == -np.mean(res.expected_best[0] - res.expected_chosen[0, 0])
        assert res.oracle_arm.min() >= 0

    def test_deterministic(self):
        cand = StrategyCandidate(16, 0.5, 1.0)
        a = self.make(cand, seed=1)
        b = self.make(cand, seed=1)
        assert np.array_equal(a.expected_chosen, b.expected_chosen)
        assert np.array_equal(a.nmr, b.nmr)


class TestBatchedEpisodeMatchesReferenceLoop:
    """Each (episode, candidate) member of a batch plays exactly as it would alone."""

    def check(self, cands, seeds, K, d, horizon, noise_scale=1.0):
        res = play(cands, seeds, K, d, horizon, noise_scale)
        assert res.expected_chosen.shape == (len(seeds), len(cands), horizon)
        for e, (seed, path) in enumerate(zip(seeds, episode_batch(seeds, d, horizon)[0])):
            for c, cand in enumerate(cands):
                best, chosen, score, oracle, switch = reference_episode(
                    cand, K, d, horizon, path, noise_scale,
                    np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2]))
                assert np.array_equal(res.expected_best[e], best), seed
                assert np.array_equal(res.expected_chosen[e, c], chosen), (seed, c, cand)
                assert res.nmr[e, c] == score, (seed, c, cand)
            assert np.array_equal(res.oracle_arm[e], oracle), seed
            assert np.array_equal(res.switch[e], switch), seed

    def random_batch(self, rng, horizon):
        cands = [
            StrategyCandidate(1, 0.5, 1.0),
            StrategyCandidate(horizon, 0.1, 0.5),
            StrategyCandidate(horizon + 7, 2.0, 0.0),
        ]
        for _ in range(int(rng.integers(1, 5))):
            cands.append(StrategyCandidate(
                int(rng.integers(1, horizon + 10)), float(10 ** rng.uniform(-3, 1)),
                float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))))
        cands.append(cands[int(rng.integers(len(cands)))])  # a duplicate
        return [cands[i] for i in rng.permutation(len(cands))]

    def test_random_batches(self):
        rng = np.random.default_rng(7)
        for seed in range(12):
            K, d = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            horizon = int(rng.integers(20, 90))
            seeds = [seed] + [int(s) for s in rng.integers(100, 200, rng.integers(1, 4))]
            self.check(self.random_batch(rng, horizon), seeds, K, d, horizon,
                       noise_scale=float(rng.choice([0.0, 0.3, 1.0])))

    def test_horizons_crossing_blocks(self):
        # Windows shorter and longer than a block, so leaving observations
        # come from an earlier block, and horizons ending inside and at the
        # end of a block. The longest window of a batch sets the observation
        # ring's length, so the ring wraps in the second and third runs.
        block = islands._BLOCK
        cands = [StrategyCandidate(1, 0.5, 1.0), StrategyCandidate(37, 0.1, 0.5),
                 StrategyCandidate(block + 100, 1.0, 0.0),
                 StrategyCandidate(3 * block, 0.01, 2.0)]
        self.check(cands, [0, 1], K=5, d=5, horizon=2 * block + 37)
        self.check(cands[:3], [2, 3], K=4, d=3, horizon=2 * block + 37)
        self.check(cands[:2], [4], K=3, d=4, horizon=2 * block + 37)
        self.check(cands[1:3], [5, 6, 7], K=3, d=4, horizon=block, noise_scale=0.3)

    def test_many_small_blocks(self, monkeypatch):
        # A member's bits do not depend on the block size: seven-step blocks
        # put a block start inside every window.
        monkeypatch.setattr(islands, "_BLOCK", 7)
        rng = np.random.default_rng(11)
        for seed in range(4):
            horizon = int(rng.integers(30, 90))
            self.check(self.random_batch(rng, horizon), [seed, seed + 50], K=4, d=3,
                       horizon=horizon)

    def test_batch_of_one(self):
        for seed, cand in enumerate([StrategyCandidate(1, 1.0, 1.0),
                                     StrategyCandidate(20, 1.0, 1.0),
                                     StrategyCandidate(500, 0.01, 0.0)]):
            self.check([cand], [seed], K=5, d=5, horizon=120)


class TestSwLinucbSelect:
    """Arm selection inside run_reward_episode: windowed ridge estimate plus width bonus."""

    K, d, horizon = 4, 3, 60

    def path(self, seed):
        return generate_path(self.horizon, self.d, DriftConfig(mode="frozen"),
                             np.random.default_rng([seed, 0]))

    def run(self, cand, seed, noise_scale=1.0):
        return run_reward_episode(
            [cand], self.K, self.d, self.horizon, [self.path(seed)], noise_scale,
            [np.random.default_rng([seed, 1])],
            [np.random.default_rng([seed, 2])],
        )

    def utilities(self, seed):
        # Rebuild the episode's contexts from the same stream, one row at a time.
        path = self.path(seed)
        feats = np.random.default_rng([seed, 1]).standard_normal(
            (self.horizon, self.K, self.d))
        feats /= np.linalg.norm(feats, axis=2, keepdims=True)
        return np.array([feats[t] @ path.thetas[t] for t in range(self.horizon)])

    def test_greedy_follows_estimate(self):
        # Noiseless rewards and a frozen parameter: once the window spans the
        # space, the ridge estimate is the parameter and greedy play is optimal.
        for seed in range(5):
            res = self.run(StrategyCandidate(self.horizon, 1e-6, 0.0), seed,
                           noise_scale=0.0)
            assert np.array_equal(res.expected_chosen[0, 0, 10:], res.expected_best[0, 10:])

    def test_symmetric_empty_history_ties_to_lowest(self):
        # Empty window: the estimate is zero, every greedy score ties, arm 0 wins.
        for seed in range(5):
            u = self.utilities(seed)
            res = self.run(StrategyCandidate(10, 0.5, 0.0), seed)
            assert res.expected_chosen[0, 0, 0] == u[0, 0]
            assert np.array_equal(res.expected_best[0], u.max(axis=1))
            assert np.array_equal(res.oracle_arm[0], np.argmax(u, axis=1))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="reward-bandit", ucb_alpha=-1.0)


class TestEpisodeScorer:
    def test_identical_candidates_score_identically(self):
        cfg = RunConfig(mode="atlas", K=3, d=3, eval_horizon=50, eval_episodes=2)
        scorer = make_episode_scorer(cfg, seed=0)
        cand = StrategyCandidate(12, 0.2, 0.7)
        same = StrategyCandidate(12, 0.2, 0.7)
        first, second = scorer([cand, same], 3)
        assert first == second
        # and regardless of the rest of the batch or interleaved evaluations
        other = StrategyCandidate(40, 1.0, 0.1)
        scorer([other], 4)
        assert scorer([other, cand], 3)[1] == first
        assert scorer([cand], 3) == [first]

    def test_slot_score_sums_episodes_played_alone_in_order(self):
        cfg = RunConfig(mode="atlas", K=3, d=3, eval_horizon=40, eval_episodes=3)
        cands = [StrategyCandidate(12, 0.2, 0.7), StrategyCandidate(3, 1.0, 0.0)]
        scores = make_episode_scorer(cfg, seed=5)(cands, 2)
        drift = make_drift(cfg, cfg.eval_horizon)
        for c, cand in enumerate(cands):
            total = 0.0
            for ep in range(cfg.eval_episodes):
                def rng(tag):
                    return np.random.default_rng([5, islands._S_EVAL, 2, ep, tag])
                path = generate_path(cfg.eval_horizon, cfg.d, drift, rng(islands._S_EPATH))
                total += run_reward_episode(
                    [cand], cfg.K, cfg.d, cfg.eval_horizon, [path], cfg.noise_scale,
                    [rng(islands._S_ECTX)], [rng(islands._S_ENOISE)]).nmr[0, 0]
            assert scores[c] == total / cfg.eval_episodes


def single_island_scorer(fn):
    """Batch scorer that scores each candidate of a slot with fn(cand, r)."""
    return lambda cands, r: [fn(c, r) for c in cands]


class TestIslandStep:
    def run_step(self, scorer, n_proposals, seed=0, n_islands=1):
        anchors, feats = default_anchor_panel()
        states = [IslandState(island_id=i) for i in range(n_islands)]
        policy_row = np.full(len(anchors), 1.0 / len(anchors))
        entries = island_step(
            states, policy_row, anchors, scorer,
            [np.random.default_rng([seed, i]) for i in range(n_islands)],
            round_idx=1, n_proposals=n_proposals, next_index=5,
        )
        return (states[0] if n_islands == 1 else states), entries

    def test_proposal_count_and_indexing(self):
        state, entries = self.run_step(single_island_scorer(lambda c, r: 0.5),
                                       n_proposals=4)
        assert len(entries) == 4
        assert [e.index for e in entries] == [5, 6, 7, 8]
        assert all(0 <= e.anchor < 16 for e in entries)

    def test_scorer_failure_flagged_not_raised(self):
        def bad(cands, r):
            raise np.linalg.LinAlgError("Singular matrix")

        state, entries = self.run_step(bad, n_proposals=3)
        assert all(e.failure for e in entries)
        assert all(math.isnan(e.score) for e in entries)
        assert state.best_score == -math.inf

    def test_scorer_programming_error_propagates(self):
        def broken(cands, r):
            raise TypeError("scorer called with the wrong arguments")

        with pytest.raises(TypeError):
            self.run_step(broken, n_proposals=2)

    def test_non_finite_score_counts_as_failure(self):
        state, entries = self.run_step(single_island_scorer(lambda c, r: math.inf),
                                       n_proposals=2)
        assert all(e.failure for e in entries)

    def test_stalled_island_doubles_proposal_spread(self):
        # constant scores: the first proposal sets the best, the next ten
        # non-improving ones trigger one doubling
        state, _ = self.run_step(single_island_scorer(lambda c, r: 1.0), n_proposals=11)
        assert state.proposal_scale == 2.0
        assert state.non_improving == 0

    def test_improving_island_keeps_spread(self):
        calls = {"n": 0}

        def rising(cand, r):
            calls["n"] += 1
            return float(calls["n"])

        state, _ = self.run_step(single_island_scorer(rising), n_proposals=12)
        assert state.proposal_scale == 1.0

    def test_slots_batch_across_islands_in_island_major_order(self):
        batches = []

        def scorer(cands, r):
            batches.append(list(cands))
            return [c.ucb_alpha for c in cands]

        states, entries = self.run_step(scorer, n_proposals=3, n_islands=4)
        # one batch for the three slots, island i of slot k at position k * 4 + i
        assert [len(b) for b in batches] == [12]
        assert [e.index for e in entries] == list(range(5, 17))
        assert [(e.island, e.index) for e in entries] == [
            (i, 5 + i * 3 + j) for i in range(4) for j in range(3)]
        for e in entries:
            assert batches[0][(e.index - 5) % 3 * 4 + e.island] == e.candidate
        # each island proposes what it would have proposed on its own
        for i in range(4):
            alone = island_step(
                [IslandState(island_id=i)], np.full(16, 1.0 / 16),
                default_anchor_panel()[0], scorer, [np.random.default_rng([0, i])],
                round_idx=1, n_proposals=3, next_index=0)
            assert [e.candidate for e in alone] == [
                e.candidate for e in entries if e.island == i]

    def test_failures_stay_in_their_slot_or_candidate(self):
        _, drawn = self.run_step(single_island_scorer(lambda c, r: 0.0),
                                 n_proposals=3, n_islands=3)
        slot_1 = {e.candidate for e in drawn if (e.index - 5) % 3 == 1}

        def scorer(cands, r):
            if slot_1 & set(cands):
                raise FloatingPointError("overflow")
            return [[1.0, math.nan, 2.0][i % 3] for i in range(len(cands))]

        _, entries = self.run_step(scorer, n_proposals=3, n_islands=3)
        failed = {(e.island, (e.index - 5) % 3) for e in entries if e.failure}
        # slot 1 raised for every island; elsewhere only island 1's nan fails
        assert failed == {(0, 1), (1, 1), (2, 1), (1, 0), (1, 2)}

    def test_short_score_list_raises(self):
        with pytest.raises(ValueError):
            self.run_step(lambda cands, r: [0.0], n_proposals=1, n_islands=2)
        # a group's list must match the group too: one score too many or too few
        for extra in (-1, 1):
            with pytest.raises(ValueError):
                self.run_step(lambda cands, r: [0.0] * (len(cands) + extra),
                              n_proposals=3, n_islands=2)


class TestIslandStepOracle:
    """Slots drawn and scored in groups give the bits of one call per slot."""

    @staticmethod
    def keyed_scorer(cands, r):
        """Scores that depend on each candidate alone: some nan, some slots raising."""
        if any(0.9 < c.ucb_alpha < 0.93 for c in cands):
            raise np.linalg.LinAlgError("Singular matrix")
        return [math.nan if c.window_size % 7 == 0 else
                -abs(math.log2(c.window_size) - 4.0) - c.lambda_reg + 0.1 * c.ucb_alpha
                for c in cands]

    @staticmethod
    def preset_states(stalls, scales, best):
        return [IslandState(island_id=i, proposal_scale=scale, best_score=best,
                            non_improving=stall)
                for i, (stall, scale) in enumerate(zip(stalls, scales))]

    def both_steps(self, scorer, stalls, scales, n_proposals, seed=0, best=-math.inf):
        anchors, _ = default_anchor_panel()
        policy_row = np.random.default_rng([seed, 99]).dirichlet(np.ones(len(anchors)))
        out = []
        for step in (island_step, oracles.slot_by_slot_island_step):
            states = self.preset_states(stalls, scales, best)
            rngs = [np.random.default_rng([seed, i]) for i in range(len(states))]
            entries = step(states, policy_row, anchors, scorer, rngs, round_idx=2,
                           n_proposals=n_proposals, next_index=7)
            out.append((entries, states, rngs))
        return out

    def assert_same(self, grouped, reference):
        (entries, states, rngs), (ref_entries, ref_states, ref_rngs) = grouped, reference

        def key(e):
            return (e.index, e.island, e.round, e.anchor, e.candidate, e.failure,
                    np.float64(e.score).tobytes())

        assert [key(e) for e in entries] == [key(e) for e in ref_entries]
        assert states == ref_states
        for rng, ref in zip(rngs, ref_rngs, strict=True):
            assert rng.standard_normal(2).tobytes() == ref.standard_normal(2).tobytes()

    def test_random_presets_match_slot_by_slot(self):
        gen = np.random.default_rng(20)
        for case in range(150):
            n = int(gen.integers(1, 7))
            stalls = gen.integers(0, 10, size=n).tolist()
            scales = (2.0 ** gen.integers(0, 5, size=n)).tolist()
            best = -math.inf if case % 3 == 0 else float(gen.uniform(-3.0, 0.0))
            grouped, reference = self.both_steps(self.keyed_scorer, stalls, scales,
                                                 int(gen.integers(1, 14)), seed=case,
                                                 best=best)
            self.assert_same(grouped, reference)

    @pytest.mark.parametrize("stalls,scales,n_proposals", [
        ([0, 0, 0], [1.0, 1.0, 1.0], 4),
        ([9, 0], [1.0, 8.0], 3),
        ([5, 7, 2, 9], [2.0, 1.0, 16.0, 4.0], 13),
        ([8], [1.0], 12),
        ([12, 0], [1.0, 2.0], 3),  # a stall count preset past the limit
    ])
    def test_episode_scorer_matches_slot_by_slot(self, stalls, scales, n_proposals):
        cfg = RunConfig(mode="atlas", K=3, d=3, eval_horizon=40)
        scorer = make_episode_scorer(cfg, seed=3)
        grouped, reference = self.both_steps(scorer, stalls, scales, n_proposals)
        self.assert_same(grouped, reference)

    def call_sizes(self, stalls, n_proposals):
        sizes = []

        def scorer(cands, r):
            sizes.append(len(cands))
            return [0.0] * len(cands)

        self.both_steps(scorer, stalls, [1.0] * len(stalls), n_proposals)
        grouped = sizes[:-n_proposals]  # the slot-by-slot step's calls come last
        assert sum(grouped) == len(stalls) * n_proposals
        return grouped

    @pytest.mark.parametrize("n_proposals", [1, 2, 10])
    def test_fresh_islands_score_a_round_in_one_call(self, n_proposals):
        assert self.call_sizes([0, 0, 0], n_proposals) == [3 * n_proposals]

    def test_an_island_at_nine_makes_the_first_call_one_slot(self):
        assert self.call_sizes([0, 9, 3], 10)[0] == 3

    def test_a_call_holds_at_most_the_stall_limit_of_slots(self):
        # constant scores: slot 0 sets the best and slots 1-9 stall to 9, so
        # slot 10 is scored alone; its stall doubles the spread and resets
        assert self.call_sizes([0, 0], 23) == [20, 2, 20, 4]


def make_entries(scores, anchors=None, failures=None):
    from driftpref.islands import IslandEntry

    out = []
    for i, score in enumerate(scores):
        out.append(IslandEntry(
            index=i, island=0, round=1,
            anchor=anchors[i] if anchors else i % 16,
            candidate=StrategyCandidate(10 + i, 0.1, 0.5),
            score=float("nan") if failures and failures[i] else float(score),
            failure=bool(failures and failures[i]),
        ))
    return out


class TestBuildPairsTopS:
    def test_forced_top_becomes_winner(self):
        entries = make_entries([3.0, 2.0, 1.0])
        pairs = build_pairs_top_s(entries, s=1, threshold=0.0, rng=np.random.default_rng(0))
        assert len(pairs) == 1
        winner, loser = pairs[0]
        assert winner is entries[0]
        assert loser.index in (1, 2)

    def test_all_failed_yields_nothing(self):
        entries = make_entries([1.0, 2.0], failures=[True, True])
        assert build_pairs_top_s(entries, s=2, threshold=0.0, rng=np.random.default_rng(0)) == []

    def test_threshold_splits_pools(self):
        entries = make_entries([3.0, 2.0, 1.0])
        pairs = build_pairs_top_s(entries, s=2, threshold=2.5, rng=np.random.default_rng(0))
        # only the 3.0 entry passes; losers drawn from the failed pool
        assert len(pairs) == 1
        assert pairs[0][0].index == 0
        assert pairs[0][1].index in (1, 2)
        # the failed pool is drawn first, then the passed entries below the top s
        entries = make_entries([4.0, 3.0, 2.0, 1.0])
        pairs = build_pairs_top_s(entries, s=2, threshold=1.5, rng=np.random.default_rng(0))
        assert [(w.index, l.index) for w, l in pairs] == [(0, 3), (1, 2)]

    def test_same_anchor_pairs_are_returned(self):
        entries = make_entries([3.0, 1.0], anchors=[4, 4])
        pairs = build_pairs_top_s(entries, s=1, threshold=2.0, rng=np.random.default_rng(0))
        assert pairs == [(entries[0], entries[1])]

    def test_winners_match_full_sort_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=100)
        entries = make_entries(scores)
        threshold = float(np.median(scores))
        pairs = build_pairs_top_s(entries, s=5, threshold=threshold, rng=np.random.default_rng(2))
        ranked = sorted(
            (e for e in entries if e.score >= threshold),
            key=lambda e: (-e.score, e.index),
        )
        want = [e.index for e in ranked[:5]]
        assert [winner.index for winner, _ in pairs] == want
        # every winner outscores every loser it was paired against
        for winner, loser in pairs:
            assert winner.score >= loser.score

    def test_score_ties_rank_by_insertion(self):
        entries = make_entries([2.0, 2.0, 0.0])
        pairs = build_pairs_top_s(entries, s=1, threshold=1.0, rng=np.random.default_rng(0))
        assert pairs[0][0] is entries[0]

    def test_bad_s(self):
        with pytest.raises(ConfigError):
            build_pairs_top_s([], s=0, threshold=0.0, rng=np.random.default_rng(0))


class TestStrategistRules:
    def test_empty_history_unchanged(self):
        cfg = RunConfig(beta=0.6)
        out = strategist_rules([], cfg)
        assert out.beta == 0.6
        assert out.pass_quantile == cfg.pass_quantile

    def test_two_rejects_soften_and_tighten(self):
        cfg = RunConfig(beta=0.6, pass_quantile=0.5)
        out = strategist_rules(["reject", "reject"], cfg)
        assert abs(out.beta - 0.48) < 1e-12
        assert abs(out.pass_quantile - 0.6) < 1e-12

    def test_mixed_history_unchanged(self):
        cfg = RunConfig(beta=0.6)
        out = strategist_rules(["reject", "accept"], cfg)
        assert out.beta == 0.6

    def test_beta_floor(self):
        cfg = RunConfig(beta=0.11)
        out = strategist_rules(["reject", "reject"], cfg)
        assert out.beta == 0.1

    def test_beta_clamped_into_range(self):
        cfg = RunConfig(beta=6.0)
        out = strategist_rules(["accept"], cfg)
        assert out.beta == 5.0

    def test_quantile_cap(self):
        cfg = RunConfig(beta=1.0, pass_quantile=0.85)
        out = strategist_rules(["reject", "reject"], cfg)
        assert abs(out.pass_quantile - 0.9) < 1e-12


def atlas_cfg(**overrides):
    base = dict(
        mode="atlas", K=3, d=3, rounds=20, phase_length=10, islands=2,
        proposals_per_island=1, eval_horizon=60, eval_episodes=1, top_s=3,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunIslandSearch:
    def test_phase_schedule_and_bookkeeping(self):
        res = run_island_search(atlas_cfg(), seed=0)
        assert len(res.phases) == 2
        assert [p.phase_index for p in res.phases] == [1, 2]
        assert len(res.entries) == 20 * 2 * 1
        assert [e.index for e in res.entries] == list(range(40))
        assert res.ledger.regret_step.shape == (20,)
        skipped = sum(p.decision == "skipped" for p in res.phases)
        assert res.gated_phases == len(res.phases) - skipped

    def test_round_best_matches_recount(self):
        res = run_island_search(atlas_cfg(), seed=1)
        for r in range(1, 21):
            round_entries = [e for e in res.entries
                             if e.round == r and not e.failure]
            if not round_entries:
                assert math.isnan(res.ledger.regret_step[r - 1])
                continue
            best = max(e.score for e in round_entries)
            assert res.ledger.regret_step[r - 1] == -best

    def test_deterministic_reruns(self):
        cfg = atlas_cfg()
        a = run_island_search(cfg, seed=2)
        b = run_island_search(cfg, seed=2)
        assert np.array_equal(a.ledger.regret_step, b.ledger.regret_step, equal_nan=True)
        assert [e.score for e in a.entries] == [e.score for e in b.entries]
        assert [p.decision for p in a.phases] == [p.decision for p in b.phases]
        assert a.final_metric == b.final_metric

    def test_max_phases_guard(self):
        res = run_island_search(atlas_cfg(phase_length=5, max_phases=2), seed=3)
        assert len(res.phases) == 2

    def test_pi_min_past_the_panel_is_a_config_error_before_any_draw(self, monkeypatch):
        # 0.1 < 1/K passes RunConfig, but the routing policy is a softmax
        # over the 16-anchor panel
        monkeypatch.setattr(islands, "make_episode_scorer",
                            lambda cfg, seed: pytest.fail("scorer built before the check"))
        with pytest.raises(ConfigError, match=r"^pi_min must lie below 1/16 .* 16 anchors, "
                                              r"got 0\.1$"):
            run_island_search(atlas_cfg(K=5, pi_min=0.1), seed=0)

    def test_gated_phases_go_through_the_shared_promote(self, monkeypatch):
        evolving = []
        real = islands.promote

        def spy(*args):
            evolving.append(args[6])
            return real(*args)
        monkeypatch.setattr(islands, "promote", spy)
        res = run_island_search(atlas_cfg(), seed=0)
        assert res.gated_phases > 0 and evolving == [True] * res.gated_phases

    def test_phase_column_counts_skipped_phases_up_to_the_cap(self, monkeypatch):
        # every proposal of rounds 3 and 4 fails, so phase 2 is skipped; the
        # cap of 2 phases holds the column at 3 from round 5 on
        real = islands.make_episode_scorer

        def failing_scorer(cfg, seed):
            score = real(cfg, seed)

            def scorer(cands, round_idx):
                if round_idx in (3, 4):
                    raise np.linalg.LinAlgError("singular ridge matrix")
                return score(cands, round_idx)
            return scorer

        monkeypatch.setattr(islands, "make_episode_scorer", failing_scorer)
        res = run_island_search(atlas_cfg(rounds=8, phase_length=2, max_phases=2), seed=0)
        assert [p.decision == "skipped" for p in res.phases] == [False, True]
        assert res.ledger.phase.tolist() == [1, 1, 2, 2, 3, 3, 3, 3]

    def test_built_pairs_respect_top_s_ranking(self, monkeypatch):
        calls = []
        real = islands.build_pairs_top_s

        def spy(entries, s, threshold, rng):
            pairs = real(entries, s, threshold, rng)
            calls.append((entries, threshold, pairs))
            return pairs
        monkeypatch.setattr(islands, "build_pairs_top_s", spy)
        run_island_search(atlas_cfg(), seed=4)
        assert calls  # at least one phase built pairs
        for entries, threshold, pairs in calls:
            passed = sorted((e for e in entries if e.score >= threshold),
                            key=lambda e: (-e.score, e.index))
            top = {e.index for e in passed[: len(pairs)]}
            for winner, _ in pairs:
                assert winner.index in top

    def test_phase_whose_pairs_share_an_anchor_is_skipped(self, monkeypatch):
        # phase 2's builder returns only a same-anchor pair: the phase is
        # skipped and adds no rows, so phase 3 fits phase 1's rows and its own
        real_build, real_fit = islands.build_pairs_top_s, islands.fit_dpo
        kept, fitted = [], []

        def build(entries, s, threshold, rng):
            pairs = real_build(entries, s, threshold, rng)
            if len(kept) == 1:
                pairs = [(entries[0], entries[0])]
            kept.append(sum(w.anchor != l.anchor for w, l in pairs))
            return pairs

        def fit(dphi, lam):
            fitted.append(len(dphi))
            return real_fit(dphi, lam)
        monkeypatch.setattr(islands, "build_pairs_top_s", build)
        monkeypatch.setattr(islands, "fit_dpo", fit)
        res = run_island_search(atlas_cfg(rounds=30), seed=0)
        assert [p.decision == "skipped" for p in res.phases] == [False, True, False]
        assert res.phases[1].n_pairs == 0
        assert kept[0] > 0 and kept[2] > 0
        assert fitted[::2] == [kept[0], kept[0] + kept[2]]

    def test_accept_rate_arithmetic(self):
        res = run_island_search(atlas_cfg(), seed=5)
        if res.gated_phases:
            assert res.accept_rate() == res.accepted_phases / res.gated_phases
        else:
            assert res.accept_rate() is None

    def test_routing_policy_follows_phase_fits_the_gate_rejects(self):
        base = RunConfig(mode="atlas", rounds=8, islands=3, proposals_per_island=2,
                         eval_horizon=50, eval_episodes=1)
        rejected = run_island_search(replace(base, phase_length=2, eps_s=1e9), seed=0)
        unphased = run_island_search(replace(base, phase_length=9), seed=0)
        assert rejected.gated_phases == 4 and rejected.accepted_phases == 0
        assert rejected.ref_version == 0 and not unphased.phases

        def anchors(res, rounds):
            return [e.anchor for e in res.entries if e.round in rounds]

        # the first phase fit lands after round 2; from round 3 on, the
        # proposals differ although no gate passed, so the fit moved routing
        assert anchors(rejected, (1, 2)) == anchors(unphased, (1, 2))
        later = range(3, 9)
        assert anchors(rejected, later) != anchors(unphased, later)


class TestRunRewardBandit:
    def test_accounting_and_determinism(self):
        cfg = RunConfig(mode="atlas", K=4, d=3, H=200, window_size=16,
                        lambda_reg=0.3, ucb_alpha=0.5)
        [a] = run_reward_bandit(cfg, [0])
        [b] = run_reward_bandit(cfg, [0])
        assert np.array_equal(a.ledger.regret_cum, b.ledger.regret_cum)
        assert np.max(np.abs(np.cumsum(a.ledger.regret_step) - a.ledger.regret_cum)) < 1e-12
        assert abs(a.final_metric + a.ledger.regret_step.mean()) < 1e-12
        assert np.all(a.ledger.regret_step >= -1e-12)

    def test_window_size_changes_behavior(self):
        short = RunConfig(mode="atlas", K=5, d=5, H=400, window_size=20,
                          lambda_reg=0.1, ucb_alpha=0.0)
        long = RunConfig(mode="atlas", K=5, d=5, H=400, window_size=200,
                         lambda_reg=0.1, ucb_alpha=0.0)
        [a] = run_reward_bandit(short, [0])
        [b] = run_reward_bandit(long, [0])
        assert not np.array_equal(a.ledger.regret_cum, b.ledger.regret_cum)

    def test_one_action_has_no_regret(self):
        [res] = run_reward_bandit(RunConfig(mode="reward-bandit", K=1, H=50), [0])
        assert not res.ledger.regret_cum.any() and not res.ledger.switch.any()

    def test_seeds_stepped_together_match_each_seed_alone(self):
        cfg = RunConfig(mode="reward-bandit", K=4, d=3, H=2 * islands._BLOCK + 37,
                        window_size=30, lambda_reg=0.3, ucb_alpha=0.5)
        seeds = [3, 0, 7, 3]
        together = run_reward_bandit(cfg, seeds)
        assert len(together) == len(seeds)
        for seed, res in zip(seeds, together):
            [alone] = run_reward_bandit(cfg, [seed])
            assert res.final_metric == alone.final_metric, seed
            for name in ("regret_step", "regret_cum", "oracle_arm", "switch"):
                assert np.array_equal(getattr(res.ledger, name),
                                      getattr(alone.ledger, name)), (seed, name)

    def test_drawn_configs_match_reference_episode(self):
        # Every record, ledger column by column, is the reference loop's
        # episode on the seed's own [seed, tag] streams.
        rng = np.random.default_rng(26)
        for draw in range(8):
            H = int(rng.integers(20, 301))
            cfg = RunConfig(
                mode="reward-bandit", H=H, K=int(rng.integers(1, 7)), d=int(rng.integers(1, 6)),
                window_size=int(rng.integers(1, H + 20)),
                lambda_reg=float(10 ** rng.uniform(-2, 1)),
                ucb_alpha=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
                noise_scale=float(rng.choice([0.0, 0.3, 1.0])),
                drift_spread=bool(draw % 2))
            seeds = [int(s) for s in rng.integers(0, 1000, int(rng.integers(1, 4)))]
            cand = StrategyCandidate(cfg.window_size, cfg.lambda_reg, cfg.ucb_alpha)
            for seed, rec in zip(seeds, run_reward_bandit(cfg, seeds), strict=True):
                def stream(tag):
                    return np.random.default_rng([seed, tag])
                path = generate_path(H, cfg.d, make_drift(cfg, H), stream(islands._S_EPATH))
                best, chosen, score, oracle, switch = reference_episode(
                    cand, cfg.K, cfg.d, H, path, cfg.noise_scale,
                    stream(islands._S_ECTX), stream(islands._S_ENOISE))
                regret = best - chosen
                want = {"t": np.arange(1, H + 1), "phase": np.zeros(H, dtype=int),
                        "bias": np.zeros(H), "error": regret, "regret_step": regret,
                        "regret_cum": np.cumsum(regret), "oracle_arm": oracle,
                        "switch": switch}
                assert set(want) == set(RegretLedger.COLUMNS)
                for name, column in want.items():
                    got = getattr(rec.ledger, name)
                    assert got.dtype == column.dtype and np.array_equal(got, column), \
                        (draw, seed, name)
                assert rec.final_metric == score, (draw, seed)
