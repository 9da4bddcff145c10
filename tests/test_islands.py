"""Strategy search islands, pairing, and the reward bandit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from driftpref.config import RunConfig
from driftpref.env import DriftConfig, generate_path
from driftpref.errors import ConfigError, ContractError
from driftpref.islands import (
    IslandState,
    StrategyCandidate,
    Telemetry,
    build_pairs_top_s,
    candidate_descriptor,
    cluster_of,
    default_anchor_panel,
    island_step,
    make_episode_scorer,
    run_island_search,
    run_reward_bandit,
    run_reward_episode,
    strategist_rules,
)
from driftpref.regret import nmr


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

    def test_cluster_cells(self):
        assert cluster_of(StrategyCandidate(8, 0.1, 0.6)) == (3, -1, 0.5)
        assert cluster_of(StrategyCandidate(1000, 10.0, 1.6)) == (10, 1, 2.0)
        assert cluster_of(StrategyCandidate(1, 1e-3, 0.0)) == (0, -3, 0.0)


class TestAnchorPanel:
    def test_sixteen_anchors_with_unit_features(self):
        anchors, feats = default_anchor_panel()
        assert len(anchors) == 16
        assert feats.shape == (1, 16, 4)
        assert np.allclose(np.linalg.norm(feats[0], axis=1), 1.0, atol=1e-12)

    def test_covers_window_grid(self):
        anchors, _ = default_anchor_panel()
        assert {a.window_size for a in anchors} == {8, 20, 50, 200}


class TestRunRewardEpisode:
    def make(self, cand, seed, horizon=80, K=4, d=3):
        drift = DriftConfig(delta_min=0.2, delta_max=1.0, tv_budget=1e9)
        path = generate_path(horizon, d, drift, np.random.default_rng([seed, 0]))
        return run_reward_episode(
            cand, K, d, horizon, path, 1.0,
            np.random.default_rng([seed, 1]),
            np.random.default_rng([seed, 2]),
        )

    def test_validation(self):
        cand = StrategyCandidate(10, 0.1, 0.5)
        path = generate_path(10, 3, DriftConfig(), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            run_reward_episode(cand, 0, 3, 10, path, 1.0,
                               np.random.default_rng(1),
                               np.random.default_rng(2))
        with pytest.raises(ConfigError):
            run_reward_episode(cand, 3, 3, 0, path, 1.0,
                               np.random.default_rng(1),
                               np.random.default_rng(2))
        with pytest.raises(ContractError):
            run_reward_episode(cand, 3, 3, 9, path, 1.0,
                               np.random.default_rng(1),
                               np.random.default_rng(2))

    def test_accounting_identities(self):
        res = self.make(StrategyCandidate(10, 0.1, 0.5), seed=0)
        assert np.all(res.expected_best >= res.expected_chosen - 1e-12)
        assert res.switch[0] == 0
        assert abs(res.nmr - nmr(res.expected_best, res.expected_chosen)) < 1e-15
        assert res.oracle_arm.min() >= 0

    def test_deterministic(self):
        cand = StrategyCandidate(16, 0.5, 1.0)
        a = self.make(cand, seed=1)
        b = self.make(cand, seed=1)
        assert np.array_equal(a.expected_chosen, b.expected_chosen)
        assert a.nmr == b.nmr


class TestSwLinucbSelect:
    """Arm selection inside run_reward_episode: windowed ridge estimate plus width bonus."""

    K, d, horizon = 4, 3, 60

    def path(self, seed):
        return generate_path(self.horizon, self.d, DriftConfig(mode="frozen"),
                             np.random.default_rng([seed, 0]))

    def run(self, cand, seed, noise_scale=1.0):
        return run_reward_episode(
            cand, self.K, self.d, self.horizon, self.path(seed), noise_scale,
            np.random.default_rng([seed, 1]),
            np.random.default_rng([seed, 2]),
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
            assert np.array_equal(res.expected_chosen[10:], res.expected_best[10:])

    def test_symmetric_empty_history_ties_to_lowest(self):
        # Empty window: the estimate is zero, every greedy score ties, arm 0 wins.
        for seed in range(5):
            u = self.utilities(seed)
            res = self.run(StrategyCandidate(10, 0.5, 0.0), seed)
            assert res.expected_chosen[0] == u[0, 0]
            assert np.array_equal(res.expected_best, u.max(axis=1))
            assert np.array_equal(res.oracle_arm, np.argmax(u, axis=1))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="reward-bandit", ucb_alpha=-1.0)


class TestEpisodeScorer:
    def test_identical_candidates_score_identically(self):
        cfg = RunConfig(mode="atlas", K=3, d=3, eval_horizon=50, eval_episodes=2)
        scorer = make_episode_scorer(cfg, seed=0)
        cand = StrategyCandidate(12, 0.2, 0.7)
        same = StrategyCandidate(12, 0.2, 0.7)
        assert scorer(cand, 3) == scorer(same, 3)
        # and regardless of interleaved evaluations of other candidates
        scorer(StrategyCandidate(40, 1.0, 0.1), 3)
        assert scorer(cand, 3) == scorer(same, 3)


class TestIslandStep:
    def run_step(self, scorer, n_proposals, seed=0):
        anchors, feats = default_anchor_panel()
        state = IslandState(island_id=0)
        policy_row = np.full(len(anchors), 1.0 / len(anchors))
        entries = island_step(
            state, policy_row, anchors, scorer,
            np.random.default_rng(seed), round_idx=1,
            n_proposals=n_proposals, next_index=5,
        )
        return state, entries

    def test_proposal_count_and_indexing(self):
        state, entries = self.run_step(lambda c, r: 0.5, n_proposals=4)
        assert len(entries) == 4
        assert [e.index for e in entries] == [5, 6, 7, 8]
        assert all(0 <= e.anchor < 16 for e in entries)
        assert all(e.cluster == cluster_of(e.candidate) for e in entries)

    def test_scorer_failure_flagged_not_raised(self):
        def bad(cand, r):
            raise RuntimeError("episode exploded")

        state, entries = self.run_step(bad, n_proposals=3)
        assert all(e.failure for e in entries)
        assert all(math.isnan(e.score) for e in entries)
        assert state.best_score == -math.inf

    def test_non_finite_score_counts_as_failure(self):
        state, entries = self.run_step(lambda c, r: math.inf, n_proposals=2)
        assert all(e.failure for e in entries)

    def test_stalled_island_doubles_proposal_spread(self):
        # constant scores: the first proposal sets the best, the next ten
        # non-improving ones trigger one doubling
        state, _ = self.run_step(lambda c, r: 1.0, n_proposals=11)
        assert state.proposal_scale == 2.0
        assert state.non_improving == 0

    def test_improving_island_keeps_spread(self):
        calls = {"n": 0}

        def rising(cand, r):
            calls["n"] += 1
            return float(calls["n"])

        state, _ = self.run_step(rising, n_proposals=12)
        assert state.proposal_scale == 1.0


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
            cluster=(0, 0, 0.0),
        ))
    return out


class TestBuildPairsTopS:
    def test_forced_top_becomes_winner(self):
        entries = make_entries([3.0, 2.0, 1.0])
        pairs, records = build_pairs_top_s(
            entries, s=1, threshold=0.0, rng=np.random.default_rng(0)
        )
        assert len(records) == 1
        assert records[0]["winner_index"] == 0
        assert records[0]["loser_index"] in (1, 2)
        assert len(pairs) == 1
        assert pairs[0].winner == entries[0].anchor

    def test_all_failed_yields_nothing(self):
        entries = make_entries([1.0, 2.0], failures=[True, True])
        pairs, records = build_pairs_top_s(
            entries, s=2, threshold=0.0, rng=np.random.default_rng(0)
        )
        assert pairs == [] and records == []

    def test_threshold_splits_pools(self):
        entries = make_entries([3.0, 2.0, 1.0])
        pairs, records = build_pairs_top_s(
            entries, s=2, threshold=2.5, rng=np.random.default_rng(0)
        )
        # only the 3.0 entry passes; losers drawn from the failed pool
        assert len(records) == 1
        assert records[0]["winner_index"] == 0
        assert records[0]["loser_index"] in (1, 2)

    def test_same_anchor_pairs_recorded_but_skipped(self):
        entries = make_entries([3.0, 1.0], anchors=[4, 4])
        pairs, records = build_pairs_top_s(
            entries, s=1, threshold=2.0, rng=np.random.default_rng(0)
        )
        assert pairs == []
        assert len(records) == 1
        assert records[0]["skipped_same_anchor"] is True

    def test_winners_match_full_sort_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=100)
        entries = make_entries(scores)
        threshold = float(np.median(scores))
        pairs, records = build_pairs_top_s(
            entries, s=5, threshold=threshold, rng=np.random.default_rng(2)
        )
        ranked = sorted(
            (e for e in entries if e.score >= threshold),
            key=lambda e: (-e.score, e.index),
        )
        want = [e.index for e in ranked[:5]]
        assert [r["winner_index"] for r in records] == want
        # every winner outscores every loser it was paired against
        for r in records:
            assert r["winner_score"] >= r["loser_score"]

    def test_score_ties_rank_by_insertion(self):
        entries = make_entries([2.0, 2.0, 0.0])
        pairs, records = build_pairs_top_s(
            entries, s=1, threshold=1.0, rng=np.random.default_rng(0)
        )
        assert records[0]["winner_index"] == 0

    def test_bad_s(self):
        with pytest.raises(ConfigError):
            build_pairs_top_s([], s=0, threshold=0.0, rng=np.random.default_rng(0))


class TestStrategistRules:
    def test_empty_history_unchanged(self):
        cfg = RunConfig(beta=0.6)
        out = strategist_rules(Telemetry(), cfg)
        assert out.beta == 0.6
        assert out.pass_quantile == cfg.pass_quantile

    def test_two_rejects_soften_and_tighten(self):
        cfg = RunConfig(beta=0.6, pass_quantile=0.5)
        out = strategist_rules(Telemetry(decisions=["reject", "reject"]), cfg)
        assert abs(out.beta - 0.48) < 1e-12
        assert abs(out.pass_quantile - 0.6) < 1e-12

    def test_mixed_history_unchanged(self):
        cfg = RunConfig(beta=0.6)
        out = strategist_rules(Telemetry(decisions=["reject", "accept"]), cfg)
        assert out.beta == 0.6

    def test_beta_floor(self):
        cfg = RunConfig(beta=0.11)
        out = strategist_rules(Telemetry(decisions=["reject", "reject"]), cfg)
        assert out.beta == 0.1

    def test_beta_clamped_into_range(self):
        cfg = RunConfig(beta=6.0)
        out = strategist_rules(Telemetry(decisions=["accept"]), cfg)
        assert out.beta == 5.0

    def test_quantile_cap(self):
        cfg = RunConfig(beta=1.0, pass_quantile=0.85)
        out = strategist_rules(Telemetry(decisions=["reject", "reject"]), cfg)
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
        assert res.round_best.shape == (20,)
        skipped = sum(p.decision == "skipped" for p in res.phases)
        assert res.gated_phases == len(res.phases) - skipped

    def test_round_best_matches_recount(self):
        res = run_island_search(atlas_cfg(), seed=1)
        for r in range(1, 21):
            round_entries = [e for e in res.entries
                             if e.round == r and not e.failure]
            if not round_entries:
                assert math.isnan(res.round_best[r - 1])
                continue
            best = max(e.score for e in round_entries)
            assert res.round_best[r - 1] == best

    def test_deterministic_reruns(self):
        cfg = atlas_cfg()
        a = run_island_search(cfg, seed=2)
        b = run_island_search(cfg, seed=2)
        assert np.array_equal(a.round_best, b.round_best, equal_nan=True)
        assert [e.score for e in a.entries] == [e.score for e in b.entries]
        assert [p.decision for p in a.phases] == [p.decision for p in b.phases]
        assert a.final_metric == b.final_metric

    def test_max_phases_guard(self):
        res = run_island_search(atlas_cfg(phase_length=5, max_phases=2), seed=3)
        assert len(res.phases) == 2

    def test_snapshot_pairs_respect_top_s_ranking(self):
        res = run_island_search(atlas_cfg(), seed=4)
        assert res.snapshots  # at least one phase built pairs
        for snap in res.snapshots:
            scores = dict(zip(snap.entry_indices, snap.entry_scores))
            passed = sorted(
                (i for i in snap.entry_indices if scores[i] >= snap.threshold),
                key=lambda i: (-scores[i], i),
            )
            top = set(passed[: len(snap.pair_records)])
            for rec in snap.pair_records:
                assert rec["winner_index"] in top

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
        a = run_reward_bandit(cfg, seed=0)
        b = run_reward_bandit(cfg, seed=0)
        assert np.array_equal(a.regret_cum, b.regret_cum)
        assert np.max(np.abs(np.cumsum(a.regret_step) - a.regret_cum)) < 1e-12
        assert abs(a.nmr + a.regret_step.mean()) < 1e-12
        assert np.all(a.regret_step >= -1e-12)

    def test_window_size_changes_behavior(self):
        short = RunConfig(mode="atlas", K=5, d=5, H=400, window_size=20,
                          lambda_reg=0.1, ucb_alpha=0.0)
        long = RunConfig(mode="atlas", K=5, d=5, H=400, window_size=200,
                         lambda_reg=0.1, ucb_alpha=0.0)
        a = run_reward_bandit(short, seed=0)
        b = run_reward_bandit(long, seed=0)
        assert not np.array_equal(a.regret_cum, b.regret_cum)
