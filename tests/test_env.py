"""Drift process, contexts, and reward sampling."""

import math

import numpy as np
import pytest

from driftpref.env import (
    DriftConfig,
    ThetaPath,
    generate_path,
    make_features,
    spread_drift_limits,
)
from driftpref.config import RunConfig
from driftpref.errors import ConfigError, ContractError
from driftpref.islands import StrategyCandidate, run_reward_episode


class TestDriftConfig:
    def test_defaults_valid(self):
        cfg = DriftConfig()
        assert cfg.mode == "sphere-walk"
        assert cfg.delta_min <= cfg.delta_max

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            DriftConfig(mode="brownian")

    def test_min_above_max(self):
        with pytest.raises(ConfigError):
            DriftConfig(delta_min=2.0, delta_max=1.0)

    def test_negative_min(self):
        with pytest.raises(ConfigError):
            DriftConfig(delta_min=-0.5, delta_max=1.0)

    def test_negative_budget(self):
        with pytest.raises(ConfigError):
            DriftConfig(tv_budget=-1.0)

    @pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (math.inf, math.inf),
                                        (1.0, math.nan)])
    def test_limits_must_be_finite(self, lo, hi):
        with pytest.raises(ConfigError):
            DriftConfig(delta_min=lo, delta_max=hi)
        with pytest.raises(ConfigError):
            RunConfig(delta_min=lo, delta_max=hi)


def reference_path(horizon, dim, cfg, rng):
    """The drift walk drawn and taken one step at a time.

    This is the per-step loop that generate_path's draw-then-walk form
    replaced, kept as its oracle: a ThetaPath with the same bits.
    """
    theta0 = rng.standard_normal(dim)
    thetas = np.empty((horizon, dim))
    thetas[0] = theta0 / np.linalg.norm(theta0)
    tv_used = 0.0
    for t in range(1, horizon):
        theta = thetas[t - 1]
        thetas[t] = theta
        if cfg.mode == "frozen":
            continue
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction = rng.standard_normal(dim)
            norm = np.linalg.norm(direction)
        direction /= norm
        proposal = theta + rng.uniform(cfg.delta_min, cfg.delta_max) * direction
        pnorm = np.linalg.norm(proposal)
        if pnorm == 0.0:
            continue
        proposal /= pnorm
        if np.linalg.norm(proposal - theta) > cfg.tv_budget - tv_used:
            continue
        thetas[t] = proposal
        tv_used += float(np.linalg.norm(thetas[t] - thetas[t - 1]))
    return ThetaPath(thetas=thetas, tv_used=tv_used, tv_budget=cfg.tv_budget)


class ZeroDirectionRng:
    """A generator whose n-th standard_normal call comes out exactly zero.

    Its bit_generator.state also rewinds the call count, so a caller that
    replays its draws sees the zero again at the same call.
    """

    def __init__(self, seed, zero_call):
        self.rng = np.random.default_rng(seed)
        self.zero_call = zero_call
        self.calls = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.rng.bit_generator.state, self.calls

    @state.setter
    def state(self, value):
        self.rng.bit_generator.state, self.calls = value

    def standard_normal(self, size=None, out=None):
        self.calls += 1
        x = self.rng.standard_normal(size, out=out)
        if self.calls == self.zero_call:
            x[...] = 0.0
        return x

    def random(self):
        return self.rng.random()

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


def assert_same_path(a, b, rng_a, rng_b):
    assert a.thetas.tobytes() == b.thetas.tobytes()
    assert a.tv_used == b.tv_used
    assert a.tv_budget == b.tv_budget
    # callers draw from the same stream after the path
    assert rng_a.random() == rng_b.random()


class TestPathOracle:
    def cases(self):
        rng = np.random.default_rng(2024)
        for i in range(48):
            dim = int(rng.integers(1, 9))
            horizon = int(rng.integers(1, 601))
            kind = i % 6
            if kind == 0:  # budget binds mid-path
                cfg = DriftConfig(0.5, 3.0, tv_budget=float(rng.uniform(0.5, 4.0)))
            elif kind == 1:
                cfg = DriftConfig(1.0, 5.0, tv_budget=0.0)
            elif kind == 2:
                cfg = DriftConfig(0.0, 0.0)
            elif kind == 3:
                cfg = DriftConfig(mode="frozen")
            elif kind == 4:
                cfg = spread_drift_limits(DriftConfig(1.0, 5.0, tv_budget=4.0),
                                          horizon, dim)
            else:
                lo = float(rng.uniform(0.0, 1.0))
                cfg = DriftConfig(lo, lo + float(rng.uniform(0.0, 2.0)), tv_budget=1e9)
            yield i, horizon, dim, cfg
        yield 48, 1, 3, DriftConfig()
        yield 49, 600, 1, DriftConfig(0.1, 0.5, tv_budget=20.0)

    def test_matches_per_step_walk(self):
        budget_bound = 0
        for i, horizon, dim, cfg in self.cases():
            rng_a, rng_b = np.random.default_rng([i, 7]), np.random.default_rng([i, 7])
            a = generate_path(horizon, dim, cfg, rng_a)
            b = reference_path(horizon, dim, cfg, rng_b)
            assert_same_path(a, b, rng_a, rng_b)
            moves = np.any(np.diff(a.thetas, axis=0) != 0.0, axis=1)
            budget_bound += bool(np.any(moves) and not np.all(moves))
        assert budget_bound >= 5  # some budgets do bind mid-path

    def test_zero_direction_is_drawn_again(self):
        cfg = DriftConfig(0.1, 0.5)
        for zero_call in (2, 5, 9):  # call 1 draws theta0
            rng_a, rng_b = ZeroDirectionRng(3, zero_call), ZeroDirectionRng(3, zero_call)
            a = generate_path(12, 3, cfg, rng_a)
            b = reference_path(12, 3, cfg, rng_b)
            assert rng_a.calls == 13  # 11 directions, one drawn twice
            assert_same_path(a, b, rng_a, rng_b)


class TestLockstepOracle:
    """A list of generators walks its paths together, each with its own bits."""

    def cases(self):
        rng = np.random.default_rng(2026)
        for i in range(60):
            n_runs = int(rng.integers(1, 9))
            horizon = int(rng.integers(1, 401))
            dim = int(rng.integers(1, 7))
            kind = i % 5
            if kind == 0:  # budget runs out mid-path
                cfg = DriftConfig(0.5, 3.0, tv_budget=float(rng.uniform(0.5, 4.0)))
            elif kind == 1:
                cfg = DriftConfig(1.0, 5.0, tv_budget=0.0)
            elif kind == 2:
                cfg = DriftConfig(mode="frozen")
            elif kind == 3:
                cfg = spread_drift_limits(DriftConfig(1.0, 5.0, tv_budget=4.0),
                                          horizon, dim)
            else:
                cfg = DriftConfig(1.0, 5.0)
            yield i, n_runs, horizon, dim, cfg

    def assert_stack_matches(self, horizon, dim, cfg, stack, alone, oracle):
        paths = generate_path(horizon, dim, cfg, stack)
        assert len(paths) == len(stack)
        for path, gens in zip(paths, zip(stack, alone, oracle)):
            single = generate_path(horizon, dim, cfg, gens[1])
            ref = reference_path(horizon, dim, cfg, gens[2])
            assert path.thetas.tobytes() == single.thetas.tobytes() == ref.thetas.tobytes()
            assert path.tv_used == single.tv_used == ref.tv_used
            assert path.tv_budget == cfg.tv_budget
            # each generator is left where its own call leaves it
            assert gens[0].random() == gens[1].random() == gens[2].random()
        return paths

    def test_matches_per_generator_calls(self):
        budget_bound = 0
        for i, n_runs, horizon, dim, cfg in self.cases():
            stack, alone, oracle = ([np.random.default_rng([i, run]) for run in range(n_runs)]
                                    for _ in range(3))
            for path in self.assert_stack_matches(horizon, dim, cfg, stack, alone, oracle):
                moves = np.any(np.diff(path.thetas, axis=0) != 0.0, axis=1)
                budget_bound += bool(np.any(moves) and not np.all(moves))
        assert budget_bound >= 10  # some budgets run out mid-path

    def test_zero_direction_member(self):
        cfg = DriftConfig(0.1, 0.5)
        stack, alone, oracle = ([np.random.default_rng(1), ZeroDirectionRng(3, 5),
                                 np.random.default_rng(2)] for _ in range(3))
        self.assert_stack_matches(12, 3, cfg, stack, alone, oracle)
        assert stack[1].calls == 13  # 11 directions, one drawn twice

    def test_empty_list(self):
        assert generate_path(10, 3, DriftConfig(), []) == []

    def test_overflowing_member_rejected(self):
        cfg = DriftConfig(delta_min=1e300, delta_max=1e300)
        rngs = [np.random.default_rng(0), np.random.default_rng(2)]
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            generate_path(5, 2, cfg, rngs)


class TestAdvanceTheta:
    """The per-step drift law, seen through generate_path."""

    def test_output_unit_norm(self):
        cfg = DriftConfig(delta_min=0.1, delta_max=2.0, tv_budget=1e9)
        path = generate_path(200, 6, cfg, np.random.default_rng(0))
        assert np.all(np.abs(np.linalg.norm(path.thetas, axis=1) - 1.0) < 1e-12)

    def test_zero_magnitude_keeps_theta(self):
        cfg = DriftConfig(delta_min=0.0, delta_max=0.0)
        path = generate_path(20, 4, cfg, np.random.default_rng(1))
        assert np.allclose(path.thetas, path.thetas[0], atol=1e-12)

    def test_frozen_returns_copy_without_randomness(self):
        cfg = DriftConfig(mode="frozen")
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        path = generate_path(30, 3, cfg, rng_a)
        theta0 = rng_b.standard_normal(3)
        assert np.array_equal(path.thetas, np.tile(theta0 / np.linalg.norm(theta0), (30, 1)))
        assert path.tv_used == 0.0
        # no draws past theta0: both generators stay aligned
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_non_unit_input_rejected(self):
        # Proposals this long overflow their norm and leave the sphere; the
        # path's unit-row contract turns that into an error, not a result.
        cfg = DriftConfig(delta_min=1e300, delta_max=1e300)
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            generate_path(5, 2, cfg, np.random.default_rng(2))

    def test_budget_discard_freezes_step(self):
        cfg = DriftConfig(delta_min=1.0, delta_max=1.0, tv_budget=1e-12)
        path = generate_path(10, 5, cfg, np.random.default_rng(3))
        assert np.all(path.thetas == path.thetas[0])
        assert path.tv_used == 0.0

    def test_budget_discard_still_consumes_draws(self):
        # discarded and undiscarded steps leave the stream in the same state
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        a = generate_path(10, 4, DriftConfig(1.0, 1.0, tv_budget=0.0), rng_a)
        b = generate_path(10, 4, DriftConfig(1.0, 1.0, tv_budget=1e9), rng_b)
        assert a.tv_used == 0.0 < b.tv_used
        assert rng_a.standard_normal() == rng_b.standard_normal()


class TestGeneratePath:
    def test_unit_rows_and_exact_tv(self):
        rng = np.random.default_rng(4)
        cfg = DriftConfig(delta_min=0.2, delta_max=1.5, tv_budget=1e9)
        path = generate_path(300, 5, cfg, rng)
        assert len(path) == 300
        assert np.allclose(np.linalg.norm(path.thetas, axis=1), 1.0, atol=1e-12)
        steps = np.linalg.norm(np.diff(path.thetas, axis=0), axis=1)
        assert abs(path.tv_used - steps.sum()) < 1e-9

    def test_budget_never_exceeded(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cfg = DriftConfig(delta_min=1.0, delta_max=5.0, tv_budget=2.0)
            path = generate_path(200, 5, cfg, rng)
            assert path.tv_used <= cfg.tv_budget + 1e-12

    def test_frozen_path_constant(self):
        rng = np.random.default_rng(5)
        cfg = DriftConfig(mode="frozen")
        path = generate_path(50, 3, cfg, rng)
        assert np.all(path.thetas == path.thetas[0])
        assert path.tv_used == 0.0

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            generate_path(0, 3, DriftConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize("mode", ["sphere-walk", "frozen"])
    @pytest.mark.parametrize("dim", [0, -1])
    def test_bad_dim(self, mode, dim):
        cfg = DriftConfig(mode=mode)
        with pytest.raises(ConfigError):
            generate_path(10, dim, cfg, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            generate_path(10, dim, cfg, [np.random.default_rng(0)])

    def test_deterministic_given_seed(self):
        cfg = DriftConfig(delta_min=0.5, delta_max=2.0)
        a = generate_path(100, 4, cfg, np.random.default_rng(42))
        b = generate_path(100, 4, cfg, np.random.default_rng(42))
        assert np.array_equal(a.thetas, b.thetas)
        assert a.tv_used == b.tv_used


class TestMakeFeatures:
    def test_shape_and_unit_rows(self):
        rng = np.random.default_rng(7)
        feats = make_features(5, 5, rng)
        assert feats.shape == (5, 5)
        assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)

    def test_dim_one_rows_are_signs(self):
        rng = np.random.default_rng(8)
        feats = make_features(4, 1, rng)
        assert np.all(np.isin(feats, (-1.0, 1.0)))

    def test_too_few_actions(self):
        with pytest.raises(ConfigError):
            make_features(1, 3, np.random.default_rng(0))

    def test_bad_dim(self):
        with pytest.raises(ConfigError):
            make_features(3, 0, np.random.default_rng(0))

    def test_deterministic(self):
        a = make_features(6, 4, np.random.default_rng(9))
        b = make_features(6, 4, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestSampleReward:
    """Rewards are drawn inline by the reward bandit: utility plus scaled Gaussian noise."""

    def episode(self, noise_scale, noise_seed):
        path = generate_path(80, 3, DriftConfig(delta_min=0.2, delta_max=1.0),
                             np.random.default_rng(0))
        return run_reward_episode(
            [StrategyCandidate(10, 0.1, 0.5)], 4, 3, 80, [path], noise_scale,
            [np.random.default_rng(1)], [np.random.default_rng(noise_seed)],
        )

    def test_zero_noise_equals_utility(self):
        # With zero noise the reward is the utility, so the noise stream cannot
        # change what the learner sees or which arms it plays.
        a, b = self.episode(0.0, 2), self.episode(0.0, 3)
        assert np.array_equal(a.expected_chosen, b.expected_chosen)
        noisy_a, noisy_b = self.episode(1.0, 2), self.episode(1.0, 3)
        assert not np.array_equal(noisy_a.expected_chosen, noisy_b.expected_chosen)

    def test_negative_noise_scale_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="reward-bandit", noise_scale=-1.0)


class TestSpreadDriftLimits:
    def test_scaled_path_spends_most_budget_without_exceeding(self):
        cfg = DriftConfig(delta_min=1.0, delta_max=5.0, tv_budget=8.0)
        scaled = spread_drift_limits(cfg, horizon=2000, dim=5)
        assert scaled.delta_max < cfg.delta_max
        for seed in range(5):
            path = generate_path(2000, 5, scaled, np.random.default_rng(seed))
            assert path.tv_used <= cfg.tv_budget + 1e-12
            assert path.tv_used >= 0.5 * cfg.tv_budget  # drift persists, no early freeze

    def test_ratio_preserved(self):
        cfg = DriftConfig(delta_min=1.0, delta_max=5.0, tv_budget=4.0)
        scaled = spread_drift_limits(cfg, horizon=1000, dim=5)
        assert abs(scaled.delta_max / scaled.delta_min - 5.0) < 1e-12

    def test_large_budget_is_identity(self):
        cfg = DriftConfig(delta_min=0.001, delta_max=0.002, tv_budget=1e9)
        scaled = spread_drift_limits(cfg, horizon=100, dim=4)
        assert scaled.delta_min == cfg.delta_min
        assert scaled.delta_max == cfg.delta_max

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            spread_drift_limits(DriftConfig(), horizon=0, dim=3)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_bad_dim(self, dim):
        with pytest.raises(ConfigError):
            spread_drift_limits(DriftConfig(), horizon=100, dim=dim)
