"""Drift process, contexts, and reward sampling."""

import numpy as np
import pytest

from driftpref.env import (
    DriftConfig,
    advance_theta,
    generate_path,
    make_features,
    spread_drift_limits,
)
from driftpref.config import RunConfig
from driftpref.errors import ConfigError, ContractError
from driftpref.islands import StrategyCandidate, run_reward_episode


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


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


class TestAdvanceTheta:
    def test_output_unit_norm(self):
        rng = np.random.default_rng(0)
        cfg = DriftConfig(delta_min=0.1, delta_max=2.0)
        theta = unit(rng, 6)
        for _ in range(200):
            theta = advance_theta(theta, cfg, rng)
            assert abs(np.linalg.norm(theta) - 1.0) < 1e-12

    def test_zero_magnitude_keeps_theta(self):
        rng = np.random.default_rng(1)
        cfg = DriftConfig(delta_min=0.0, delta_max=0.0)
        theta = unit(rng, 4)
        out = advance_theta(theta, cfg, rng)
        assert np.allclose(out, theta, atol=1e-12)

    def test_frozen_returns_copy_without_randomness(self):
        cfg = DriftConfig(mode="frozen")
        theta = np.array([1.0, 0.0, 0.0])
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        out = advance_theta(theta, cfg, rng_a)
        assert np.array_equal(out, theta)
        assert out is not theta
        # no draws consumed: both generators stay aligned
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_non_unit_input_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ContractError):
            advance_theta(np.array([1.0, 1.0]), DriftConfig(), rng)

    def test_budget_discard_freezes_step(self):
        rng = np.random.default_rng(3)
        cfg = DriftConfig(delta_min=1.0, delta_max=1.0)
        theta = unit(rng, 5)
        out = advance_theta(theta, cfg, rng, remaining_tv=1e-12)
        assert np.array_equal(out, theta)

    def test_budget_discard_still_consumes_draws(self):
        # discarded and undiscarded steps leave the stream in the same state
        cfg = DriftConfig(delta_min=1.0, delta_max=1.0)
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        advance_theta(theta, cfg, rng_a, remaining_tv=0.0)
        advance_theta(theta, cfg, rng_b, remaining_tv=None)
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

    def test_theta0_respected(self):
        rng = np.random.default_rng(6)
        theta0 = np.array([0.0, 1.0, 0.0])
        path = generate_path(10, 3, DriftConfig(), rng, theta0=theta0)
        assert np.array_equal(path.thetas[0], theta0)

    def test_theta0_dim_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ContractError):
            generate_path(10, 4, DriftConfig(), rng, theta0=np.array([1.0, 0.0]))

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            generate_path(0, 3, DriftConfig(), np.random.default_rng(0))

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
            StrategyCandidate(10, 0.1, 0.5), 4, 3, 80, path, noise_scale,
            np.random.default_rng(1), np.random.default_rng(noise_seed),
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
