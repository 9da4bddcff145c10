"""Regret decomposition, switch counting, and scaling fits."""

import numpy as np
import pytest

from driftpref.config import RunConfig
from driftpref.errors import ContractError
from driftpref.prefloop import run_preference_loop
from driftpref.regret import (
    RegretLedger,
    min_margin,
    nmr,
    regret_decompose,
    slope_fit,
    switch_flags,
)


def random_row(rng, k):
    w = rng.random(k) + 1e-3
    return w / w.sum()


class TestRegretLedger:
    def test_totals(self):
        led = RegretLedger(
            t=np.arange(3),
            phase=np.zeros(3, dtype=int),
            bias=np.array([0.1, 0.2, 0.3]),
            error=np.array([0.05, 0.0, 0.15]),
            regret_step=np.array([0.15, 0.2, 0.45]),
            regret_cum=np.array([0.15, 0.35, 0.8]),
            oracle_arm=np.zeros(3, dtype=int),
            switch=np.zeros(3, dtype=int),
        )
        assert len(led) == 3
        assert abs(led.final_regret() - 0.8) < 1e-15
        assert abs(led.cumulative_bias() - 0.6) < 1e-15


class TestOracleAction:
    """The oracle is the np.argmax of the utilities, ties to the lowest index:
    regret_decompose's bias and a preference run's ledger.oracle_arm."""

    def test_antipodal_arms(self):
        u = np.array([1.0, -1.0])
        first, second = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert regret_decompose(u, first, first) == (0.0, 0.0)
        assert regret_decompose(u, second, second) == (2.0, 0.0)

    def test_ties_resolve_to_lowest_index(self, monkeypatch):
        # d = 1 keeps theta at +-1, so arms 1 and 2 tie exactly whenever they lead
        import driftpref.prefloop as prefloop

        monkeypatch.setattr(prefloop, "make_features",
                            lambda K, d, rng: np.array([[-1.0], [1.0], [1.0]]))
        cfg = RunConfig(mode="evodpo", K=3, d=1, H=60, phase_length=20,
                        fixed_context=True, delta_min=0.5, delta_max=3.0, V_T=1e9)
        arms = np.concatenate([run_preference_loop(cfg, seed).ledger.oracle_arm
                               for seed in range(4)])
        assert set(arms.tolist()) == {0, 1}

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.normal(size=int(rng.integers(1, 9)))
            best, arg = -np.inf, -1
            for i, v in enumerate(u):
                if v > best:
                    best, arg = v, i
            star = np.zeros(u.shape[0])
            star[arg] = 1.0
            assert regret_decompose(u, star, star) == (0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            regret_decompose(np.zeros(0), np.zeros(0), np.zeros(0))


class TestRegretDecompose:
    def test_oracle_point_mass_everywhere_is_zero(self):
        u = np.array([0.2, 0.9, -0.4])
        star = np.array([0.0, 1.0, 0.0])
        bias, error = regret_decompose(u, star, star)
        assert bias == 0.0 and error == 0.0

    def test_played_equals_comparator_has_zero_error(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=4)
        pi = random_row(rng, 4)
        bias, error = regret_decompose(u, pi, pi)
        assert error == 0.0
        assert abs(bias - (u.max() - pi @ u)) < 1e-15

    def test_sum_is_plain_regret_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            u = rng.normal(size=k)
            pi = random_row(rng, k)
            pi_kl = random_row(rng, k)
            bias, error = regret_decompose(u, pi, pi_kl)
            plain = float(u.max() - pi @ u)
            assert abs((bias + error) - plain) < 1e-12

    def test_components_match_value_arithmetic(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=5)
        pi = random_row(rng, 5)
        pi_kl = random_row(rng, 5)
        bias, error = regret_decompose(u, pi, pi_kl)
        assert abs(bias - (u.max() - float(pi_kl @ u))) < 1e-15
        assert abs(error - (float(pi_kl @ u) - float(pi @ u))) < 1e-15


class TestSwitchFlags:
    def test_constant_path_never_switches(self):
        theta = np.array([1.0, 0.0])
        thetas = np.tile(theta, (10, 1))
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert not switch_flags(thetas, feats).any()

    def test_sign_flip_with_antipodal_arms_is_one_switch(self):
        thetas = np.array([[1.0, 0.0]] * 5 + [[-1.0, 0.0]] * 5)
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        flags = switch_flags(thetas, feats)
        assert flags[0] == 0  # first step is never a switch
        assert flags.sum() == 1
        assert flags[5] == 1

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(4)
        T, K, d = 60, 4, 3
        thetas = rng.standard_normal((T, d))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        feats = rng.standard_normal((T, K, d))
        feats /= np.linalg.norm(feats, axis=2, keepdims=True)
        flags = switch_flags(thetas, feats)
        recount = 0
        for t in range(1, T):
            a = int(np.argmax(feats[t] @ thetas[t]))
            b = int(np.argmax(feats[t] @ thetas[t - 1]))
            recount += int(a != b)
            assert flags[t] == int(a != b)
        assert flags.sum() == recount

    def test_per_step_features_length_mismatch(self):
        thetas = np.zeros((5, 2))
        feats = np.zeros((4, 3, 2))
        with pytest.raises(ContractError):
            switch_flags(thetas, feats)


class TestMinMargin:
    def test_hand_instance(self):
        thetas = np.tile(np.array([1.0, 0.0]), (3, 1))
        feats = np.array([[1.0, 0.0], [0.6, 0.8]])
        # utilities are (1.0, 0.6) every step
        assert abs(min_margin(thetas, feats) - 0.4) < 1e-12

    def test_switch_steps_excluded(self):
        # the flip step has a tiny margin but is excluded as a switch
        thetas = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(min_margin(thetas, feats) - 2.0) < 1e-12

    def test_needs_two_actions(self):
        thetas = np.array([[1.0]])
        feats = np.array([[1.0]])
        with pytest.raises(ContractError):
            min_margin(thetas, feats)

    def test_matches_per_step_loop(self):
        # the batched margin equals the step-by-step computation bit for bit,
        # for per-step and for shared feature tables
        rng = np.random.default_rng(5)
        T, K, d = 80, 5, 3
        thetas = rng.standard_normal((T, d))
        for feats in (rng.standard_normal((T, K, d)), rng.standard_normal((K, d))):
            table = np.broadcast_to(feats, (T, K, d))
            flags = switch_flags(thetas, feats)
            best = np.inf
            for t in range(T):
                if not flags[t]:
                    u = np.sort(table[t] @ thetas[t])
                    best = min(best, float(u[-1] - u[-2]))
            assert min_margin(thetas, feats) == best
            assert min_margin(thetas, feats, flags) == best

    def test_given_flags_decide_the_excluded_steps(self):
        thetas = np.array([[1.0, 0.0], [0.5, 0.0], [-1.0, 0.0]])
        feats = np.array([[1.0, 0.0], [0.6, 0.8]])
        # top-two gaps 0.4, 0.2, 0.4; the oracle flips at the last step
        assert list(switch_flags(thetas, feats)) == [0, 0, 1]
        assert min_margin(thetas, feats) == pytest.approx(0.2)
        assert min_margin(thetas, feats, np.array([0, 1, 0])) == pytest.approx(0.4)
        assert min_margin(thetas, feats, np.ones(3, dtype=int)) == np.inf


class TestNmr:
    def test_following_oracle_gives_zero(self):
        best = np.array([0.5, 0.7, 0.9])
        assert nmr(best, best.copy()) == 0.0

    def test_constant_gap(self):
        best = np.ones(4)
        chosen = np.full(4, 0.5)
        assert abs(nmr(best, chosen) - (-0.5)) < 1e-15

    def test_never_positive_when_best_dominates(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            chosen = rng.normal(size=20)
            best = chosen + rng.random(20)
            assert nmr(best, chosen) <= 0.0

    def test_matches_direct_mean(self):
        rng = np.random.default_rng(6)
        best = rng.normal(size=50)
        chosen = rng.normal(size=50)
        assert abs(nmr(best, chosen) + np.mean(best - chosen)) < 1e-12

    def test_validation(self):
        with pytest.raises(ContractError):
            nmr(np.zeros(0), np.zeros(0))
        with pytest.raises(ContractError):
            nmr(np.zeros(3), np.zeros(4))


class TestSlopeFit:
    def test_linear_curve_has_slope_one(self):
        horizons = np.array([1000.0, 2000.0, 4000.0])
        assert abs(slope_fit(horizons, 3.0 * horizons) - 1.0) < 1e-10

    def test_sqrt_curve_has_slope_half(self):
        horizons = np.array([1000.0, 2000.0, 4000.0, 8000.0])
        assert abs(slope_fit(horizons, 2.0 * np.sqrt(horizons)) - 0.5) < 1e-10

    def test_noisy_power_law_recovered(self):
        rng = np.random.default_rng(7)
        horizons = np.array([500.0, 1000.0, 2000.0, 4000.0, 8000.0])
        values = 1.7 * horizons**0.7 * np.exp(rng.normal(scale=0.02, size=5))
        assert abs(slope_fit(horizons, values) - 0.7) < 0.05

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ContractError):
            slope_fit(np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    def test_too_few_points_rejected(self):
        with pytest.raises(ContractError):
            slope_fit(np.array([4.0]), np.array([2.0]))

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            slope_fit(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0]))
