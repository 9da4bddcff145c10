"""Bound checks: structure, small-size smoke runs, and helper oracles."""

import math
import tracemalloc
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from driftpref.config import RunConfig
from driftpref.env import DriftConfig, generate_path, make_features, spread_drift_limits
from driftpref.cli import main
from driftpref.errors import ConfigError, ConvergenceError
from driftpref import verify
from driftpref.verify import (
    _BLOCK,
    _T_EST,
    _T_KL,
    _T_SELF,
    _tally,
    _window_distance_sums,
    FROZEN_BIAS_CEILING,
    FrozenBiasReport,
    LemmaReport,
    check_estimation_error,
    check_frozen_bias,
    check_kl_bound,
    check_local_variation,
    check_regret_scaling,
    check_self_normalized,
    check_switching_budget,
    local_window_variation,
    run_standard_checks,
    scaling_base_config,
    self_normalized_rhs,
)


def min_eig_bisect(A, tol=1e-12):
    """Smallest eigenvalue of a symmetric PSD matrix via Cholesky bisection."""
    lo, hi = 0.0, float(np.min(np.diag(A)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            np.linalg.cholesky(A - mid * np.eye(A.shape[0]))
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
        if hi - lo < tol:
            break
    return lo


class TestVerdictRule:
    @pytest.mark.parametrize("rhs, slack", [(1000.0, 1e-6), (1e-3, 1e-9)])
    def test_exact_rule_allows_only_the_rounding_slack(self, rhs, slack):
        # the slack is 1e-9 * max(1, rhs): relative above rhs = 1, absolute below
        rep = _tally("x", [rhs + 0.5 * slack, rhs + 2.0 * slack], [rhs, rhs])
        assert (rep.trials, rep.violations, rep.allowed_rate) == (2, 1, 0.0)
        assert rep.violation_rate == 0.5 and not rep.passed
        assert _tally("x", [rhs + 0.5 * slack], [rhs]).passed

    def test_nonpositive_rhs_counts_as_a_trial_but_not_a_ratio(self):
        rep = _tally("x", [0.0, 0.0, 1.0, 3.0], [0.0, -1.0, 4.0, 0.0])
        assert rep.trials == 4
        assert rep.violations == 2  # 0 > -1 and 3 > 0, past the slack
        assert rep.max_ratio == 0.25
        assert _tally("x", [-3.0, 5.0], [-1.0, 0.0]).max_ratio == 0.0

    def test_sampled_rule_is_strict(self):
        rhs = 2.0
        rep = _tally("x", [rhs, np.nextafter(rhs, 3.0)], rhs, delta=0.5)
        assert rep.violations == 1  # equality holds; one ulp above violates
        assert rep.max_ratio == np.nextafter(rhs, 3.0) / rhs

    def test_sampled_rule_passes_at_exactly_the_allowed_rate(self):
        # delta = 1/2, n = 64: allowed = 1/2 + 3 * sqrt(1/256) = 44/64 exactly
        for bad, passed in ((44, True), (45, False)):
            lhs = np.where(np.arange(64) < bad, 2.0, 0.5)
            rep = _tally("x", lhs, 1.0, delta=0.5)
            assert rep.allowed_rate == 0.6875
            assert rep.violation_rate == bad / 64
            assert rep.passed is passed

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_zero_trials_pass(self, delta):
        rep = _tally("x", [], [], delta=delta, excluded=3)
        assert (rep.trials, rep.violations, rep.excluded) == (0, 0, 3)
        assert (rep.max_ratio, rep.violation_rate, rep.allowed_rate) == (0.0, 0.0, delta)
        assert rep.passed

    def test_fields_are_plain_python_values(self):
        rep = _tally("x", np.array([0.5, 3.0]), np.array([1.0, 2.0]),
                     constants={"c": 1}, details={"d": 2})
        assert type(rep.trials) is int and type(rep.violations) is int
        assert type(rep.max_ratio) is float and rep.max_ratio == 1.5
        assert rep.passed is False
        assert (rep.constants, rep.details) == ({"c": 1}, {"d": 2})


class TestKlBoundCheck:
    def test_small_run_passes_exactly(self):
        rep = check_kl_bound(trials=50)
        assert rep.lemma_id == "kl-perturbation"
        assert rep.trials == 50
        assert rep.violations == 0
        assert rep.excluded == 0
        assert rep.allowed_rate == 0.0
        assert rep.passed
        assert 0.0 < rep.max_ratio <= 1.0 + 1e-9

    def test_deterministic(self):
        a = check_kl_bound(trials=30, seed=7)
        b = check_kl_bound(trials=30, seed=7)
        assert asdict(a) == asdict(b)

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            check_kl_bound(trials=0)


class TestSwitchingBudgetCheck:
    def test_small_run_passes(self):
        rep = check_switching_budget(runs=10)
        assert rep.lemma_id == "switching-budget"
        assert rep.violations == 0
        assert rep.trials + rep.excluded == 10
        assert rep.passed
        assert rep.max_ratio <= 1.0 + 1e-9
        assert rep.constants["gamma_floor"] == 1e-6

    def test_bad_runs(self):
        with pytest.raises(ConfigError):
            check_switching_budget(runs=0)

    def test_margins_need_two_actions(self):
        with pytest.raises(ConfigError, match="K >= 2"):
            check_switching_budget(runs=1, K=1)


class TestLocalWindowVariation:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        path = generate_path(40, 3, DriftConfig(0.1, 0.5, tv_budget=1e9), rng)
        for window in (1, 4, 16):
            got = local_window_variation(path.thetas, window)
            for t in range(40):
                lo = max(0, t - window)
                want = sum(
                    float(np.linalg.norm(path.thetas[i + 1] - path.thetas[i]))
                    for i in range(lo, t)
                )
                assert abs(got[t] - want) < 1e-9

    def test_window_one_telescopes_to_step_sizes(self):
        rng = np.random.default_rng(1)
        path = generate_path(60, 4, DriftConfig(0.2, 1.0, tv_budget=1e9), rng)
        v1 = local_window_variation(path.thetas, 1)
        assert v1[0] == 0.0
        assert abs(v1.sum() - path.tv_used) < 1e-9

    def test_frozen_path_is_zero(self):
        thetas = np.tile(np.array([1.0, 0.0]), (10, 1))
        assert np.all(local_window_variation(thetas, 5) == 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            local_window_variation(np.zeros((5, 2)), 0)
        with pytest.raises(ConfigError):
            local_window_variation(np.zeros(5), 2)


class TestWindowDistanceSums:
    @pytest.mark.parametrize("horizon, window", [
        (10, 16), (16, 16), (17, 16), (40, 1), (1, 1), (1, 4), (120, 9), (300, 16),
    ])
    def test_matches_per_step_loop(self, horizon, window):
        # check_local_variation's per-step left-hand side, bit for bit
        rng = np.random.default_rng([horizon, window])
        thetas = generate_path(horizon, 4, DriftConfig(0.05, 0.5, tv_budget=1e9), rng).thetas
        want = [float(np.linalg.norm(thetas[t] - thetas[max(0, t - window):t], axis=1).sum())
                for t in range(horizon)]
        got = _window_distance_sums(thetas, window)
        assert got.shape == (horizon,)
        assert got.tolist() == want


class TestLocalVariationCheck:
    def test_small_run_passes(self):
        rep = check_local_variation(runs=5, horizon=100)
        assert rep.lemma_id == "local-variation"
        assert rep.violations == 0
        assert rep.passed
        # per-step checks plus one per-run total check
        assert rep.trials == 5 * (100 + 1)

    def test_bad_runs(self):
        with pytest.raises(ConfigError):
            check_local_variation(runs=0)


class TestSelfNormalizedRhs:
    def test_hand_transcription(self):
        W, d, lam, delta, phi_max = 100, 5, 0.1, 0.05, 2.0
        log_term = (d / 2.0) * math.log(1.0 + W * phi_max**2 / (d * lam)) \
            + math.log(1.0 / delta)
        want = math.sqrt(lam + W * phi_max**2) * math.sqrt(2.0 * log_term)
        assert abs(self_normalized_rhs(W, d, lam, delta, phi_max) - want) < 1e-12

    def test_monotone_in_window(self):
        prev = 0.0
        for W in (10, 50, 200, 1000):
            val = self_normalized_rhs(W, 5, 0.1, 0.05, 2.0)
            assert val > prev
            prev = val

    def test_validation(self):
        with pytest.raises(ConfigError):
            self_normalized_rhs(0, 5, 0.1, 0.05, 2.0)
        with pytest.raises(ConfigError):
            self_normalized_rhs(10, 5, 0.1, 1.5, 2.0)
        with pytest.raises(ConfigError):
            self_normalized_rhs(10, 5, 0.0, 0.05, 2.0)


class TestSelfNormalizedCheck:
    def test_small_run_within_allowance(self):
        rep = check_self_normalized(trials=200)
        assert rep.lemma_id == "self-normalized"
        assert rep.violation_rate <= rep.allowed_rate
        assert rep.passed
        assert rep.constants["subgaussian_used"] == 1.0
        assert rep.constants["subgaussian_bounded_noise"] == 0.5

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            check_self_normalized(trials=0)

    def test_traced_peak_at_default_size(self):
        # Blocks of 25 trials peak near 0.7 MB; scoring all 2,000 trials in
        # one stack would hold about 40 MB.
        check_self_normalized(trials=2)
        tracemalloc.start()
        try:
            check_self_normalized()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestEstimationErrorCheck:
    def test_small_run_within_allowance(self):
        rep = check_estimation_error(runs=5)
        assert rep.lemma_id == "estimation-error"
        assert rep.violation_rate <= rep.allowed_rate
        assert rep.passed
        assert rep.constants["phi_max"] == 2.0
        assert rep.constants["c_min"] > 0.0
        assert rep.trials == 5 * rep.details["checks_per_run"]

    def test_horizon_must_exceed_window(self):
        with pytest.raises(ConfigError):
            check_estimation_error(runs=1, window=100, horizon=100)

    def test_random_pairs_need_two_actions(self):
        with pytest.raises(ConfigError, match="K >= 2"):
            check_estimation_error(runs=1, K=1)

    def test_c_min_matches_bisection_oracle(self):
        # one run with one check step (t = window): replay the run's draws
        # and recompute the covariance floor of its window rows
        window, horizon, K, d, lam, seed = 100, 340, 5, 5, 0.1, 3
        rep = check_estimation_error(runs=1, checks_per_run=1, window=window,
                                     horizon=horizon, K=K, d=d, lam=lam, seed=seed)
        rng = np.random.default_rng([seed, _T_EST, 0])
        feats = make_features(K, d, rng)
        drift = spread_drift_limits(DriftConfig(1.0, 5.0, "sphere-walk", 0.2),
                                    horizon, d)
        generate_path(horizon, d, drift, rng)
        first = rng.integers(0, K, size=horizon)
        second = rng.integers(0, K - 1, size=horizon)
        second = second + (second >= first)
        X = (feats[first] - feats[second])[:window]
        oracle = min_eig_bisect(X.T @ X + lam * np.eye(d))
        assert rep.trials == 1
        assert rep.constants["c_mean"] == rep.constants["c_min"]
        assert abs(rep.constants["c_min"] * window - oracle) < 1e-8


class TestSwitchingBudgetMemory:
    def test_traced_peak_at_default_size(self):
        # The lockstep walk holds all 100 x 500 x 5 path doubles (2 MB) in
        # one stack; drawing into per-run lists and stacking them would
        # hold two copies. A small call first loads what a cold first call
        # would count (about 0.8 MB of import-time caches).
        check_switching_budget(runs=2, horizon=20)
        tracemalloc.start()
        try:
            check_switching_budget()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestEstimationErrorMemory:
    def test_traced_peak_at_default_size(self):
        # With one stack per run (8 windows of 100 x 5 rows) the check peaks
        # near 1.0 MB, most of it the 50 runs' drift paths; one stack of all
        # 400 windows peaks near 8.4 MB. A small call first loads what a
        # cold first call would count.
        check_estimation_error(runs=1)
        tracemalloc.start()
        try:
            check_estimation_error()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestStackedScoringOracle:
    """The stacked Monte-Carlo checks hand _tally the per-trial loop's bits.

    The reports keep only aggregates, so a one-ulp slip in a trial that is
    not the max would not show there; this compares every trial's LHS and
    RHS. The trial counts cover one trial and self-normalized's partial,
    full and overfull blocks.
    """

    TRIALS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 2)

    @staticmethod
    def _captured(monkeypatch):
        seen = {}
        tally = verify._tally

        def spy(lemma_id, lhs, rhs, *args, **kwargs):
            seen["lhs"], seen["rhs"] = lhs, rhs
            return tally(lemma_id, lhs, rhs, *args, **kwargs)

        monkeypatch.setattr(verify, "_tally", spy)
        return seen

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("trials", TRIALS)
    def test_kl_perturbation(self, monkeypatch, seed, trials):
        seen = self._captured(monkeypatch)
        check_kl_bound(trials=trials, seed=seed)
        lhs, rhs = oracles.kl_bound_trials(trials, 4, 3, seed, _T_KL)
        assert self._bits(seen["lhs"]) == self._bits(lhs)
        assert self._bits(seen["rhs"]) == self._bits(rhs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("trials", TRIALS)
    def test_self_normalized(self, monkeypatch, seed, trials):
        seen = self._captured(monkeypatch)
        check_self_normalized(trials=trials, seed=seed)
        lhs = oracles.self_normalized_trials(trials, 100, 5, seed, _T_SELF)
        assert self._bits(seen["lhs"]) == self._bits(lhs)
        assert seen["rhs"] == self_normalized_rhs(100, 5, 0.1, 0.05, 2.0)


class TestNegativeControls:
    """Planted defects that the checks with power must flag.

    At seed 0, local-variation reads a max ratio of 0.987 and
    kl-perturbation 0.773, so a 10% understated path TV or a KL RHS with
    beta doubled (the KL scaled by 4) pushes each over its bound.
    switching-budget (max ratio 0.0025), self-normalized (0.109) and
    estimation-error (0.0003) sit so far below their bounds that a planted
    defect of this size cannot show: they have no power until their bounds
    are replayed in sharp form.
    """

    def test_local_variation_flags_understated_tv(self, monkeypatch):
        assert check_local_variation().passed
        walk = verify.generate_path

        def understated(horizon, dim, cfg, rng):
            return [replace(path, tv_used=0.9 * path.tv_used)
                    for path in walk(horizon, dim, cfg, rng)]

        monkeypatch.setattr(verify, "generate_path", understated)
        rep = check_local_variation()
        assert rep.violations > 0 and not rep.passed

    def test_kl_perturbation_flags_doubled_beta(self, monkeypatch):
        assert check_kl_bound().passed
        kl = verify.kl
        monkeypatch.setattr(verify, "kl", lambda p, q: 4.0 * kl(p, q))
        rep = check_kl_bound()
        assert rep.violations > 0 and not rep.passed


class TestRunStandardChecks:
    def test_five_reports_in_order(self):
        cfg = RunConfig(trials=30)
        reports = run_standard_checks(cfg)
        assert [r.lemma_id for r in reports] == [
            "kl-perturbation",
            "switching-budget",
            "local-variation",
            "self-normalized",
            "estimation-error",
        ]
        assert all(isinstance(r, LemmaReport) for r in reports)

    def test_trials_override_hits_monte_carlo_checks_only(self):
        reports = run_standard_checks(RunConfig(trials=30))
        assert reports[0].trials == 30
        assert reports[3].trials == 30
        # run-based checks keep their own sizes
        assert reports[1].trials + reports[1].excluded == 100

    def test_report_dict_round_trip(self):
        rep = check_kl_bound(trials=20)
        d = asdict(rep)
        assert set(d) == {
            "lemma_id", "trials", "violations", "excluded", "max_ratio",
            "violation_rate", "allowed_rate", "passed", "constants", "details",
        }


class TestScalingStudy:
    def test_base_config_locks_the_study_design(self):
        base = scaling_base_config()
        assert base.mode == "evodpo"
        assert (base.K, base.d, base.H) == (5, 5, 2000)
        assert base.V_T == 2.0  # one early jump, then still
        assert base.warm_scale == 60.0
        assert base.eps_s == 0.005
        assert base.delta_H == 0.05

    def test_needs_enough_seeds(self):
        with pytest.raises(ConfigError):
            check_regret_scaling(seeds=(0, 1, 2))

    def test_needs_two_horizons(self):
        with pytest.raises(ConfigError):
            check_regret_scaling(horizons=(2000,), seeds=(0,), min_seeds=1)

    def test_small_smoke_structure(self):
        base = replace(scaling_base_config(), warm_pairs=1600)
        rep = check_regret_scaling(
            base=base, horizons=(200, 400), seeds=(0, 1), min_seeds=2
        )
        assert rep.horizons == (200, 400)
        assert rep.seeds == (0, 1)
        assert np.asarray(rep.evolving_regret).shape == (2, 2)
        assert len(rep.evolving_exponents) == 2
        assert 0.0 <= rep.domination <= 1.0
        assert math.isfinite(rep.evolving_exponent)
        assert math.isfinite(rep.bias_separation)
        d = asdict(rep)
        assert d["passed"] == rep.passed
        assert d["evolving_exponent"] == rep.evolving_exponent


class TestFrozenBiasCheck:
    def test_small_smoke_structure_and_determinism(self):
        base = replace(scaling_base_config(), warm_pairs=1600)
        a = check_frozen_bias(base=base, horizon=300, seeds=(0, 1))
        b = check_frozen_bias(base=base, horizon=300, seeds=(0, 1))
        assert isinstance(a, FrozenBiasReport)
        assert a.evolving_mean_abs_bias >= 0.0
        assert a.fixed_mean_abs_bias >= 0.0
        assert a.ceiling == 1e-3
        assert asdict(a) == asdict(b)


def stub_loop(regret_exp, bias_slope, frozen_bias=None, fail_seed=None):
    """A stand-in for run_preference_loop with chosen outcomes.

    Seed s of arm m ("evodpo" or "fixed-ref") ends a horizon-T run with
    cumulative regret 3 T^regret_exp[m][s] and cumulative bias
    2 T^bias_slope[m], so the study's log-log fits read back the chosen
    exponents; with drift frozen, the bias is frozen_bias[m] per step and
    so is the regret. The evolving arm's accept rate is 0.5; the fixed
    arm's is None, as a real fixed-ref run's is. Seed fail_seed raises
    the ConvergenceError a window fit raises.
    """
    def run(cfg, seed):
        if seed == fail_seed:
            raise ConvergenceError("window logistic fit did not converge", np.zeros(2), 0.25)
        T, m = cfg.H, cfg.mode
        if cfg.drift_mode == "frozen":
            regret = bias = frozen_bias[m] * T
        else:
            regret, bias = 3.0 * T ** regret_exp[m][seed], 2.0 * T ** bias_slope[m]
        ledger = SimpleNamespace(final_regret=lambda: regret, cumulative_bias=lambda: bias)
        rate = 0.5 if m == "evodpo" else None
        return SimpleNamespace(ledger=ledger, accept_rate=lambda: rate)
    return run


class TestScalingVerdictThresholds:
    """The study's verdicts flip exactly at their thresholds.

    Each case stubs the preference loop, so only the verdict arithmetic
    runs: 2 x 20 x 3 stubbed runs per study.
    """

    EVO, FIX = 0.5, 1.0  # per-seed regret exponents that pass every verdict

    def study(self, monkeypatch, evo=None, fix=None, bias=(0.2, 0.6)):
        exps = {"evodpo": evo or [self.EVO] * 20, "fixed-ref": fix or [self.FIX] * 20}
        slopes = {"evodpo": bias[0], "fixed-ref": bias[1]}
        monkeypatch.setattr(verify, "run_preference_loop", stub_loop(exps, slopes))
        return check_regret_scaling()

    def test_passing_study(self, monkeypatch):
        rep = self.study(monkeypatch)
        assert rep.passed and rep.domination == 1.0 and rep.accept_rate_mean == 0.5
        assert abs(rep.evolving_exponent - self.EVO) < 1e-12
        assert abs(rep.bias_separation - 0.4) < 1e-12

    @pytest.mark.parametrize("wins, passed", [(20, True), (16, True), (15, False), (0, False)])
    def test_domination_needs_16_of_20_seeds(self, monkeypatch, wins, passed):
        # seeds past the first `wins` have a fixed exponent below the evolving one
        fix = [self.FIX] * wins + [0.4] * (20 - wins)
        rep = self.study(monkeypatch, fix=fix)
        assert rep.domination == wins / 20
        assert (rep.passed_domination, rep.passed) == (passed, passed)
        assert rep.passed_exponent and rep.passed_bias_separation

    def test_tied_seeds_do_not_dominate(self, monkeypatch):
        rep = self.study(monkeypatch, fix=[self.FIX] * 15 + [self.EVO] * 5)
        assert rep.domination == 0.75 and not rep.passed_domination

    @pytest.mark.parametrize("exponent, passed", [(0.95 - 1e-6, True), (0.95 + 1e-6, False)])
    def test_evolving_exponent_at_most_095(self, monkeypatch, exponent, passed):
        rep = self.study(monkeypatch, evo=[exponent] * 20)
        assert abs(rep.evolving_exponent - exponent) < 1e-12
        assert (rep.passed_exponent, rep.passed) == (passed, passed)
        assert rep.passed_domination and rep.passed_bias_separation

    @pytest.mark.parametrize("gap, passed", [(0.15 + 1e-6, True), (0.15 - 1e-6, False)])
    def test_bias_separation_at_least_015(self, monkeypatch, gap, passed):
        rep = self.study(monkeypatch, bias=(0.2, 0.2 + gap))
        assert abs(rep.bias_separation - gap) < 1e-12
        assert (rep.passed_bias_separation, rep.passed) == (passed, passed)
        assert rep.passed_exponent and rep.passed_domination

    @pytest.mark.parametrize("evo, fix, passed", [
        (0.999e-3, 0.999e-3, True), (1.001e-3, 0.5e-3, False), (0.5e-3, 1.001e-3, False),
        (-0.999e-3, 0.0, True), (-1.001e-3, 0.0, False)])
    def test_frozen_bias_ceiling(self, monkeypatch, evo, fix, passed):
        # the ceiling bounds the mean |bias| per step of each arm
        monkeypatch.setattr(verify, "run_preference_loop", stub_loop(
            {}, {}, frozen_bias={"evodpo": evo, "fixed-ref": fix}))
        rep = check_frozen_bias()
        assert rep.ceiling == FROZEN_BIAS_CEILING == 1e-3
        assert (rep.evolving_mean_abs_bias, rep.fixed_mean_abs_bias) == pytest.approx(
            (abs(evo), abs(fix)), rel=1e-12)
        assert rep.passed == passed


class TestStudySeedNaming:
    """A solver failure inside either study leaves naming the seed it ran."""

    PASSING = {"evodpo": [0.5] * 20, "fixed-ref": [1.0] * 20}, {"evodpo": 0.2, "fixed-ref": 0.6}

    def test_scaling_study_names_the_seed(self, monkeypatch):
        monkeypatch.setattr(verify, "run_preference_loop", stub_loop(*self.PASSING, fail_seed=3))
        with pytest.raises(ConvergenceError) as info:
            check_regret_scaling()
        assert info.value.seed == 3

    def test_frozen_study_names_the_seed(self, monkeypatch):
        monkeypatch.setattr(verify, "run_preference_loop", stub_loop(
            {}, {}, frozen_bias={"evodpo": 0.0, "fixed-ref": 0.0}, fail_seed=3))
        with pytest.raises(ConvergenceError) as info:
            check_frozen_bias()
        assert info.value.seed == 3

    def test_verify_with_the_study_exits_three_naming_the_seed(self, monkeypatch, tmp_path,
                                                               capsys):
        monkeypatch.setattr(verify, "run_preference_loop", stub_loop(*self.PASSING, fail_seed=3))
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("mode = verify\nscaling = true\ntrials = 40\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error: verify seed 3: window logistic fit did not converge "
            "(residual grad norm 2.500e-01)\n")


class TestEstimationErrorOracle:
    """Each run's stacked window fits hand _tally the per-window loop's bits.

    The report keeps only aggregates; this compares every trial's LHS, RHS
    and covariance floor c with tests/oracles.py's one-fit-per-window loop,
    over seeds and sizes from one check step per run to a run's full stack.
    """

    SIZES = [  # runs, checks_per_run, window, horizon
        (1, 1, 100, 340),
        (3, 8, 100, 340),
        (2, 5, 30, 90),
        (4, 3, 12, 40),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("runs, checks, window, horizon", SIZES)
    def test_matches_per_window_fits(self, monkeypatch, seed, runs, checks, window, horizon):
        seen, c_seen = {}, []
        tally, rhs_of = verify._tally, verify.estimation_error_rhs

        def spy_tally(lemma_id, lhs, rhs, *args, **kwargs):
            seen["lhs"], seen["rhs"] = lhs, rhs
            return tally(lemma_id, lhs, rhs, *args, **kwargs)

        def spy_rhs(v_window, W, lam, d, delta, m0, c, **kwargs):
            c_seen.append(c)
            return rhs_of(v_window, W, lam, d, delta, m0, c, **kwargs)

        monkeypatch.setattr(verify, "_tally", spy_tally)
        monkeypatch.setattr(verify, "estimation_error_rhs", spy_rhs)
        check_estimation_error(runs=runs, checks_per_run=checks, window=window,
                               horizon=horizon, seed=seed)
        lhs, rhs, c = oracles.estimation_error_trials(
            runs, checks, window, horizon, 5, 5, 0.1, 0.05, 0.2, seed, _T_EST)
        bits = TestStackedScoringOracle._bits
        assert len(lhs) == runs * len(np.unique(
            np.linspace(window, horizon - 1, checks).astype(int)))
        assert bits(seen["lhs"]) == bits(lhs)
        assert bits(seen["rhs"]) == bits(rhs)
        assert bits(c_seen) == bits(c)
