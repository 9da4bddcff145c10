"""Preference-pair fitting, the promotion gate, and the full phase loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from driftpref.config import RunConfig
from driftpref.env import generate_path, make_drift
from driftpref.errors import ConfigError, ContractError, ConvergenceError
from driftpref.estimator import fit_logistic_window, window_size
from driftpref.numerics import sigmoid
from driftpref.policies import gate_kl_estimate, inspector_score, softmax_rows
from driftpref.prefloop import (
    fit_dpo,
    gate,
    propose_reference,
    run_preference_loop,
    sample_categorical,
)
from oracles import dpo_loss, softplus


def random_row(rng, k):
    w = rng.random(k) + 1e-3
    return w / w.sum()


def tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def bisect_root(fn, lo, hi, iters=300):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestPhaseConfig:
    """The phase and gate settings that the loops read from RunConfig."""

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.eps_s == 0.0007
        assert cfg.delta_H == 0.002

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(beta=0.0)
        with pytest.raises(ConfigError):
            RunConfig(beta_ref=0.0)
        with pytest.raises(ConfigError):
            RunConfig(eps_s=-1e-6)
        with pytest.raises(ConfigError):
            RunConfig(phase_length=0)
        with pytest.raises(ConfigError):
            RunConfig(gate_size=0)
        with pytest.raises(ConfigError):
            RunConfig(pass_quantile=1.0)


def random_pairs(rng, n, n_ctx, k):
    """n (context, winner, loser) triples with two distinct actions each."""
    ctx = rng.integers(n_ctx, size=n)
    win = rng.integers(k, size=n)
    lose = (win + 1 + rng.integers(k - 1, size=n)) % k
    return np.stack([ctx, win, lose], axis=1)


def pair_rows(feats, pairs):
    """Winner-minus-loser feature rows of (context, winner, loser) pairs."""
    ctx, win, lose = pairs.T
    return feats[ctx, win] - feats[ctx, lose]


def tilted(ref, feats, w, beta, floor=1e-9):
    """The Gibbs-class policy softmax(log ref + feats @ w / beta)."""
    return softmax_rows(np.log(ref) + feats @ w / beta, floor=floor)


class TestDpoLoss:
    """The test oracle for the pair loss that fit_dpo minimizes."""

    def test_policy_equal_to_reference_gives_log_two(self):
        rng = np.random.default_rng(0)
        rows = np.stack([random_row(rng, 3) for _ in range(4)])
        pairs = [(i % 4, 0, 1) for i in range(10)]
        assert abs(dpo_loss(rows, rows, pairs, beta=0.6) - math.log(2.0)) < 1e-12

    def test_single_pair_hand_oracle(self):
        # pi (3/4, 1/4) vs uniform ref, winner 0, beta 1: margin = ln 3
        pi = np.array([[0.75, 0.25]])
        ref = np.array([[0.5, 0.5]])
        got = dpo_loss(pi, ref, [(0, 0, 1)], beta=1.0)
        assert abs(got - (-math.log(0.75))) < 1e-12

    def test_large_beta_drives_aligned_loss_to_zero(self):
        pi = np.array([[0.75, 0.25]])
        ref = np.array([[0.5, 0.5]])
        assert dpo_loss(pi, ref, [(0, 0, 1)], beta=50.0) < 1e-12

    def test_pointwise_logistic_equivalence(self):
        # the pair loss of a tilted policy equals the logistic loss of the
        # tilt on winner-minus-loser features, exactly
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            n_ctx = int(rng.integers(1, 4))
            feats = rng.standard_normal((n_ctx, k, d))
            feats /= np.linalg.norm(feats, axis=2, keepdims=True)
            ref = np.stack([random_row(rng, k) for _ in range(n_ctx)])
            w = rng.normal(size=d)
            beta = float(rng.uniform(0.2, 3.0))
            pi = tilted(ref, feats, w, beta, floor=0.0)
            pair = random_pairs(rng, 1, n_ctx, k)
            direct = float(softplus(-pair_rows(feats, pair)[0] @ w))
            assert abs(dpo_loss(pi, ref, pair, beta) - direct) < 1e-10


class TestFitDpo:
    def test_zero_pairs_returns_reference(self):
        # the zero tilt leaves the reference unchanged
        w = fit_dpo(np.zeros((0, 4)), lam=0.1)
        assert np.array_equal(w, np.zeros(4))

    def test_identical_pairs_match_scalar_root_oracle(self):
        # all pairs prefer arm 0 in one context: the tilt lies along the
        # feature difference v and its length solves a 1-d stationarity
        # condition, found here by bisection
        feats = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        ref = np.array([[0.5, 0.5]])
        v = feats[0, 0] - feats[0, 1]
        s = float(v @ v)
        lam = 0.1
        prev_mass = 0.0
        for n_pairs in (1, 10, 100):
            w = fit_dpo(np.tile(v, (n_pairs, 1)), lam=lam)
            t_star = bisect_root(
                lambda t: n_pairs * (sigmoid(s * t) - 1.0) + lam * t, 0.0, 1e4
            )
            assert np.linalg.norm(w - t_star * v) < 1e-8
            mass = float(tilted(ref, feats, w, beta=1.0)[0][0])
            assert mass > prev_mass  # more pairs, more winner mass
            prev_mass = mass

    def test_fitted_policy_matches_direct_tilt_of_reference(self):
        # the pair fit is the window logistic fit with every label 1, so its
        # policy is the reference tilted by the window estimate on those rows
        rng = np.random.default_rng(3)
        k, d, n_ctx = 4, 3, 6
        feats = rng.standard_normal((n_ctx, k, d))
        feats /= np.linalg.norm(feats, axis=2, keepdims=True)
        ref = np.stack([random_row(rng, k) for _ in range(n_ctx)])
        dphi = pair_rows(feats, random_pairs(rng, 30, n_ctx, k))
        beta = 0.6
        w = fit_dpo(dphi, lam=0.1)
        theta_hat, _ = fit_logistic_window(dphi, np.ones(30), lam=0.1)
        direct = tilted(ref, feats, theta_hat, beta)
        assert np.max(np.abs(tilted(ref, feats, w, beta) - direct)) < 1e-12

    def test_fitted_tilt_minimizes_penalized_pair_loss(self):
        # n * dpo_loss + lam/2 |w|^2 over the Gibbs tilts of any reference is
        # the objective fit_dpo solves: no small step away from w lowers it
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            n_ctx = int(rng.integers(1, 5))
            n = int(rng.integers(1, 60))
            lam = float(rng.choice([0.1, 2.0]))
            beta = float(rng.uniform(0.2, 3.0))
            feats = rng.standard_normal((n_ctx, k, d))
            feats /= np.linalg.norm(feats, axis=2, keepdims=True)
            ref = np.stack([random_row(rng, k) for _ in range(n_ctx)])
            pairs = random_pairs(rng, n, n_ctx, k)
            w = fit_dpo(pair_rows(feats, pairs), lam=lam)

            def objective(v):
                pi = tilted(ref, feats, v, beta, floor=0.0)
                return n * dpo_loss(pi, ref, pairs, beta) + 0.5 * lam * v @ v

            best = objective(w)
            steps = [sign * scale * e for e in np.eye(d) for sign in (1.0, -1.0)
                     for scale in (1e-3, 1e-4)]
            steps += [1e-3 * rng.standard_normal(d) for _ in range(10)]
            for step in steps:
                assert objective(w + step) >= best - 1e-12 * max(1.0, best)

    def test_matches_closed_form_tilt_of_window_estimate(self):
        # fit_dpo and the window logistic fit minimize the same objective on
        # winner-minus-loser rows, so the fitted policy lands on the exact
        # Gibbs tilt of the reference by u(theta_hat)
        rng = np.random.default_rng(4)
        for trial in range(10):
            k = int(rng.integers(2, 7))
            d = int(rng.integers(2, 6))
            theta_star = rng.standard_normal(d)
            theta_star /= np.linalg.norm(theta_star)
            feats_row = rng.standard_normal((k, d))
            feats_row /= np.linalg.norm(feats_row, axis=1, keepdims=True)
            ref = random_row(rng, k)[None, :]
            rows = np.empty((500, d))
            for i in range(500):
                first = int(rng.integers(k))
                second = int((first + 1 + rng.integers(k - 1)) % k)
                gap = float((feats_row[first] - feats_row[second]) @ theta_star)
                winner, loser = (first, second) if rng.uniform() < sigmoid(gap) \
                    else (second, first)
                rows[i] = feats_row[winner] - feats_row[loser]
            beta = 0.6
            w = fit_dpo(rows, lam=0.1)
            theta_hat, _ = fit_logistic_window(rows, np.ones(500), lam=0.1)
            target = softmax_rows(
                np.log(ref) + (feats_row @ theta_hat)[None, :] / beta, floor=0.0
            )
            assert tv(tilted(ref, feats_row, w, beta)[0], target[0]) <= 0.05

    def test_convergence_error_names_the_preference_fit(self, monkeypatch):
        monkeypatch.setattr("driftpref.numerics.NEWTON_MAX_ITER", 0)
        with pytest.raises(ConvergenceError, match="^preference fit") as err:
            fit_dpo(np.array([[1.0, -1.0]]), lam=0.1)
        assert err.value.iterate.shape == (2,)

    def test_bad_scalars(self):
        for lam in (0.0, -1.0):
            with pytest.raises(ConfigError):
                fit_dpo(np.zeros((1, 2)), lam=lam)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((3, 3, 2))
        dphi = pair_rows(feats, np.array([(i % 3, 0, 2) for i in range(20)]))
        assert np.array_equal(fit_dpo(dphi, lam=0.1), fit_dpo(dphi, lam=0.1))


class TestProposeReference:
    def test_reference_alone_scores_unpenalized(self):
        rng = np.random.default_rng(6)
        ref = np.stack([random_row(rng, 3) for _ in range(5)])
        u = rng.normal(size=(5, 3))
        best, objectives = propose_reference([ref], ref, u, beta_ref=0.5)
        assert best == 0
        assert abs(objectives[0] - inspector_score(ref, u)) < 1e-12

    def test_equal_kl_candidates_ranked_by_score(self):
        ref = np.array([[0.5, 0.5]])
        a = np.array([[0.7, 0.3]])
        b = np.array([[0.3, 0.7]])  # same KL to uniform by symmetry
        u = np.array([[1.0, 0.0]])
        best, _ = propose_reference([b, a], ref, u, beta_ref=0.1)
        assert best == 1

    def test_penalty_overturns_raw_score(self):
        ref = np.array([[0.5, 0.5]])
        sharp = np.array([[0.999, 0.001]])
        u = np.array([[1.0, 0.9]])  # sharp gains little score but much KL
        best, _ = propose_reference([sharp, ref], ref, u, beta_ref=5.0)
        assert best == 1

    def test_matches_brute_force_objective(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, k = 4, 3
            ref = np.stack([random_row(rng, k) for _ in range(n)])
            cands = [
                np.stack([random_row(rng, k) for _ in range(n)]) for _ in range(3)
            ]
            u = rng.normal(size=(n, k))
            beta_ref = float(rng.uniform(0.01, 1.0))
            best, objectives = propose_reference(cands, ref, u, beta_ref)
            oracle = [
                inspector_score(c, u) - beta_ref * gate_kl_estimate(c, ref)
                for c in cands
            ]
            assert np.allclose(objectives, oracle, atol=1e-12)
            want = 0
            for i in range(1, 3):
                if oracle[i] > oracle[want]:
                    want = i
            assert best == want

    def test_ties_resolve_to_earliest(self):
        ref = np.array([[0.5, 0.5]])
        u = np.array([[0.2, 0.8]])
        best, _ = propose_reference([ref.copy(), ref.copy()], ref, u, beta_ref=1.0)
        assert best == 0

    def test_validation(self):
        ref = np.array([[0.5, 0.5]])
        with pytest.raises(ConfigError):
            propose_reference([ref], ref, np.zeros((1, 2)), beta_ref=0.0)
        with pytest.raises(ContractError):
            propose_reference([], ref, np.zeros((1, 2)), beta_ref=1.0)


class TestGate:
    def test_truth_table_at_default_thresholds(self):
        cfg = RunConfig()  # eps_s = 0.0007, delta_H = 0.002
        assert gate(0.001, 0.001, cfg) is True
        assert gate(0.0, 0.001, cfg) is False  # no improvement
        assert gate(0.01, 0.003, cfg) is False  # KL over budget
        assert gate(0.0, 0.01, cfg) is False  # fails both

    def test_boundaries_inclusive(self):
        cfg = RunConfig()
        assert gate(cfg.eps_s, cfg.delta_H, cfg) is True

    def test_zero_epsilon_accepts_no_improvement(self):
        cfg = RunConfig(eps_s=0.0, delta_H=1e9)
        assert gate(0.0, 123.0, cfg) is True


class TestSampleCategorical:
    def test_consumes_exactly_one_uniform(self):
        probs = np.array([0.25, 0.75])
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        sample_categorical(rng_a, probs)
        rng_b.uniform()
        assert rng_a.uniform() == rng_b.uniform()

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(9)
        probs = np.array([0.2, 0.3, 0.5])
        n = 20_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample_categorical(rng, probs)] += 1
        freqs = counts / n
        for i in range(3):
            se = math.sqrt(probs[i] * (1 - probs[i]) / n)
            assert abs(freqs[i] - probs[i]) < 4 * se

    def test_unnormalized_weights_allowed(self):
        rng = np.random.default_rng(10)
        residual = np.array([0.0, 0.4, 0.0])  # renormalizes to point mass
        assert sample_categorical(rng, residual) == 1

    def test_never_draws_a_zero_probability_index(self):
        # the loop draws its second action from the learner row with the
        # first one zeroed, so a pair always compares two distinct actions;
        # that holds at both ends of the uniform, the last index included
        class FixedUniform:
            def __init__(self, u):
                self.u = u

            def uniform(self):
                return self.u

        rng = np.random.default_rng(12)
        ends = [FixedUniform(0.0), FixedUniform(np.nextafter(1.0, 0.0))]
        for _ in range(200):
            k = int(rng.integers(2, 7))
            scale = float(rng.choice([1.0, 30.0, 1000.0]))  # large: rows at the floor
            row = softmax_rows(scale * rng.standard_normal(k), floor=1e-9)
            for zeroed in range(k):
                residual = row.copy()
                residual[zeroed] = 0.0
                for source in [rng] * 40 + ends:
                    assert sample_categorical(source, residual) != zeroed


def small_cfg(**overrides):
    base = dict(
        mode="evodpo", K=5, d=5, H=60, phase_length=20, gate_size=32,
        drift_mode="sphere-walk", delta_min=0.05, delta_max=0.2, V_T=1e9,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunPreferenceLoop:
    def test_mode_guard(self):
        with pytest.raises(ConfigError):
            run_preference_loop(small_cfg(mode="atlas"), seed=0)

    def test_needs_two_actions(self):
        with pytest.raises(ConfigError):
            run_preference_loop(small_cfg(K=1), seed=0)

    def test_ledger_identities(self):
        res = run_preference_loop(small_cfg(), seed=0)
        led = res.ledger
        assert len(led) == 60
        assert np.all(np.isfinite(led.regret_step))
        assert np.max(np.abs(led.bias + led.error - led.regret_step)) < 1e-12
        assert np.max(np.abs(np.cumsum(led.regret_step) - led.regret_cum)) < 1e-9
        assert led.switch[0] == 0
        assert set(np.unique(led.switch)) <= {0, 1}
        assert np.array_equal(led.phase, 1 + np.arange(60) // 20)
        assert window_size(60, small_cfg().kappa) == math.ceil(60 ** (2.0 / 3.0))

    def test_deterministic_reruns(self):
        cfg = small_cfg()
        a = run_preference_loop(cfg, seed=3)
        b = run_preference_loop(cfg, seed=3)
        for col in ("bias", "error", "regret_step", "regret_cum", "oracle_arm",
                    "switch", "phase"):
            assert np.array_equal(getattr(a.ledger, col), getattr(b.ledger, col))
        assert np.array_equal(a.ref_tilt, b.ref_tilt)
        assert [p.decision for p in a.phases] == [p.decision for p in b.phases]
        assert [p.delta_s for p in a.phases] == [p.delta_s for p in b.phases]

    def test_comparator_is_the_per_step_softmax(self):
        # one accepted phase, then the cap: the comparator rows of each block
        # are a batched softmax with the bits of the per-step one
        cfg = small_cfg(max_phases=1, eps_s=0.0, delta_H=1e9)
        res = run_preference_loop(cfg, seed=5)
        assert res.ref_version == 1
        path = generate_path(cfg.H, cfg.d, make_drift(cfg, cfg.H),
                             np.random.default_rng([5, 0]))
        feats = np.random.default_rng([5, 1]).standard_normal((cfg.H, cfg.K, cfg.d))
        feats /= np.linalg.norm(feats, axis=2, keepdims=True)
        for t in range(cfg.H):
            g_ref = res.ref_tilt if t >= cfg.phase_length else np.zeros(cfg.d)
            u = np.matmul(feats[t:t + 1], path.thetas[t:t + 1, :, None])[0, :, 0]
            comparator = softmax_rows(feats[t] @ (g_ref + path.thetas[t] / cfg.beta_ref),
                                      floor=cfg.pi_min)
            assert res.ledger.bias[t] == float(u[np.argmax(u)]) - float(comparator @ u)

    def test_phase_cap_past_the_horizon_changes_nothing(self):
        # H = 55 holds two phase boundaries and a partial third phase
        cfg = small_cfg(H=55, eps_s=0.0, delta_H=1e9)
        a = run_preference_loop(cfg, seed=5)
        b = run_preference_loop(replace(cfg, max_phases=10), seed=5)
        assert len(a.phases) == 2 and a.ref_version >= 1
        for col in ("bias", "error", "regret_cum", "phase"):
            assert np.array_equal(getattr(a.ledger, col), getattr(b.ledger, col))

    def test_fixed_reference_mode_is_inert(self):
        res = run_preference_loop(small_cfg(mode="fixed-ref"), seed=1)
        assert not res.evolving
        assert all(p.decision == "inert" for p in res.phases)
        assert res.ref_version == 0
        assert res.accept_rate() is None
        assert np.array_equal(res.ref_tilt, np.zeros(5))

    def test_force_reject_reproduces_fixed_reference_exactly(self):
        # no phase can clear eps_s = 1e9, so every evolving decision rejects
        forced = run_preference_loop(small_cfg(eps_s=1e9), seed=2, evolving=True)
        fixed = run_preference_loop(small_cfg(), seed=2, evolving=False)
        for col in ("bias", "error", "regret_step", "regret_cum", "oracle_arm",
                    "switch"):
            assert np.array_equal(
                getattr(forced.ledger, col), getattr(fixed.ledger, col)
            )
        assert forced.ref_version == 0
        assert np.array_equal(forced.ref_tilt, fixed.ref_tilt)
        # the forced run still reports gate outcomes; the inert run does not
        assert all(p.decision == "reject" for p in forced.phases)

    def test_gate_soundness_on_reports(self):
        # decision must agree with the recorded statistics and thresholds
        for cfg in (small_cfg(), small_cfg(eps_s=0.0, delta_H=1e9,
                                           drift_mode="frozen")):
            res = run_preference_loop(cfg, seed=4)
            for p in res.phases:
                passes = p.delta_s >= p.eps_s and p.kl_hat <= p.delta_H
                assert (p.decision == "accept") == passes
                if p.decision == "reject":
                    assert p.ref_version_after == p.ref_version_before
                if p.accepted and p.chosen != "reference":
                    assert p.ref_version_after == p.ref_version_before + 1

    def test_accept_rate_arithmetic(self):
        res = run_preference_loop(
            small_cfg(eps_s=0.0, delta_H=1e9, drift_mode="frozen"), seed=5
        )
        assert res.gated_phases == 3
        assert res.accept_rate() == res.accepted_phases / res.gated_phases

    def test_accept_all_frozen_run_improves_phase_over_phase(self):
        # with the gate wide open under frozen drift, each promotion bakes in
        # what the estimator learned; mean per-phase regret falls across the
        # opening phases on a 20-seed average
        cfg = small_cfg(H=80, drift_mode="frozen", eps_s=0.0, delta_H=1e9)
        per_phase = np.zeros((20, 4))
        for seed in range(20):
            res = run_preference_loop(cfg, seed=seed)
            assert all(p.decision == "accept" for p in res.phases)
            r = res.ledger.regret_step
            per_phase[seed] = [r[k * 20:(k + 1) * 20].mean() for k in range(4)]
        means = per_phase.mean(axis=0)
        assert means[0] > means[1] > means[2]

    def test_max_phases_cap(self):
        res = run_preference_loop(small_cfg(H=100, max_phases=2), seed=6)
        assert len(res.phases) == 2

    def test_fixed_context_run(self):
        res = run_preference_loop(small_cfg(fixed_context=True), seed=7)
        assert len(res.ledger) == 60
        assert np.all(np.isfinite(res.ledger.regret_cum))

    def test_warm_start_sets_reference_scale(self):
        cfg = small_cfg(mode="fixed-ref", warm_scale=30.0, warm_pairs=1600)
        res = run_preference_loop(cfg, seed=8)
        # fixed-reference runs never promote, so the warm tilt survives intact
        assert abs(float(np.linalg.norm(res.ref_tilt)) - 30.0) < 1e-9

    def test_phase_reports_carry_settings(self):
        cfg = small_cfg(eps_s=0.004, delta_H=0.3)
        res = run_preference_loop(cfg, seed=9)
        for p in res.phases:
            assert p.eps_s == 0.004
            assert p.delta_H == 0.3
            assert p.beta == cfg.beta
            assert p.gate_size == min(cfg.gate_size, cfg.phase_length)
            assert p.n_pairs > 0
