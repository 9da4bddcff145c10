"""Preference-pair fitting, the promotion gate, and the full phase loop."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from driftpref import env, prefloop
from driftpref.config import RunConfig
from driftpref.env import generate_path, make_drift
from driftpref.errors import ConfigError, ContractError, ConvergenceError
from driftpref.estimator import fit_logistic_window, window_size
from driftpref.numerics import sigmoid
from driftpref.policies import gate_kl_estimate, inspector_score, softmax_rows
from driftpref.prefloop import (
    PhaseReport,
    fit_dpo,
    gate,
    phase_ends,
    promote,
    propose_reference,
    run_preference_loop,
    sample_categorical,
)
from driftpref.verify import scaling_base_config
from oracles import (
    cumsum_draw,
    dpo_loss,
    gathered_pair_rows,
    materialised_warm_start,
    preference_ledger,
    softplus,
    step_label,
)


def random_row(rng, k):
    w = rng.random(k) + 1e-3
    return w / w.sum()


def tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class FixedUniform:
    """A stand-in generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u

    def random(self):
        return self.u


class ZeroingGenerator:
    """A generator whose normal draws come out zero at the given row positions of its stream."""

    def __init__(self, seed, dim, zero_rows):
        self.rng, self.dim = np.random.default_rng(seed), dim
        self.zero_rows, self.drawn = zero_rows, 0

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        flat = out.reshape(-1, self.dim)
        for i in self.zero_rows:
            if self.drawn <= i < self.drawn + len(flat):
                flat[i - self.drawn] = 0.0
        self.drawn += len(flat)
        return out

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)


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
    """The incumbent is the last candidate; the gain and KL are the chosen one's."""

    def test_reference_alone_scores_unpenalized(self):
        rng = np.random.default_rng(6)
        ref = np.stack([random_row(rng, 3) for _ in range(5)])
        u = rng.normal(size=(5, 3))
        assert propose_reference([ref], u, beta_ref=0.5) == (0, 0.0, 0.0)

    def test_equal_kl_candidates_ranked_by_score(self):
        ref = np.array([[0.5, 0.5]])
        a = np.array([[0.7, 0.3]])
        b = np.array([[0.3, 0.7]])  # same KL to uniform by symmetry
        u = np.array([[1.0, 0.0]])
        best, delta_s, kl_hat = propose_reference([b, a, ref], u, beta_ref=0.1)
        assert best == 1
        assert abs(delta_s - 0.2) < 1e-15
        assert kl_hat == gate_kl_estimate(a, ref)

    def test_penalty_overturns_raw_score(self):
        ref = np.array([[0.5, 0.5]])
        sharp = np.array([[0.999, 0.001]])
        u = np.array([[1.0, 0.9]])  # sharp gains little score but much KL
        assert propose_reference([sharp, ref], u, beta_ref=5.0) == (1, 0.0, 0.0)

    def test_matches_brute_force_objective(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, k = 4, 3
            cands = [
                np.stack([random_row(rng, k) for _ in range(n)]) for _ in range(4)
            ]
            ref = cands[-1]
            u = rng.normal(size=(n, k))
            beta_ref = float(rng.uniform(0.01, 1.0))
            best, delta_s, kl_hat = propose_reference(cands, u, beta_ref)
            oracle = [
                inspector_score(c, u) - beta_ref * gate_kl_estimate(c, ref)
                for c in cands
            ]
            want = 0
            for i in range(1, 4):
                if oracle[i] > oracle[want]:
                    want = i
            assert best == want
            assert delta_s == inspector_score(cands[want], u) - inspector_score(ref, u)
            assert kl_hat == gate_kl_estimate(cands[want], ref)

    def test_ties_resolve_to_earliest(self):
        ref = np.array([[0.5, 0.5]])
        u = np.array([[0.2, 0.8]])
        best, _, _ = propose_reference([ref.copy(), ref.copy(), ref], u, beta_ref=1.0)
        assert best == 0

    def test_validation(self):
        ref = np.array([[0.5, 0.5]])
        with pytest.raises(ConfigError):
            propose_reference([ref], np.zeros((1, 2)), beta_ref=0.0)
        with pytest.raises(ContractError):
            propose_reference([], np.zeros((1, 2)), beta_ref=1.0)


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

    @pytest.mark.parametrize("weights", [
        [0.0, 0.0, 0.0, 0.0],  # no mass
        [0.2, math.nan, 0.3],
        [0.5, -0.9, 0.1],  # positive total, one negative weight
        [math.inf, 1.0],
        [1e308, 1e308],  # each finite, the total not
        [],
    ])
    def test_invalid_weights_rejected_before_the_draw(self, weights):
        for given in (weights, np.array(weights)):
            rng = np.random.default_rng(13)
            state = rng.bit_generator.state
            with pytest.raises(ContractError, match="weights"):
                sample_categorical(rng, given)
            assert rng.bit_generator.state == state  # no uniform consumed


class TestDrawOracle:
    """The draw on Python floats against the np.cumsum / np.searchsorted draw."""

    ENDS = (0.0, float(np.nextafter(1.0, 0.0)))

    def assert_same_draws(self, weights, seeds):
        as_array = np.array(weights)
        sources = [(FixedUniform(u), FixedUniform(u)) for u in self.ENDS]
        sources += [(np.random.default_rng(s), np.random.default_rng(s)) for s in seeds]
        for source, twin in sources:
            assert sample_categorical(source, weights) == cumsum_draw(twin, as_array)
            assert sample_categorical(source, as_array) == cumsum_draw(twin, as_array)
            assert source.uniform() == twin.uniform()  # one uniform per draw

    def test_floored_rows_with_one_entry_zeroed(self):
        rng = np.random.default_rng(31)
        for case in range(300):
            k = int(rng.integers(2, 9))
            scale = float(rng.choice([1.0, 30.0, 1000.0]))  # large: entries at the floor
            weights = softmax_rows(scale * rng.standard_normal(k), floor=1e-9).tolist()
            weights[int(rng.integers(k))] = 0.0
            self.assert_same_draws(weights, seeds=range(10 * case, 10 * case + 10))

    def test_unnormalized_weights(self):
        rng = np.random.default_rng(32)
        for case in range(200):
            k = int(rng.integers(2, 9))
            scale = float(rng.choice([1e-300, 1e-3, 1.0, 7.0, 1e300]))
            self.assert_same_draws((scale * rng.random(k)).tolist(),
                                   seeds=range(10 * case, 10 * case + 10))

    def test_a_uniform_on_a_cdf_value_takes_the_next_index(self):
        # u * total == cdf[0] exactly: the draw is the first index whose cdf exceeds it
        weights = [0.25, 0.25, 0.5]
        assert sample_categorical(FixedUniform(0.25), weights) == 1
        assert cumsum_draw(FixedUniform(0.25), np.array(weights)) == 1
        self.assert_same_draws(weights, seeds=range(50))

    def test_a_subnormal_total_stays_in_range(self):
        # at a subnormal total, the top uniform times the total rounds up to
        # the total itself, so only the clamp keeps the index below K
        tiny = 5e-324
        for weights in ([tiny, tiny], [tiny, 2 * tiny, tiny]):
            top = FixedUniform(self.ENDS[1])
            assert sample_categorical(top, weights) == len(weights) - 1
            self.assert_same_draws(weights, seeds=range(20))

    @pytest.mark.parametrize("weights", [[5e-324, 0.0], [1e-310, 0.0]])
    def test_a_subnormal_total_never_draws_a_zero_weight(self, weights):
        # the top uniform times the total rounds up to the total, past every
        # cdf value; the draw falls back to the last positive weight
        for u in self.ENDS:
            assert sample_categorical(FixedUniform(u), weights) == 0
            assert sample_categorical(FixedUniform(u), np.array(weights)) == 0


class TestLabelOracle:
    """The loop's label table against the per-step scalar label."""

    def test_table_entries_carry_the_scalar_sigmoid_bits(self):
        rng = np.random.default_rng(33)
        for scale in (1e-3, 1.0, 40.0, 800.0):  # 800: exp(-|gap|) underflows
            utils = scale * rng.standard_normal((40, 6))
            table = sigmoid(utils[:, :, None] - utils[:, None, :])  # as the loop builds it
            for t, a, b in np.ndindex(table.shape):
                p = table[t, a, b]
                assert p.tobytes() == np.float64(sigmoid(utils[t, a] - utils[t, b])).tobytes()
                for u in (0.0, float(p), float(np.nextafter(p, 0.0)), rng.uniform()):
                    assert (u < p) == step_label(u, utils[t], a, b)

    def test_the_loop_builds_one_table(self, monkeypatch):
        # one sigmoid call of shape (H, K, K) replaces the H scalar calls
        calls = []

        def recording_sigmoid(z):
            calls.append(np.shape(z))
            return sigmoid(z)

        monkeypatch.setattr(prefloop, "sigmoid", recording_sigmoid)
        cfg = small_cfg(warm_scale=0.0)
        run_preference_loop(cfg, 3)
        assert calls == [(cfg.H, cfg.K, cfg.K)]


class TestPromote:
    """The verdict both phase loops share, over evolving x passes x best."""

    TILTS = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, -1.0])]

    @pytest.mark.parametrize("best", [0, 1, 2])
    @pytest.mark.parametrize("passes", [True, False])
    @pytest.mark.parametrize("evolving", [True, False])
    def test_truth_table(self, evolving, passes, best):
        cfg = RunConfig(beta=0.7, eps_s=0.003, delta_H=0.2)
        earlier = PhaseReport(
            phase_index=1, n_pairs=5, delta_s=0.0, kl_hat=0.0, decision="accept",
            accepted=True, chosen="full", ref_version_before=3, ref_version_after=4,
            beta=0.6, eps_s=0.0, delta_H=0.0, gate_size=5)
        phases = [earlier]
        out = promote(phases, 40, 16, self.TILTS, (best, 0.01, 0.02), passes, evolving, cfg)
        promoted = evolving and passes and best != 2
        assert phases[0] is earlier and len(phases) == 2
        assert phases[1] == PhaseReport(
            phase_index=2, n_pairs=40, delta_s=0.01, kl_hat=0.02,
            decision=("accept" if passes else "reject") if evolving else "inert",
            accepted=evolving and passes, chosen=("full", "half", "reference")[best],
            ref_version_before=4, ref_version_after=5 if promoted else 4,
            beta=0.7, eps_s=0.003, delta_H=0.2, gate_size=16)
        assert out is (self.TILTS[best] if promoted else self.TILTS[2])

    def test_the_first_phase_starts_at_version_zero(self):
        phases = []
        out = promote(phases, 3, 2, self.TILTS, (1, 0.0, 0.0), True, True, RunConfig())
        [report] = phases
        assert (report.phase_index, report.ref_version_before,
                report.ref_version_after) == (1, 0, 1)
        assert out is self.TILTS[1]


class TestPhaseEnds:
    def test_every_boundary_by_default(self):
        assert list(phase_ends(RunConfig(phase_length=20), 60)) == [19, 39, 59]
        assert list(phase_ends(RunConfig(phase_length=20), 79)) == [19, 39, 59]

    def test_max_phases_caps_the_boundaries(self):
        assert list(phase_ends(RunConfig(phase_length=20, max_phases=2), 100)) == [19, 39]

    def test_a_horizon_shorter_than_a_phase_has_none(self):
        assert not phase_ends(RunConfig(phase_length=20), 19)
        res = run_preference_loop(small_cfg(H=19), seed=0)
        assert res.phases == [] and np.array_equal(res.ledger.phase, np.ones(19))

    def test_max_phases_past_the_horizon_changes_nothing(self):
        cfg = RunConfig(phase_length=20)
        ends = phase_ends(replace(cfg, max_phases=10), 55)
        assert [t for t in ends if t < 55] == list(phase_ends(cfg, 55)) == [19, 39]


def run_with_tilt(monkeypatch, cfg, seed):
    """A run and its final reference tilt, the last one prefloop.promote returned."""
    returned = []
    real = prefloop.promote

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]
    monkeypatch.setattr(prefloop, "promote", spy)
    res = run_preference_loop(cfg, seed)
    monkeypatch.setattr(prefloop, "promote", real)
    assert len(returned) == len(res.phases) > 0
    return res, returned[-1]


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

    def test_deterministic_reruns(self, monkeypatch):
        cfg = small_cfg()
        a, a_tilt = run_with_tilt(monkeypatch, cfg, seed=3)
        b, b_tilt = run_with_tilt(monkeypatch, cfg, seed=3)
        for col in ("bias", "error", "regret_step", "regret_cum", "oracle_arm",
                    "switch", "phase"):
            assert np.array_equal(getattr(a.ledger, col), getattr(b.ledger, col))
        assert np.array_equal(a_tilt, b_tilt)
        assert [p.decision for p in a.phases] == [p.decision for p in b.phases]
        assert [p.delta_s for p in a.phases] == [p.delta_s for p in b.phases]

    def test_comparator_is_the_per_step_softmax(self, monkeypatch):
        # one accepted phase, then the cap: the comparator rows are one
        # batched softmax with the bits of the per-step one
        cfg = small_cfg(max_phases=1, eps_s=0.0, delta_H=1e9)
        res, ref_tilt = run_with_tilt(monkeypatch, cfg, seed=5)
        assert res.ref_version == 1
        path = generate_path(cfg.H, cfg.d, make_drift(cfg, cfg.H),
                             np.random.default_rng([5, 0]))
        feats = np.random.default_rng([5, 1]).standard_normal((cfg.H, cfg.K, cfg.d))
        feats /= np.linalg.norm(feats, axis=2, keepdims=True)
        for t in range(cfg.H):
            g_ref = ref_tilt if t >= cfg.phase_length else np.zeros(cfg.d)
            u = np.matmul(feats[t:t + 1], path.thetas[t:t + 1, :, None])[0, :, 0]
            comparator = softmax_rows(feats[t] @ (g_ref + path.thetas[t] / cfg.beta_ref),
                                      floor=cfg.pi_min)
            assert res.ledger.bias[t] == float(u[np.argmax(u)]) - float(comparator @ u)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("overrides", [
        dict(eps_s=0.0, delta_H=1e9),
        dict(mode="fixed-ref"),
        dict(H=55, eps_s=0.0, delta_H=1e9),  # two boundaries and a partial third phase
        dict(max_phases=1, eps_s=0.0, delta_H=1e9),
        dict(fixed_context=True, eps_s=0.0, delta_H=1e9),
        dict(warm_scale=30.0, warm_pairs=400, eps_s=0.0, delta_H=1e9),
    ], ids=["evolving", "fixed-ref", "partial-phase", "one-phase", "fixed-context",
            "warm-start"])
    def test_ledger_matches_the_per_step_loop(self, monkeypatch, seed, overrides):
        # the learner rows, the path and contexts, and each phase's tilt, as
        # the run hands them on; the ledger's columns must have the bits of
        # the per-step loop over them
        cfg = small_cfg(**overrides)
        seen = {}

        def spy(name):
            real = getattr(prefloop, name)

            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.setdefault(name, []).append((args, out))
                return out
            monkeypatch.setattr(prefloop, name, wrapper)

        for name in ("regret_decompose", "switch_flags", "promote"):
            spy(name)
        res = run_preference_loop(cfg, seed)
        [((utils, learners, _), _)] = seen["regret_decompose"]
        [((thetas, feats), _)] = seen["switch_flags"]
        phase_calls = seen["promote"]
        # promote's fourth argument is the candidate tilts, the incumbent last
        tilts = [phase_calls[0][0][3][-1]] + [g_new for _, g_new in phase_calls]
        assert res.ref_version >= (cfg.mode == "evodpo")
        want = preference_ledger(utils, learners, feats, thetas, tilts, cfg)
        for col, values in want.items():
            assert getattr(res.ledger, col).tobytes() == values.tobytes(), col

    def test_phase_cap_past_the_horizon_changes_nothing(self):
        # H = 55 holds two phase boundaries and a partial third phase
        cfg = small_cfg(H=55, eps_s=0.0, delta_H=1e9)
        a = run_preference_loop(cfg, seed=5)
        b = run_preference_loop(replace(cfg, max_phases=10), seed=5)
        assert len(a.phases) == 2 and a.ref_version >= 1
        for col in ("bias", "error", "regret_cum", "phase"):
            assert np.array_equal(getattr(a.ledger, col), getattr(b.ledger, col))

    def test_fixed_reference_mode_is_inert(self, monkeypatch):
        res, ref_tilt = run_with_tilt(monkeypatch, small_cfg(mode="fixed-ref"), seed=1)
        assert not res.evolving
        assert all(p.decision == "inert" for p in res.phases)
        assert res.ref_version == 0
        assert res.accept_rate() is None
        assert np.array_equal(ref_tilt, np.zeros(5))

    def test_force_reject_reproduces_fixed_reference_exactly(self, monkeypatch):
        # no phase can clear eps_s = 1e9, so every evolving decision rejects
        forced, forced_tilt = run_with_tilt(monkeypatch, small_cfg(eps_s=1e9), seed=2)
        fixed, fixed_tilt = run_with_tilt(monkeypatch, small_cfg(mode="fixed-ref"), seed=2)
        for col in ("bias", "error", "regret_step", "regret_cum", "oracle_arm",
                    "switch"):
            assert np.array_equal(
                getattr(forced.ledger, col), getattr(fixed.ledger, col)
            )
        assert forced.ref_version == 0
        assert np.array_equal(forced_tilt, fixed_tilt)
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

    def test_warm_start_sets_reference_scale(self, monkeypatch):
        cfg = small_cfg(mode="fixed-ref", warm_scale=30.0, warm_pairs=1600)
        _, ref_tilt = run_with_tilt(monkeypatch, cfg, seed=8)
        # fixed-reference runs never promote, so the warm tilt survives intact
        assert abs(float(np.linalg.norm(ref_tilt)) - 30.0) < 1e-9

    def test_phase_reports_carry_settings(self):
        cfg = small_cfg(eps_s=0.004, delta_H=0.3)
        res = run_preference_loop(cfg, seed=9)
        for p in res.phases:
            assert p.eps_s == 0.004
            assert p.delta_H == 0.3
            assert p.beta == cfg.beta
            assert p.gate_size == min(cfg.gate_size, cfg.phase_length)
            assert p.n_pairs > 0


class TestWarmStartOracle:
    """The streamed warm start against the one that holds every context."""

    def assert_same_start(self, cfg, make_rng, theta0):
        rng, twin = make_rng(), make_rng()
        rows = env.pair_rows(cfg.K, cfg.d, cfg.warm_pairs, rng)
        assert rows.tobytes() == gathered_pair_rows(cfg.K, cfg.d, cfg.warm_pairs, twin).tobytes()
        assert rng.random() == twin.random()  # both leave the generator at the same state
        rng, twin = make_rng(), make_rng()
        start = prefloop._warm_start(cfg, rng, theta0)
        oracle = materialised_warm_start(cfg, twin, theta0)
        assert [a.tobytes() for a in start] == [a.tobytes() for a in oracle]
        assert rng.random() == twin.random()

    # one pair, a block short by one, one block, one past it, three blocks and a remainder
    @pytest.mark.parametrize("n_actions", [2, 3, 5])
    @pytest.mark.parametrize("dim", [1, 3, 5])
    @pytest.mark.parametrize("size", ["one", "block-1", "block", "block+1", "3-blocks+7"])
    def test_matches_the_materialised_start(self, n_actions, dim, size):
        per = env._NORM_BLOCK // n_actions  # contexts per block
        n = {"one": 1, "block-1": per - 1, "block": per, "block+1": per + 1,
             "3-blocks+7": 3 * per + 7}[size]
        cfg = replace(RunConfig(), K=n_actions, d=dim, warm_pairs=n, warm_scale=60.0)
        for seed in range(3):
            theta0 = np.random.default_rng([seed, 99]).standard_normal(dim)
            theta0 /= np.linalg.norm(theta0)
            self.assert_same_start(
                cfg, lambda: np.random.default_rng([seed, prefloop._S_WARM]), theta0)

    def test_zero_rows_are_redrawn_as_the_materialised_start_redraws_them(self):
        # two zero rows in the first block and one in the third; the first
        # redrawn row comes out zero too, so it is redrawn a second time
        K, d = 5, 3
        per = env._NORM_BLOCK // K
        cfg = replace(RunConfig(), K=K, d=d, warm_pairs=3 * per + 7, warm_scale=60.0)
        zero_rows = (0, 7, 2 * per * K + 3, cfg.warm_pairs * K)
        theta0 = np.full(d, 1.0 / math.sqrt(d))
        self.assert_same_start(cfg, lambda: ZeroingGenerator(4, d, zero_rows), theta0)
        rows = env.pair_rows(K, d, cfg.warm_pairs, ZeroingGenerator(4, d, zero_rows))
        assert np.all(np.isfinite(rows))


class TestWarmStartMemory:
    def test_traced_peak_at_the_bench_size(self):
        # At pref-drift's 25,600 warm pairs the contexts are never held: the
        # peak is the Newton fit on the 1.0 MB difference rows, near 2.8e6
        # bytes; one more row-sized array held through the fit would pass
        # 3.5e6. Holding the (25600, 5, 5) context batch (5.1 MB) and
        # gathering from it peaked near 7.8e6; one np.linalg.norm call over
        # the batch, kept through the fit, near 12.3e6. A small call first
        # loads what a cold first call would count.
        cfg = replace(RunConfig(), warm_scale=60.0, warm_pairs=25600)
        theta0 = np.full(cfg.d, 1.0 / math.sqrt(cfg.d))
        prefloop._warm_start(replace(cfg, warm_pairs=10), np.random.default_rng(0), theta0)
        rng = np.random.default_rng([0, prefloop._S_WARM])
        tracemalloc.start()
        try:
            prefloop._warm_start(cfg, rng, theta0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6


class TestRunMemory:
    def test_traced_peak_of_one_arm_at_the_bench_config(self):
        # One evolving arm at pref-drift's config (H = 2000, 25,600 warm
        # pairs) peaks near 3.58e6 bytes: the warm start's Newton fit on its
        # 1.0 MB of difference rows, over the run's (H, K, d) contexts and
        # per-step arrays. Holding the warm batch's (25600, 5, 5) contexts
        # (5.1 MB) would pass the bound. A short run first loads what a cold
        # first call would count.
        cfg = scaling_base_config()
        run_preference_loop(replace(cfg, H=40, warm_pairs=10), 0)
        tracemalloc.start()
        try:
            run_preference_loop(cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6
