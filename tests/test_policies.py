"""Support floors, Gibbs tilts, and divergence accounting.

The gate's score and KL estimate are read off propose_reference, the one
place that forms them.
"""

import math

import numpy as np
import pytest

from driftpref.errors import ConfigError, ContractError
from driftpref.policies import gibbs, kl, softmax_rows
from driftpref.prefloop import propose_reference
from oracles import kl_row, method_softmax_rows


def random_row(rng, k):
    w = rng.random(k) + 1e-3
    return w / w.sum()


def tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class TestApplyFloor:
    """softmax_rows mixes its rows with the uniform distribution."""

    def test_zero_floor_is_identity(self):
        logits = np.array([math.log(0.9), math.log(0.1), -np.inf])
        out = softmax_rows(logits, 0.0)
        assert out[2] == 0.0
        assert np.array_equal(out, method_softmax_rows(logits, 0.0))

    def test_entries_at_least_floor_and_sum_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = np.log(random_row(rng, 5))
            logits[0] = -np.inf
            out = softmax_rows(logits, 1e-6)
            assert np.all(out >= 1e-6)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_invalid_floor(self):
        with pytest.raises(ConfigError):
            softmax_rows(np.array([0.5, 0.5]), -1e-3)
        with pytest.raises(ConfigError):
            softmax_rows(np.array([0.5, 0.5]), 0.5)


class TestGibbs:
    def test_partition_sum_hand_oracle(self):
        # ref (1/2, 1/2), u = (ln 3, 0), beta = 1: weights (3/2, 1/2) -> (3/4, 1/4)
        out = gibbs(np.array([0.5, 0.5]), np.array([math.log(3.0), 0.0]), 1.0, floor=0.0)
        assert np.allclose(out, np.array([0.75, 0.25]), atol=1e-12)

    def test_constant_utility_returns_reference(self):
        rng = np.random.default_rng(1)
        ref = random_row(rng, 4)
        out = gibbs(ref, np.full(4, 2.5), beta=0.7, floor=0.0)
        assert np.allclose(out, ref, atol=1e-12)

    def test_random_instances_match_direct_partition_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            ref = random_row(rng, k)
            u = rng.normal(size=k)
            beta = float(rng.uniform(0.2, 3.0))
            w = ref * np.exp((u - u.max()) / beta)
            oracle = w / w.sum()
            assert tv(gibbs(ref, u, beta, floor=0.0), oracle) < 1e-12

    def test_huge_beta_returns_reference(self):
        rng = np.random.default_rng(3)
        ref = random_row(rng, 5)
        u = rng.normal(size=5)
        assert tv(gibbs(ref, u, 1e6, floor=0.0), ref) <= 1e-5

    def test_table_input(self):
        rng = np.random.default_rng(4)
        ref = np.stack([random_row(rng, 3) for _ in range(6)])
        u = rng.normal(size=(6, 3))
        out = gibbs(ref, u, 0.5, floor=0.0)
        for i in range(6):
            assert tv(out[i], gibbs(ref[i], u[i], 0.5, floor=0.0)) < 1e-12

    def test_optimizes_regularized_objective(self):
        # J(pi) - beta * KL(pi, ref) is maximized by the tilt (floor = 0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            ref = random_row(rng, k)
            u = rng.normal(size=k)
            beta = float(rng.uniform(0.3, 2.0))
            star = gibbs(ref, u, beta, floor=0.0)
            best = star @ u - beta * kl(star, ref)
            mix = float(rng.uniform(0.05, 0.95))
            other = (1.0 - mix) * star + mix * random_row(rng, k)
            assert other @ u - beta * kl(other, ref) <= best + 1e-10

    def test_bad_beta(self):
        with pytest.raises(ConfigError):
            gibbs(np.array([0.5, 0.5]), np.zeros(2), 0.0)

    def test_per_row_beta_matches_row_calls(self):
        rng = np.random.default_rng(6)
        ref = np.stack([random_row(rng, 4) for _ in range(20)])
        u = rng.normal(size=(20, 4))
        beta = rng.uniform(0.1, 2.0, size=20)
        for floor in (0.0, 1e-9):
            out = gibbs(ref, u, beta[:, None], floor=floor)
            rows = [gibbs(ref[i], u[i], float(beta[i]), floor=floor) for i in range(20)]
            assert out.tobytes() == np.stack(rows).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_per_row_beta_must_be_positive(self, bad):
        beta = np.array([[0.5], [bad], [1.0]])
        with pytest.raises(ConfigError):
            gibbs(np.full((3, 2), 0.5), np.zeros((3, 2)), beta)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            gibbs(np.array([0.5, 0.5]), np.zeros(3), 1.0)

    def test_zero_support_reference_rejected(self):
        with pytest.raises(ContractError):
            gibbs(np.array([1.0, 0.0]), np.zeros(2), 1.0)


class TestSoftmaxRows:
    def test_matches_exp_normalize(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 5))
        out = softmax_rows(logits, floor=0.0)
        for i in range(4):
            w = np.exp(logits[i] - logits[i].max())
            assert tv(out[i], w / w.sum()) < 1e-12

    def test_floor_applied(self):
        out = softmax_rows(np.array([[100.0, 0.0]]), floor=1e-9)
        assert out.min() >= 1e-9


class TestSoftmaxOracle:
    def test_bits_match_the_method_based_softmax(self):
        # softmax_rows reduces through np.maximum.reduce and np.add.reduce and
        # divides in place; the array methods are the reference for its bits
        rng = np.random.default_rng(35)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            shape = [(k,), (int(rng.integers(1, 40)), k), (3, 4, k)][int(rng.integers(3))]
            logits = float(rng.choice([1e-3, 1.0, 30.0, 1000.0])) * rng.standard_normal(shape)
            for floor in (0.0, 1e-9, 0.01):
                out = softmax_rows(logits, floor=floor)
                assert out.tobytes() == method_softmax_rows(logits, floor).tobytes()


class TestKl:
    def test_identical_rows_zero(self):
        rng = np.random.default_rng(7)
        p = random_row(rng, 6)
        assert kl(p, p) == 0.0

    def test_point_mass_against_uniform(self):
        assert abs(kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - math.log(2.0)) < 1e-15

    def test_hand_value(self):
        got = kl(np.array([0.75, 0.25]), np.array([0.5, 0.5]))
        want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert abs(got - want) < 1e-15
        assert abs(got - 0.130812) < 1e-6

    def test_zero_in_q_rejected(self):
        with pytest.raises(ContractError):
            kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            k = int(rng.integers(2, 8))
            assert kl(random_row(rng, k), random_row(rng, k)) >= 0.0

    def test_pinsker_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            p, q = random_row(rng, k), random_row(rng, k)
            assert float(np.abs(p - q).sum()) <= math.sqrt(2.0 * kl(p, q)) + 1e-12

    def test_table_matches_rowwise_kl(self):
        rng = np.random.default_rng(10)
        p = np.stack([random_row(rng, 4) for _ in range(32)])
        p[::3, rng.integers(0, 4)] = 0.0  # 0 * log 0 = 0 in any column
        p /= p.sum(axis=1, keepdims=True)
        q = np.stack([random_row(rng, 4) for _ in range(32)])
        rows = kl(p, q)
        assert rows.shape == (32,)
        assert rows.tobytes() == np.array([kl(p[i], q[i]) for i in range(32)]).tobytes()

    def test_table_support_and_shape_checks(self):
        p = np.full((3, 2), 0.5)
        with pytest.raises(ContractError):
            kl(p, np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ContractError):
            kl(p, np.full(2, 0.5))
        with pytest.raises(ContractError):
            kl(np.full((1, 3, 2), 0.5), np.full((1, 3, 2), 0.5))


class TestKlPerturbationBound:
    def test_tilted_pair_within_quadratic_bound(self):
        # KL between two tilts of one reference is bounded by
        # ||u - u'||_inf-free quadratic: ||theta - theta_hat||^2 / (2 beta^2)
        # for unit features (utility gaps are 1-Lipschitz in theta).
        rng = np.random.default_rng(11)
        violations = 0
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(1, 6))
            feats = rng.standard_normal((k, d))
            feats /= np.linalg.norm(feats, axis=1, keepdims=True)
            ref = random_row(rng, k)
            theta = rng.standard_normal(d)
            theta /= np.linalg.norm(theta)
            theta_hat = theta + rng.normal(scale=0.3, size=d)
            beta = float(rng.uniform(0.3, 2.0))
            p = gibbs(ref, feats @ theta, beta, floor=0.0)
            q = gibbs(ref, feats @ theta_hat, beta, floor=0.0)
            gap = float(np.linalg.norm(theta - theta_hat))
            if kl(p, q) > gap * gap / (2.0 * beta * beta) + 1e-12:
                violations += 1
        assert violations == 0


def chosen_over(rows, ref, gain=1e3):
    """propose_reference on [rows, ref], with utilities that make rows win.

    The utilities 1000 * (rows - ref) give rows a score gain over ref that
    a beta_ref of 1e-12 cannot outweigh, so the verdict reports rows.
    """
    best, delta_s, kl_hat = propose_reference([rows, ref], gain * (rows - ref), 1e-12)
    assert best == 0
    return kl_hat


class TestGateKlEstimate:
    """The KL that propose_reference reports: the mean per-context KL."""

    def test_single_context_equals_kl(self):
        rng = np.random.default_rng(15)
        p = random_row(rng, 4)[None, :]
        q = random_row(rng, 4)[None, :]
        assert abs(chosen_over(p, q) - kl_row(p[0], q[0])) < 1e-15

    def test_matches_mean_of_kl_calls(self):
        rng = np.random.default_rng(16)
        p = np.stack([random_row(rng, 5) for _ in range(32)])
        q = np.stack([random_row(rng, 5) for _ in range(32)])
        oracle = np.mean([kl_row(p[i], q[i]) for i in range(32)])
        assert abs(chosen_over(p, q) - oracle) < 1e-12


class TestInspectorScore:
    """The score that propose_reference compares: the mean expected utility."""

    def test_matches_mean_of_values(self):
        rng = np.random.default_rng(17)
        u = rng.normal(size=(20, 4))
        # a tilt toward higher utility outscores the uniform incumbent
        pi = softmax_rows(5.0 * u, 0.0)
        ref = np.full((20, 4), 0.25)
        oracle = [np.mean([sum(float(rows[i, k]) * float(u[i, k]) for k in range(4))
                           for i in range(20)]) for rows in (pi, ref)]
        best, delta_s, _ = propose_reference([pi, ref], u, beta_ref=1e-12)
        assert best == 0
        assert abs(delta_s - (oracle[0] - oracle[1])) < 1e-12

    def test_point_mass_on_best_arm_attains_max(self):
        u = np.array([[0.1, 0.9, 0.4]])
        pi = np.array([[0.0, 1.0, 0.0]])
        ref = np.full((1, 3), 1.0 / 3.0)
        best, delta_s, _ = propose_reference([pi, ref], u, beta_ref=1e-12)
        assert best == 0
        assert abs(delta_s - (0.9 - np.mean(u))) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            propose_reference([np.array([[0.5, 0.5]])], np.array([[1.0, 2.0, 3.0]]), 1.0)
        with pytest.raises(ContractError):
            propose_reference([np.array([0.5, 0.5])], np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ContractError):
            propose_reference([np.array([[0.5, 0.5]]), np.array([[0.2, 0.3, 0.5]])],
                              np.array([[1.0, 2.0]]), 1.0)
