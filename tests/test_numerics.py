"""Stability contracts for the scalar helpers, and the logistic solver's oracle."""

import math
import warnings

import numpy as np
import pytest

import driftpref.numerics as numerics
from driftpref.cli import phases_csv, steps_csv
from driftpref.config import RunConfig
from driftpref.errors import ConvergenceError
from driftpref.estimator import fit_logistic_window
from driftpref.islands import run_reward_bandit
from driftpref.numerics import newton_logistic, sigmoid
from driftpref.prefloop import run_preference_loop
from oracles import log_sigmoid, softplus


def masked_sigmoid(z):
    """The sigmoid evaluated branch by branch through boolean masks."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_objective(theta, X, p, lam):
    z = X @ theta
    return float(np.sum(softplus(z) - p * z) + 0.5 * lam * theta @ theta)


def reference_newton(X, p, lam, name, theta0=None, max_iter=500,
                     objective=reference_objective, steps=None):
    """The two-pass solver for one problem: the objective and the sigmoid each
    from their own X @ theta, and np.linalg.norm for the gradient norm.

    This is the loop newton_logistic's one-pass stacked evaluation replaced,
    kept as its oracle: the same theta and grad norm, bit for bit, and the
    same ConvergenceError, for every member of a stack. objective stands in
    for the Armijo objective, so a test can force rejections in both solvers
    alike; steps, if given, receives the number of Newton steps taken.
    """
    d = X.shape[1]
    theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    obj = objective(theta, X, p, lam)
    for newton_step in range(max_iter + 1):
        s = masked_sigmoid(X @ theta)
        grad = X.T @ (s - p) + lam * theta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= 1e-8:
            if steps is not None:
                steps.append(newton_step)
            return theta, grad_norm
        if newton_step == max_iter:
            raise ConvergenceError(f"{name} did not converge", theta, grad_norm)
        w = s * (1.0 - s)
        hess = (X * w[:, None]).T @ X + lam * np.eye(d)
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        if grad @ direction >= 0.0:
            direction = -grad
        step = 1.0
        slope = float(grad @ direction)
        slack = 1e-12 * max(1.0, abs(obj))
        for _ in range(60):
            cand = theta + step * direction
            cand_obj = objective(cand, X, p, lam)
            if cand_obj <= obj + 1e-4 * step * slope + slack:
                theta, obj = cand, cand_obj
                break
            step *= 0.5
        else:
            step = 1.0 / (0.25 * float(np.sum(X * X)) + lam)
            theta = theta - step * grad
            obj = objective(theta, X, p, lam)


def random_problem(rng):
    """A logistic problem across the shapes, labels and starts the callers use."""
    d = int(rng.integers(1, 9))
    shape = int(rng.integers(4))
    if shape == 0:
        n = 1
    elif shape == 1 and d > 1:
        n = int(rng.integers(1, d))  # fewer rows than features
    else:
        n = int(rng.integers(d, 240))
    X = rng.standard_normal((n, d)) * float(rng.choice([0.1, 1.0, 4.0, 20.0]))
    labels = int(rng.integers(3))
    if labels == 0:
        p = (rng.random(n) < 0.5).astype(float)
    elif labels == 1:
        p = rng.random(n)
    else:
        p = 1.0  # fit_dpo's scalar label
    lam = float(rng.choice([1e-3, 0.1, 2.0]))
    theta0 = None
    if rng.random() < 0.5:
        theta0 = rng.standard_normal(d) * float(rng.choice([0.5, 5.0, 50.0]))
    return X, p, lam, theta0


def random_stack(rng, members=(1, 9)):
    """A stack of problems sharing n, d, lam and the label kind; each member
    has its own rows, scale and start, so members converge at different steps."""
    d = int(rng.integers(1, 9))
    n = 1 if rng.random() < 0.1 else int(rng.integers(1, 240))
    B = int(rng.integers(*members))
    scales = rng.choice([0.1, 1.0, 4.0, 20.0], size=B)
    X = rng.standard_normal((B, n, d)) * scales[:, None, None]
    labels = int(rng.integers(3))
    if labels == 0:
        p = (rng.random((B, n)) < 0.5).astype(float)
    elif labels == 1:
        p = rng.random((B, n))
    else:
        p = 1.0
    lam = float(rng.choice([1e-3, 0.1, 2.0]))
    theta0 = None
    if rng.random() < 0.5:
        theta0 = rng.standard_normal((B, d)) * rng.choice([0.5, 5.0, 50.0], size=B)[:, None]
    return X, p, lam, theta0


def member_reference(X, p, lam, theta0, i, **kwargs):
    """Member i of a stack, solved on its own by reference_newton."""
    return reference_newton(X[i], p if np.ndim(p) == 0 else p[i], lam, "fit",
                            None if theta0 is None else theta0[i], **kwargs)


def assert_stack_matches(stack_call, member_calls):
    """The stacked solve against each member's own reference solve.

    Without a ConvergenceError, every member's theta and grad norm carry the
    reference's bits. With one, it names the first member whose reference
    raises, and carries that member's iterate and residual. Returns "ok" or
    "error".
    """
    refs = [outcome(call) for call in member_calls]
    failed = [i for i, ref in enumerate(refs) if ref[0] == "error"]
    try:
        thetas, norms = stack_call()
    except ConvergenceError as err:
        assert failed, "the stack raised where no member's reference does"
        first = failed[0]
        assert str(err) == refs[first][1].replace(" did not", f" member {first} did not")
        assert (err.iterate.tobytes(), err.residual) == refs[first][2:]
        return "error"
    assert not failed
    assert thetas.shape == (len(refs), thetas.shape[1]) and norms.shape == (len(refs),)
    for i, ref in enumerate(refs):
        assert ref == ("ok", thetas[i].tobytes(), norms[i])
    return "ok"


def outcome(solve):
    """(theta bytes, grad norm) of a solve, or its ConvergenceError's."""
    try:
        theta, grad_norm = solve()
    except ConvergenceError as err:
        return "error", str(err), err.iterate.tobytes(), err.residual
    return "ok", theta.tobytes(), grad_norm


class TestNewtonMatchesReference:
    def test_random_problems(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            X, p, lam, theta0 = random_problem(rng)
            assert outcome(lambda: newton_logistic(X, p, lam, "fit", theta0)) == \
                outcome(lambda: reference_newton(X, p, lam, "fit", theta0))

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_convergence_error_carries_the_same_iterate(self, monkeypatch, max_iter):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITER", max_iter)
        rng = np.random.default_rng(max_iter)
        errors = 0
        for _ in range(40):
            X, p, lam, theta0 = random_problem(rng)
            got = outcome(lambda: newton_logistic(X, p, lam, "fit", theta0))
            assert got == outcome(
                lambda: reference_newton(X, p, lam, "fit", theta0, max_iter=max_iter))
            errors += got[0] == "error"
        assert errors >= 20

    def test_gradient_step_fallback(self, monkeypatch):
        # reject every Armijo candidate of the first Newton step (evaluations
        # 2-61 in both solvers), so each takes the gradient step
        def rejecting(evaluate, calls):
            def wrapped(*args):
                calls.append(None)
                value = evaluate(*args)
                if 2 <= len(calls) <= 61:
                    return ([np.inf], value[1]) if isinstance(value, tuple) else np.inf
                return value
            return wrapped

        real_eval = numerics._logistic_eval
        rng = np.random.default_rng(7)
        fallbacks = 0
        for _ in range(100):
            X, p, lam, theta0 = random_problem(rng)
            calls_new, calls_ref = [], []
            monkeypatch.setattr(numerics, "_logistic_eval", rejecting(real_eval, calls_new))
            got = outcome(lambda: newton_logistic(X, p, lam, "fit", theta0))
            assert got == outcome(lambda: reference_newton(
                X, p, lam, "fit", theta0,
                objective=rejecting(reference_objective, calls_ref)))
            assert len(calls_new) == len(calls_ref)
            fallbacks += len(calls_new) > 61
        assert fallbacks >= 90


class TestStackedNewtonMatchesReference:
    """Every member of a stacked solve equals its own reference solve, bit for bit."""

    def test_random_stacks(self):
        rng = np.random.default_rng(2025)
        mixed = 0
        for _ in range(300):
            X, p, lam, theta0 = random_stack(rng)
            steps = []
            assert assert_stack_matches(
                lambda: newton_logistic(X, p, lam, "fit", theta0),
                [lambda i=i: member_reference(X, p, lam, theta0, i, steps=steps)
                 for i in range(len(X))]) == "ok"
            mixed += len(set(steps)) > 1
        assert mixed >= 100  # members leave the stack at different Newton steps

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_convergence_error_names_the_first_unconverged_member(self, monkeypatch,
                                                                  max_iter):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITER", max_iter)
        rng = np.random.default_rng(100 + max_iter)
        results = []
        for _ in range(40):
            X, p, lam, theta0 = random_stack(rng, members=(2, 9))
            results.append(assert_stack_matches(
                lambda: newton_logistic(X, p, lam, "fit", theta0),
                [lambda i=i: member_reference(X, p, lam, theta0, i, max_iter=max_iter)
                 for i in range(len(X))]))
        assert results.count("error") >= 10

    def test_gradient_step_fallback_for_one_member(self, monkeypatch):
        # reject every Armijo candidate of one member's first Newton step
        # (its evaluations 2-61 in both solvers); the other members go on
        real_eval = numerics._logistic_eval
        rng = np.random.default_rng(8)
        fallbacks = 0
        for _ in range(40):
            X, p, lam, theta0 = random_stack(rng, members=(2, 9))
            target = int(rng.integers(len(X)))
            calls_new, calls_ref = [], []

            def rejecting_eval(theta, Xs, ps, lam_):
                obj, s = real_eval(theta, Xs, ps, lam_)
                for j in range(len(Xs)):
                    if np.array_equal(Xs[j], X[target]):
                        calls_new.append(None)
                        if 2 <= len(calls_new) <= 61:
                            obj[j] = np.inf
                return obj, s

            def rejecting_objective(*args):
                calls_ref.append(None)
                return np.inf if 2 <= len(calls_ref) <= 61 else reference_objective(*args)

            monkeypatch.setattr(numerics, "_logistic_eval", rejecting_eval)
            assert_stack_matches(
                lambda: newton_logistic(X, p, lam, "fit", theta0),
                [lambda i=i: member_reference(
                    X, p, lam, theta0, i,
                    objective=rejecting_objective if i == target else reference_objective)
                 for i in range(len(X))])
            assert len(calls_new) == len(calls_ref)
            fallbacks += len(calls_new) > 61
        assert fallbacks >= 35

    def test_singular_solve_falls_back_member_by_member(self, monkeypatch):
        # A stacked solve fails as a whole; so does any solve whose matrix
        # has H[0, 0] == lam, which holds for a member whose first feature
        # column is zero. That member steps along -grad, as the reference
        # does; its small rows and lam = 1 let unit gradient steps converge.
        # The rule patches both bindings: numerics.solve, which the solver
        # calls, and np.linalg.solve, which the reference calls.
        real_np, real_numerics = np.linalg.solve, numerics.solve
        rng = np.random.default_rng(9)
        results = []
        for _ in range(15):
            X, p, _, theta0 = random_stack(rng, members=(2, 9))
            lam, target = 1.0, int(rng.integers(len(X)))
            X[target] *= 0.1 / np.abs(X[target]).max()
            X[target, :, 0] = 0.0

            def failing(real, lam=lam):
                def solve(a, b):
                    if (a.ndim == 3 and len(a) > 1) or np.any(a[..., 0, 0] == lam):
                        raise np.linalg.LinAlgError("singular matrix")
                    return real(a, b)
                return solve

            monkeypatch.setattr(np.linalg, "solve", failing(real_np))
            monkeypatch.setattr(numerics, "solve", failing(real_numerics))
            results.append(assert_stack_matches(
                lambda: newton_logistic(X, p, lam, "fit", theta0),
                [lambda i=i: member_reference(X, p, lam, theta0, i)
                 for i in range(len(X))]))
        assert results.count("ok") >= 12


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSolve:
    """numerics.solve skips np.linalg.solve's argument handling, not its bits."""

    @staticmethod
    def systems(rng, lead, k):
        # Newton Hessians (Gram matrix plus a ridge) and general square matrices
        rows = rng.standard_normal(lead + (7, 5))
        a = np.where(rng.random(lead + (1, 1)) < 0.5, rows.mT @ rows + 0.1 * np.eye(5),
                     rng.standard_normal(lead + (5, 5)))
        return a, rng.standard_normal(lead + (5, k))

    def test_newton_stacks_match_numpy_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for B in range(1, 41):
            a, b = self.systems(rng, (B,), 1)
            assert same_bits(numerics.solve(a, b), np.linalg.solve(a, b))

    def test_kernel_stacks_match_numpy_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for E, C, K in [(1, 1, 5), (3, 1, 5), (2, 6, 5), (4, 3, 2), (1, 12, 9)]:
            a, b = self.systems(rng, (E, C), K + 1)
            assert same_bits(numerics.solve(a, b), np.linalg.solve(a, b))

    def test_single_system_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            a, b = self.systems(rng, (), 1)
            assert same_bits(numerics.solve(a, b), np.linalg.solve(a, b))
            # the Newton step's per-member fallback against the 1-D solve
            assert same_bits(numerics.solve(a, b)[:, 0], np.linalg.solve(a, b[:, 0]))

    def test_one_singular_member_raises_without_warning(self):
        a, b = self.systems(np.random.default_rng(34), (6,), 1)
        a[3, 2] = 0.0  # a zero row: LU meets an exact zero pivot
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                numerics.solve(a, b)
        assert np.geterr() == before
        numerics.solve(a[:3], b[:3])
        assert np.geterr() == before

    def test_runs_never_call_numpys_solve(self, monkeypatch):
        # a preference run, a stacked window fit and a reward-bandit run keep
        # their bytes with np.linalg.solve unusable
        def outputs():
            rec = run_preference_loop(RunConfig(mode="evodpo", K=3, d=3, H=60), seed=0)
            rng = np.random.default_rng(35)
            X = rng.standard_normal((8, 40, 5))
            fit = fit_logistic_window(X, (rng.random((8, 40)) < 0.5) * 1.0, 0.1)
            bandit = run_reward_bandit(RunConfig(mode="reward-bandit", H=300), (0, 1))
            return (steps_csv(rec.ledger), phases_csv(rec.phases),
                    fit[0].tobytes(), fit[1].tobytes(),
                    [steps_csv(r.ledger) for r in bandit])

        want = outputs()

        def unusable(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", unusable)
        assert outputs() == want


class TestSigmoid:
    def test_reference_values(self):
        assert sigmoid(0.0) == 0.5
        assert abs(sigmoid(1.0) - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15

    def test_symmetry(self):
        for z in (-3.7, -0.2, 0.9, 12.0):
            assert abs(sigmoid(z) + sigmoid(-z) - 1.0) < 1e-15

    def test_extremes_do_not_overflow(self):
        with np.errstate(over="raise"):
            assert sigmoid(800.0) == 1.0
            assert sigmoid(-800.0) == 0.0

    def test_scalar_in_scalar_out(self):
        assert isinstance(sigmoid(0.3), float)

    def test_vectorized(self):
        z = np.array([-2.0, 0.0, 2.0])
        out = sigmoid(z)
        assert out.shape == (3,)
        assert abs(out[1] - 0.5) < 1e-15

    def test_bit_equal_to_masked_form(self):
        edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf])
        rng = np.random.default_rng(11)
        arrays = [edges] + [rng.standard_normal(int(rng.integers(1, 300))) * scale
                            for scale in (1e-3, 1.0, 30.0, 700.0) for _ in range(25)]
        for z in arrays:
            assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        for z in edges:
            assert np.float64(sigmoid(z)).tobytes() == masked_sigmoid(z).tobytes()

    def test_nan_maps_to_nan(self):
        assert math.isnan(sigmoid(math.nan))
        out = sigmoid(np.array([math.nan, 0.0]))
        assert math.isnan(out[0]) and out[1] == 0.5


class TestSoftplus:
    def test_matches_naive_in_safe_range(self):
        for z in (-5.0, -0.5, 0.0, 0.5, 5.0):
            assert abs(softplus(z) - math.log1p(math.exp(z))) < 1e-12

    def test_large_positive_is_linear(self):
        assert abs(softplus(800.0) - 800.0) < 1e-12

    def test_large_negative_underflows_to_zero(self):
        with np.errstate(over="raise"):
            assert softplus(-800.0) == 0.0

    def test_nonnegative(self):
        z = np.linspace(-40, 40, 401)
        assert np.all(softplus(z) >= 0.0)


class TestLogSigmoid:
    def test_identity_with_softplus(self):
        z = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        assert np.allclose(log_sigmoid(z), -softplus(-z), atol=0.0)

    def test_matches_log_of_sigmoid_in_safe_range(self):
        for z in (-5.0, 0.0, 5.0):
            assert abs(log_sigmoid(z) - math.log(sigmoid(z))) < 1e-12

    def test_deep_negative_tail_is_linear(self):
        # log(sigmoid(z)) ~ z as z -> -inf; the naive form would return -inf
        assert abs(log_sigmoid(-700.0) - (-700.0)) < 1e-12
