"""Relations between runs that the simulator must satisfy.

The golden digests pin what the code did; these metamorphic relations say
something about whether it was right. Each compares two runs that must
agree bit for bit over a stretch, and then, where the relation says so,
differ after it; or two computations that must agree to rounding, or to
the bit, whatever else they are batched with.
"""

from dataclasses import replace

import numpy as np
import pytest

from driftpref import prefloop
from driftpref.config import RunConfig
from driftpref.env import ThetaPath
from driftpref.islands import StrategyCandidate, make_episode_scorer, run_reward_bandit
from driftpref.prefloop import run_preference_loop
from driftpref.regret import RegretLedger
from driftpref.verify import scaling_base_config


def assert_ledger_prefix(short: RegretLedger, long: RegretLedger, n: int):
    for name in RegretLedger.COLUMNS:
        a, b = getattr(short, name)[:n], getattr(long, name)[:n]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def phase_stats(phases, *names):
    return [tuple(getattr(p, name) for name in names) for p in phases]


class TestArmFork:
    """The fixed and evolving arms share every draw and every fit, so they are
    bit-identical until the evolving arm's first promotion and differ after it."""

    @pytest.mark.parametrize("cfg", [
        RunConfig(mode="evodpo", H=600, delta_H=0.1),
        replace(scaling_base_config(), H=600, warm_pairs=400),
    ], ids=["delta_H-0.1", "scaling-base"])
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_until_first_promotion(self, cfg, seed):
        evolving = run_preference_loop(replace(cfg, mode="evodpo"), seed)
        fixed = run_preference_loop(replace(cfg, mode="fixed-ref"), seed)
        first = next(k for k, p in enumerate(evolving.phases)
                     if p.ref_version_after > p.ref_version_before)
        # steps up to the one that closes the promoting phase
        n = (first + 1) * cfg.phase_length
        assert_ledger_prefix(evolving.ledger, fixed.ledger, n)
        stats = ("delta_s", "kl_hat", "chosen")
        assert (phase_stats(evolving.phases[:first + 1], *stats)
                == phase_stats(fixed.phases[:first + 1], *stats))
        assert not np.array_equal(evolving.ledger.regret_step[n:],
                                  fixed.ledger.regret_step[n:])


class TestCausality:
    """With the window and the drift limits independent of the horizon, a run
    of horizon H is a prefix of a longer run: no step reads a later step's
    row, draw or parameter."""

    @pytest.mark.parametrize("overrides", [
        {}, {"warm_scale": 30.0, "warm_pairs": 400}, {"fixed_context": True},
    ], ids=["plain", "warm", "fixed-context"])
    def test_preference_run_is_a_prefix(self, monkeypatch, overrides):
        monkeypatch.setattr(prefloop, "window_size", lambda H, kappa: 40)
        cfg = RunConfig(mode="evodpo", drift_spread=False, **overrides)
        for seed in (0, 1):
            short = run_preference_loop(replace(cfg, H=200), seed)
            long = run_preference_loop(replace(cfg, H=400), seed)
            assert_ledger_prefix(short.ledger, long.ledger, 200)
            stats = ("delta_s", "kl_hat", "decision")
            assert len(short.phases) == 10
            assert (phase_stats(short.phases, *stats)
                    == phase_stats(long.phases[:10], *stats))

    @pytest.mark.parametrize("seeds", [[0], [1, 2]])
    def test_reward_bandit_is_a_prefix(self, seeds):
        cfg = RunConfig(mode="reward-bandit", drift_spread=False)
        shorts = run_reward_bandit(replace(cfg, H=700), seeds)
        longs = run_reward_bandit(replace(cfg, H=1300), seeds)
        for short, long in zip(shorts, longs, strict=True):
            assert_ledger_prefix(short.ledger, long.ledger, 700)


class TestRotation:
    """Rotating every feature row and every parameter by one orthogonal Q
    leaves every utility unchanged in exact arithmetic, so a preference run
    keeps its regret to rounding and its gate decisions and oracle arms
    exactly. A coordinate-dependent slip, such as a wrong norm axis, breaks it."""

    @pytest.mark.parametrize("overrides", [{}, {"warm_scale": 30.0, "warm_pairs": 400}],
                             ids=["plain", "warm"])
    @pytest.mark.parametrize("seed", range(3))
    def test_preference_run_is_rotation_invariant(self, monkeypatch, overrides, seed):
        cfg = RunConfig(mode="evodpo", H=400, **overrides)
        plain = run_preference_loop(cfg, seed)
        q, _ = np.linalg.qr(np.random.default_rng([seed, 10]).standard_normal((cfg.d, cfg.d)))
        features, generate_path = prefloop.make_features, prefloop.generate_path
        pair_rows = prefloop.pair_rows

        def rotated_path(*args):
            path = generate_path(*args)
            return ThetaPath(path.thetas @ q.T, path.tv_used)

        monkeypatch.setattr(prefloop, "make_features", lambda *args: features(*args) @ q.T)
        # the warm start's difference rows, which it builds without make_features
        monkeypatch.setattr(prefloop, "pair_rows", lambda *args: pair_rows(*args) @ q.T)
        monkeypatch.setattr(prefloop, "generate_path", rotated_path)
        rotated = run_preference_loop(cfg, seed)
        np.testing.assert_allclose(rotated.ledger.regret_cum, plain.ledger.regret_cum,
                                   rtol=1e-12)
        assert np.array_equal(rotated.ledger.oracle_arm, plain.ledger.oracle_arm)
        assert (phase_stats(rotated.phases, "decision", "chosen")
                == phase_stats(plain.phases, "decision", "chosen"))


class TestBatchComposition:
    """The island scorer gives a candidate the same bits whatever its batch
    holds: the same candidates reordered, fewer of them, or a duplicate."""

    def test_score_does_not_depend_on_the_batch(self):
        cfg = RunConfig(mode="atlas", K=3, d=3, eval_horizon=60, eval_episodes=2)
        gen = np.random.default_rng(7)
        cands = [StrategyCandidate(int(gen.integers(1, 80)), float(gen.uniform(0.01, 3.0)),
                                   float(gen.uniform(0.0, 2.0))) for _ in range(6)]
        scorer = make_episode_scorer(cfg, seed=4)
        full = dict(zip(cands, scorer(cands, 2)))
        batches = [cands[::-1], [cands[4], cands[1], cands[5], cands[0], cands[3], cands[2]],
                   cands[2:5], [cands[3]], cands + [cands[1]], [cands[5], cands[5]]]
        for batch in batches:
            for cand, score in zip(batch, scorer(batch, 2), strict=True):
                assert np.float64(score).tobytes() == np.float64(full[cand]).tobytes()
