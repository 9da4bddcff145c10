"""Relations between runs that the simulator must satisfy.

The golden digests pin what the code did; these metamorphic relations say
something about whether it was right. Each compares two runs that must
agree bit for bit over a stretch, and then, where the relation says so,
differ after it.
"""

from dataclasses import replace

import numpy as np
import pytest

from driftpref import prefloop
from driftpref.config import RunConfig
from driftpref.islands import run_reward_bandit
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
        evolving = run_preference_loop(cfg, seed, evolving=True)
        fixed = run_preference_loop(cfg, seed, evolving=False)
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
