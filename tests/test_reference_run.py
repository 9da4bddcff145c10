"""Preference runs on seeded random configs against the step-by-step reference run.

A numpy Generator draws each config over its valid range at small sizes
(H <= 300): both arms, fresh and fixed contexts, warm starts, phase caps
and true-parameter gate scores among the rest. Each run must equal
oracles.reference_preference_run bit for bit in every ledger column and
every phase report. A config with one key pushed just outside its range
must exit 2 with one error: line that names the key.
"""

import math
import re

import numpy as np
import pytest

from driftpref.cli import main
from driftpref.config import DRIFT_MODES, RunConfig
from driftpref.prefloop import run_preference_loop
from driftpref.regret import RegretLedger
from oracles import reference_preference_run

DRAWS = 32


def draw_preference_config(rng):
    """One preference-loop config, every key drawn over its valid range at small sizes."""
    K = int(rng.integers(2, 7))
    delta_min, delta_max = sorted(rng.uniform(0.0, 3.0, size=2).tolist())
    warm = rng.random() < 0.5
    return RunConfig(
        mode=("evodpo", "fixed-ref")[int(rng.integers(2))],
        seeds=(int(rng.integers(1000)),),
        K=K,
        d=int(rng.integers(1, 6)),
        H=int(rng.integers(1, 301)),
        delta_min=delta_min,
        delta_max=delta_max,
        V_T=float(rng.uniform(0.0, 4.0)) if rng.random() < 0.5 else 8000.0,
        drift_mode=DRIFT_MODES[int(rng.integers(2))],
        drift_spread=bool(rng.integers(2)),
        fixed_context=bool(rng.integers(2)),
        kappa=float(rng.uniform(0.2, 1.0)),
        lam=float(10.0 ** rng.uniform(-2.0, 1.0)),
        dpo_lam=float(10.0 ** rng.uniform(-2.0, 1.0)),
        pi_min=float(10.0 ** rng.uniform(-9.0, math.log10(0.9 / K))),
        beta=float(10.0 ** rng.uniform(-1.0, 0.5)),
        warm_scale=float(rng.uniform(1.0, 60.0)) if warm else 0.0,
        warm_pairs=int(rng.integers(1, 801)),
        beta_ref=float(10.0 ** rng.uniform(-2.5, 0.0)),
        eps_s=float(rng.uniform(0.0, 0.01)) if rng.random() < 0.5 else 0.0,
        delta_H=float(rng.uniform(0.0, 0.1)) if rng.random() < 0.5 else 1e9,
        gate_size=int(rng.integers(1, 41)),
        phase_length=int(rng.integers(1, 41)),
        dataset_phases=int(rng.integers(1, 6)),
        max_phases=int(rng.integers(0, 6)),
        true_theta_scores=bool(rng.integers(2)),
    )


class TestDrawnConfigs:
    def test_the_drawer_covers_the_switches(self):
        cfgs = [draw_preference_config(np.random.default_rng([2026, i])) for i in range(DRAWS)]
        for key in ("mode", "fixed_context", "drift_mode", "true_theta_scores"):
            assert len({getattr(c, key) for c in cfgs}) == 2, key
        assert {c.warm_scale > 0.0 for c in cfgs} == {c.max_phases > 0 for c in cfgs} == {
            True, False}

    @pytest.mark.parametrize("draw", range(DRAWS))
    def test_run_equals_the_reference_run(self, draw):
        cfg = draw_preference_config(np.random.default_rng([2026, draw]))
        seed = cfg.seeds[0]
        run = run_preference_loop(cfg, seed)
        columns, phases = reference_preference_run(cfg, seed)
        for col in RegretLedger.COLUMNS:
            assert getattr(run.ledger, col).tobytes() == columns[col].tobytes(), col
        assert [repr(p) for p in run.phases] == [repr(p) for p in phases]


# (mode, key, a value just outside the key's range); the rest of the config is valid
OUT_OF_RANGE = [
    ("atlas", "pi_min", "0.0625"),  # 1/16: the routing softmax spans the 16-anchor panel
    ("evodpo", "pi_min", "0.2"),  # 1/K
    ("evodpo", "pi_min", "0.0"),
    ("evodpo", "K", "0"),
    ("evodpo", "d", "0"),
    ("evodpo", "H", "0"),
    ("evodpo", "phase_length", "0"),
    ("evodpo", "gate_size", "0"),
    ("evodpo", "dataset_phases", "0"),
    ("evodpo", "warm_pairs", "0"),
    ("evodpo", "max_phases", "-1"),
    ("evodpo", "beta", "0.0"),
    ("evodpo", "beta_ref", "0.0"),
    ("evodpo", "lam", "0.0"),
    ("evodpo", "dpo_lam", "0.0"),
    ("evodpo", "eps_s", "-5e-324"),
    ("evodpo", "delta_H", "-5e-324"),
    ("evodpo", "warm_scale", "-5e-324"),
    ("evodpo", "V_T", "-5e-324"),
    ("evodpo", "delta_min", "-5e-324"),
    ("evodpo", "delta_max", "1.0000000000000002e150"),
    ("evodpo", "kappa", "1.0000000000000002"),
    ("evodpo", "kappa", "0.0"),
    ("fixed-ref", "drift_mode", "walk"),
]


@pytest.mark.parametrize("mode, key, value", OUT_OF_RANGE)
def test_a_key_just_outside_its_range_exits_two_naming_it(tmp_path, capsys, mode, key, value):
    values = {"mode": mode, "K": "5", "H": "40", "rounds": "2", "seeds": "0", key: value}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and re.search(rf"\b{key}\b", err)
    assert not (tmp_path / "out").exists()
