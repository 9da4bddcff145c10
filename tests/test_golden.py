"""Committed SHA-256 digests of every file the run and verify paths emit.

Reruns of one version are byte-identical (see test_cli); these digests pin
the bytes across versions. A change that alters a digest on purpose must
say why and record the new digests:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from driftpref.cli import execute_report, execute_run
from driftpref.config import RunConfig

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

# delta_H = 0.1 makes the evolving arm accept some phases and reject others.
_PREF = RunConfig(H=200, drift_spread=True, fixed_context=True, delta_H=0.1,
                  seeds=(0, 1))

# Small configs covering what the benchmark workloads do not: spread drift
# with a shared context, the same loop from a warm-started policy, the
# bandit's spread branch, an atlas run whose phases are all skipped, an atlas
# run with spread drift whose two gated phases accept once and reject once,
# an atlas run whose three islands each double their proposal spread once
# (one of them between two proposal slots of a round, which pins the
# cross-island slot order), and verify with a trial override. The phase-fit
# cases cover a preference run with fresh contexts, the same run whose gate
# draws 8 of each phase's 20 steps (with a shared context every gate row is
# the same, so only fresh contexts pin the subsample draw), one whose phases
# stop at max_phases (the dataset stops growing and the phase column stops at
# max_phases + 1), one whose gate scores with the true parameter, and an atlas
# run whose pair dataset drops its oldest phase (its phases fit 2, 3 and 2 rows,
# and two of the three accept). The evicting atlas run over three seeds pins
# the summary's cross-seed statistics: its accept rate pools 8 gated phases,
# since one seed skips a phase.
CASES = {
    "evodpo": replace(_PREF, mode="evodpo"),
    "evodpo-capped": replace(_PREF, mode="evodpo", max_phases=3),
    "evodpo-fresh": replace(_PREF, mode="evodpo", fixed_context=False),
    "evodpo-subgate": replace(_PREF, mode="evodpo", fixed_context=False, gate_size=8),
    "evodpo-true-scores": replace(_PREF, mode="evodpo", true_theta_scores=True),
    "evodpo-warm": replace(_PREF, mode="evodpo", warm_scale=60.0, warm_pairs=400,
                           seeds=(0,)),
    "fixed-ref": replace(_PREF, mode="fixed-ref"),
    "reward-bandit": RunConfig(mode="reward-bandit", H=500, drift_spread=True,
                               seeds=(0, 1)),
    "atlas": RunConfig(mode="atlas", rounds=4, islands=1, proposals_per_island=1,
                       phase_length=1, seeds=(0,)),
    "atlas-spread": RunConfig(mode="atlas", drift_spread=True, V_T=10.0, rounds=4,
                              islands=2, proposals_per_island=2, phase_length=2,
                              eval_horizon=100, eval_episodes=2, delta_H=0.2,
                              seeds=(0,)),
    "atlas-stall": RunConfig(mode="atlas", rounds=8, islands=3, proposals_per_island=3,
                             phase_length=4, eval_horizon=60, eval_episodes=2,
                             seeds=(0,)),
    "atlas-evict": RunConfig(mode="atlas", rounds=6, islands=2, proposals_per_island=2,
                             phase_length=1, max_phases=3, dataset_phases=2,
                             eval_horizon=60, eval_episodes=2, delta_H=0.2, seeds=(0,)),
    "atlas-seeds": RunConfig(mode="atlas", rounds=6, islands=2, proposals_per_island=2,
                             phase_length=1, max_phases=3, dataset_phases=2,
                             eval_horizon=60, eval_episodes=2, delta_H=0.2,
                             seeds=(0, 1, 2)),
    "verify": RunConfig(mode="verify", trials=50, seeds=(0,)),
}


# The report case is the comparison table over these cases' summaries.
REPORTED = ("evodpo", "fixed-ref", "reward-bandit", "atlas")


def emitted_digests(case: str, out_dir: Path) -> dict[str, str]:
    """Run one case and return {file name: SHA-256} for what it wrote."""
    if case == "report":
        runs = out_dir / "runs"
        for name in REPORTED:
            assert execute_run(CASES[name], runs) == 0
        summaries = [str(runs / f"{CASES[name].mode}_summary.json") for name in REPORTED]
        with contextlib.redirect_stdout(io.StringIO()):
            assert execute_report(summaries, out_dir / "report") == 0
        out_dir = out_dir / "report"
    else:
        assert execute_run(CASES[case], out_dir) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("case", sorted([*CASES, "report"]))
def test_emitted_bytes_match_golden_digests(case, tmp_path):
    expected = json.loads(DIGESTS.read_text())[case]
    assert emitted_digests(case, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    record = {}
    for name in sorted([*CASES, "report"]):
        with tempfile.TemporaryDirectory() as tmp:
            record[name] = emitted_digests(name, Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n")
    sys.stdout.write(f"wrote {DIGESTS}\n")
