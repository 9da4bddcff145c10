"""Committed SHA-256 digests of every file the run and verify paths emit.

Reruns of one version are byte-identical (see test_cli); these digests pin
the bytes across versions. A change that alters a digest on purpose must
say why and record the new digests:

    PYTHONPATH=src python tests/test_golden.py

The bytes also depend on the kernel that numpy's bundled OpenBLAS picks
for the host CPU when numpy is imported: the AVX-512 kernel fuses
multiply-adds that the AVX2 (Haswell) kernel does not, and floats move in
their last digits. So the cases run, and are recorded, in one child
interpreter started with OPENBLAS_CORETYPE=Haswell, a kernel every AVX2
x86-64 host can run. A host that cannot run it fails with a message naming
the kernel and the host's CPU features. aarch64 hosts, whose OpenBLAS
kernels differ, are out of scope.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import driftpref
from driftpref.cli import execute_report, execute_run
from driftpref.config import RunConfig

KERNEL = "Haswell"
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


def case_digests() -> dict[str, dict[str, str]]:
    """Every case's digests, computed in this interpreter."""
    record = {}
    for name in sorted([*CASES, "report"]):
        with tempfile.TemporaryDirectory() as tmp:
            record[name] = emitted_digests(name, Path(tmp))
    return record


def kernel_note() -> str:
    """The pinned kernel and the host CPU features that decide OpenBLAS's own."""
    features = np._core._multiarray_umath.__cpu_features__
    flags = ", ".join(f"{name}={features.get(name)}"
                      for name in ("AVX2", "FMA3", "AVX512F", "AVX512_SKX"))
    return f"OpenBLAS kernel pinned to OPENBLAS_CORETYPE={KERNEL}; host CPU features: {flags}"


@functools.cache
def pinned_run() -> subprocess.CompletedProcess:
    """One child interpreter that prints every case's digests as JSON.

    The child imports driftpref from where this process did, and numpy
    after OPENBLAS_CORETYPE is set, which is when OpenBLAS picks its kernel.
    """
    src = str(Path(driftpref.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL, PYTHONPATH=path)
    return subprocess.run([sys.executable, __file__, "--emit"], env=env,
                          capture_output=True, text=True, timeout=600)


def pinned_digests() -> dict[str, dict[str, str]]:
    proc = pinned_run()
    if proc.returncode != 0:
        pytest.fail(f"the golden cases did not run ({kernel_note()}):\n{proc.stderr}")
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", sorted([*CASES, "report"]))
def test_emitted_bytes_match_golden_digests(case):
    expected = json.loads(DIGESTS.read_text())[case]
    assert pinned_digests()[case] == expected, kernel_note()


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        sys.stdout.write(json.dumps(case_digests()))
    else:
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(pinned_digests(), indent=2) + "\n")
        sys.stdout.write(f"wrote {DIGESTS} ({kernel_note()})\n")
