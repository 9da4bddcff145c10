"""Committed one-line source mutants and the tests that must kill them.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Each row of MUTANTS names a file under src/driftpref, an exact old text
that must occur exactly once in it, its replacement, and the tests that
must fail once the replacement is made. The script first runs every named
test against the unmutated src/, which must pass. Then, for each mutant,
it copies src/ to a temporary directory, applies the one edit there, runs
only that mutant's tests against the copy (the working tree is never
edited), and prints "killed" when a test fails or "survived" when all
pass. It exits 1 when a mutant survives, a row is stale (its old text does
not occur exactly once, or a named test is not found) or the baseline
fails, and 0 when every mutant is killed.

pytest does not collect this file (its name does not start with test_).
Standard library only; pytest runs in a subprocess.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/driftpref
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("verdict-exact-eps", "verify.py", "_EXACT_EPS = 1e-9", "_EXACT_EPS = 1e-3",
           ("tests/test_verify.py::TestVerdictRule",)),
    Mutant("gate-strict-improvement", "prefloop.py", "delta_s >= cfg.eps_s",
           "delta_s > cfg.eps_s",
           ("tests/test_prefloop.py::TestGate::test_boundaries_inclusive",
            "tests/test_acceptance.py::test_criterion_06_promotion_gate_truth_table")),
    Mutant("newton-tol", "numerics.py", "NEWTON_TOL = 1e-8", "NEWTON_TOL = 1e-6",
           ("tests/test_golden.py::test_emitted_bytes_match_golden_digests[atlas-evict]",)),
    Mutant("score-window", "islands.py", "_SCORE_WINDOW = 50", "_SCORE_WINDOW = 49",
           ("tests/test_golden.py::test_emitted_bytes_match_golden_digests[atlas-stall]",)),
    Mutant("gate-ignores-gate-size", "prefloop.py",
           "take = min(cfg.gate_size, cfg.phase_length)", "take = cfg.phase_length",
           ("tests/test_golden.py::test_emitted_bytes_match_golden_digests[evodpo-subgate]",)),
    Mutant("min-domination", "verify.py", "MIN_DOMINATION = 0.8", "MIN_DOMINATION = 0.5",
           ("tests/test_verify.py::TestScalingVerdictThresholds",)),
    Mutant("slot-group-ignores-stall", "islands.py",
           "+ [_STALL_LIMIT - state.non_improving for state in states]", "+ []",
           ("tests/test_islands.py::TestIslandStepOracle",)),
    Mutant("solve-warns-on-invalid", "numerics.py", 'invalid="call"', 'invalid="warn"',
           ("tests/test_numerics.py::TestSolve",)),
    Mutant("loser-pools-swapped", "islands.py",
           "pool = pool_failed if pool_failed else pool_lower",
           "pool = pool_lower if pool_lower else pool_failed",
           ("tests/test_islands.py::TestBuildPairsTopS::test_threshold_splits_pools",)),
    Mutant("one-winner-too-many", "islands.py", "winners = passed[:s]",
           "winners = passed[:s + 1]",
           ("tests/test_islands.py::TestBuildPairsTopS",)),
    Mutant("pair-rows-first-twice", "env.py", "b = ctx[ids, second[lo:lo + per]]",
           "b = ctx[ids, first[lo:lo + per]]",
           ("tests/test_prefloop.py::TestWarmStartOracle",)),
    Mutant("pair-rows-block-shifted", "env.py", "starts = range(0, n_pairs, per)",
           "starts = range(0, n_pairs, per + 1)",
           ("tests/test_prefloop.py::TestWarmStartOracle::test_matches_the_materialised_start",)),
    Mutant("pair-rows-no-zero-replay", "env.py", "while zero:", "while False:",
           ("tests/test_prefloop.py::TestWarmStartOracle::"
            "test_zero_rows_are_redrawn_as_the_materialised_start_redraws_them",)),
    Mutant("einsum-feature-norm", "env.py", "np.linalg.norm(rows, axis=-1)",
           'np.sqrt(np.einsum("...j,...j->...", rows, rows))',
           ("tests/test_env.py::TestMakeFeatures",)),
    Mutant("slot-group-one-too-large", "islands.py", "g = max(1, min([n_proposals - j]",
           "g = 1 + max(1, min([n_proposals - j]",
           ("tests/test_islands.py::TestIslandStepOracle",)),
    Mutant("failure-flags-whole-group", "islands.py", "if len(cands) <= n:", "if True:",
           ("tests/test_islands.py::TestIslandStep::"
            "test_failures_stay_in_their_slot_or_candidate",)),
    Mutant("max-evolving-exponent", "verify.py", "MAX_EVOLVING_EXPONENT = 0.95",
           "MAX_EVOLVING_EXPONENT = 0.96",
           ("tests/test_verify.py::TestScalingVerdictThresholds",)),
    Mutant("min-bias-separation", "verify.py", "MIN_BIAS_SEPARATION = 0.15",
           "MIN_BIAS_SEPARATION = 0.16",
           ("tests/test_verify.py::TestScalingVerdictThresholds",)),
    Mutant("frozen-bias-ceiling", "verify.py", "FROZEN_BIAS_CEILING = 1e-3",
           "FROZEN_BIAS_CEILING = 2e-3",
           ("tests/test_verify.py::TestScalingVerdictThresholds",)),
    Mutant("study-arms-swapped", "verify.py", 'enumerate(("evodpo", "fixed-ref"))',
           'enumerate(("fixed-ref", "evodpo"))',
           ("tests/test_verify.py::TestScalingVerdictThresholds",)),
    Mutant("frozen-study-one-arm", "verify.py", "for arm in bias)",
           "for arm in (bias[0], bias[0]))",
           ("tests/test_verify.py::TestScalingVerdictThresholds::test_frozen_bias_ceiling",)),
    Mutant("verify-row-columns-swapped", "cli.py", "r.max_ratio, r.violation_rate,",
           "r.violation_rate, r.max_ratio,",
           ("tests/test_golden.py::test_emitted_bytes_match_golden_digests[verify]",)),
    Mutant("study-seed-unset", "verify.py", "exc.seed = seed", "pass",
           ("tests/test_verify.py::TestStudySeedNaming",)),
    Mutant("window-one-row-short", "prefloop.py", "lo = max(0, t - W)", "lo = max(0, t - W + 1)",
           ("tests/test_reference_run.py::TestDrawnConfigs",)),
)


def run_tests(src: Path, tests) -> int:
    """pytest's exit status for the given node ids, importing driftpref from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    src = ROOT / "src"
    baseline = run_tests(src, sorted({t for m in chosen for t in m.tests}))
    if baseline != 0:
        print(f"baseline: the named tests are not all found and passing on the unmutated "
              f"tree (pytest exit {baseline})")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for m in chosen:
            copy = Path(tmp) / m.name
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            path = copy / "driftpref" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                verdict = f"stale ({m.old!r} occurs {text.count(m.old)} times in {m.file})"
            else:
                path.write_text(text.replace(m.old, m.new))
                code = run_tests(copy, m.tests)
                # pytest exits 1 when a test failed; 0 when all passed; 2-5
                # when it was interrupted or a named test was not found
                verdict = {0: "survived", 1: "killed"}.get(
                    code, f"stale (pytest exit {code}: a named test is missing or broken)")
            bad += verdict != "killed"
            print(f"{m.name:<26} {verdict}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
