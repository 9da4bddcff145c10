"""End-to-end acceptance runs: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each test drives the library at the documented study sizes and
tolerances, so this module is much slower than the unit suites (the regret
scaling study alone takes a few minutes).
"""

import time
from dataclasses import replace

import numpy as np

from driftpref.cli import execute_run
from driftpref.config import RunConfig
from driftpref.islands import run_island_search, run_reward_bandit
from driftpref.numerics import sigmoid
from driftpref.policies import softmax_rows
from driftpref.prefloop import fit_dpo, gate
from driftpref.verify import (
    check_estimation_error,
    check_frozen_bias,
    check_kl_bound,
    check_local_variation,
    check_regret_scaling,
    check_self_normalized,
    check_switching_budget,
)
from oracles import dpo_minimizer, tilted_policy


def emit(idx, name, ok, detail, elapsed, cap):
    in_time = elapsed <= cap
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[criterion {idx:>2}] {name}: {status} "
          f"({detail}; {elapsed:.1f}s, cap {cap:.0f}s)", flush=True)
    assert ok, f"criterion {idx} ({name}) failed: {detail}"
    assert in_time, f"criterion {idx} ({name}) over time: {elapsed:.1f}s > {cap}s"


def test_criterion_01_dpo_fit_minimizes_pair_loss():
    # fit_dpo's Newton solve on winner-minus-loser rows must land on the tilt
    # that minimizes the penalized DPO loss of the policy table, found here by
    # plain gradient descent. Instances span the loops' own fits: 10 to 100
    # pairs, dpo_lam 0.1 or 2.0, beta 0.2 or 0.6. At 500 pairs, lam 0.1 and
    # beta 0.6 alone, a fit whose tilt is 10% too long stays under the bound.
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        n = int(rng.integers(10, 101))
        lam = float(rng.choice([0.1, 2.0]))
        beta = float(rng.choice([0.2, 0.6]))
        theta_star = rng.standard_normal(d)
        theta_star /= np.linalg.norm(theta_star)
        feats_row = rng.standard_normal((k, d))
        feats_row /= np.linalg.norm(feats_row, axis=1, keepdims=True)
        ref = rng.random(k) + 1e-3
        ref = (ref / ref.sum())[None, :]
        pairs = []  # (context, winner, loser)
        for _ in range(n):
            first = int(rng.integers(k))
            second = int((first + 1 + rng.integers(k - 1)) % k)
            gap = float((feats_row[first] - feats_row[second]) @ theta_star)
            pairs.append((0, first, second) if rng.uniform() < sigmoid(gap)
                         else (0, second, first))
        _, win, lose = np.array(pairs).T
        w = fit_dpo(feats_row[win] - feats_row[lose], lam=lam)
        policy = softmax_rows(np.log(ref) + (feats_row @ w)[None, :] / beta)
        target = tilted_policy(ref, feats_row[None], dpo_minimizer(
            ref, feats_row[None], pairs, beta, lam), beta)
        worst = max(worst, 0.5 * float(np.abs(policy[0] - target[0]).sum()))
    elapsed = time.perf_counter() - start
    emit(1, "pair fit minimizes the DPO loss", worst <= 0.05,
         f"100 instances, worst TV {worst:.4f} <= 0.05", elapsed, 30.0)


def test_criterion_02_kl_perturbation_bound():
    start = time.perf_counter()
    rep = check_kl_bound(trials=1000)
    elapsed = time.perf_counter() - start
    emit(2, "KL perturbation bound", rep.violations == 0 and rep.passed,
         f"{rep.trials} trials, {rep.violations} violations, "
         f"max ratio {rep.max_ratio:.3f}", elapsed, 5.0)


def test_criterion_03_switching_and_local_variation():
    start = time.perf_counter()
    sw = check_switching_budget(runs=100, horizon=500)
    lv = check_local_variation(runs=100, horizon=500)
    elapsed = time.perf_counter() - start
    ok = sw.violations == 0 and sw.passed and lv.violations == 0 and lv.passed
    emit(3, "switching budget + local variation", ok,
         f"switching {sw.trials} checks / {sw.violations} violations, "
         f"variation {lv.trials} checks / {lv.violations} violations",
         elapsed, 60.0)


def test_criterion_04_self_normalized_tail():
    start = time.perf_counter()
    rep = check_self_normalized(trials=2000)
    elapsed = time.perf_counter() - start
    emit(4, "self-normalized tail rate", rep.passed,
         f"violation rate {rep.violation_rate:.4f} <= "
         f"allowed {rep.allowed_rate:.4f}", elapsed, 60.0)


def test_criterion_05_estimation_error_envelope():
    start = time.perf_counter()
    rep = check_estimation_error()
    elapsed = time.perf_counter() - start
    emit(5, "estimation error envelope", rep.passed,
         f"{rep.trials} checks, violation rate {rep.violation_rate:.4f} <= "
         f"allowed {rep.allowed_rate:.4f}", elapsed, 300.0)


def test_criterion_06_promotion_gate_truth_table():
    start = time.perf_counter()
    cfg = RunConfig()
    cases_ok = (
        gate(0.001, 0.001, cfg) is True        # improves and stays close
        and gate(0.0, 0.001, cfg) is False     # too little improvement
        and gate(0.01, 0.003, cfg) is False    # drifts too far
        and gate(0.0, 0.01, cfg) is False      # fails both
        and gate(cfg.eps_s, cfg.delta_H, cfg) is True  # boundaries inclusive
    )
    elapsed = time.perf_counter() - start
    emit(6, "promotion gate truth table", cases_ok,
         f"four quadrants + inclusive boundary at eps_s={cfg.eps_s}, "
         f"delta_H={cfg.delta_H}", elapsed, 5.0)


def test_criterion_07_regret_scaling_separation():
    start = time.perf_counter()
    rep = check_regret_scaling()
    elapsed = time.perf_counter() - start
    ok = (rep.passed_exponent and rep.passed_domination
          and rep.passed_bias_separation and rep.passed)
    emit(7, "regret scaling separation", ok,
         f"evolving exponent {rep.evolving_exponent:.3f} < 0.95, "
         f"fixed exponent {rep.fixed_exponent:.3f}, "
         f"domination {rep.domination:.2f} >= 0.80, "
         f"bias separation {rep.bias_separation:.3f} >= 0.15, "
         f"accept rate {rep.accept_rate_mean:.2f}", elapsed, 1200.0)


def test_criterion_08_frozen_drift_bias_floor():
    start = time.perf_counter()
    rep = check_frozen_bias()
    elapsed = time.perf_counter() - start
    ok = (rep.passed
          and rep.evolving_mean_abs_bias <= rep.ceiling
          and rep.fixed_mean_abs_bias <= rep.ceiling)
    emit(8, "frozen-drift bias floor", ok,
         f"evolving {rep.evolving_mean_abs_bias:.2e}, "
         f"fixed {rep.fixed_mean_abs_bias:.2e}, ceiling {rep.ceiling:.0e}",
         elapsed, 120.0)


def test_criterion_09_island_phase_schedule():
    start = time.perf_counter()
    cfg = RunConfig(mode="atlas", rounds=100, phase_length=20)
    res = run_island_search(cfg, seed=0)
    snapshot_ok = bool(res.snapshots)
    for snap in res.snapshots:
        scores = dict(zip(snap.entry_indices, snap.entry_scores))
        passed = sorted(
            (i for i in snap.entry_indices if scores[i] >= snap.threshold),
            key=lambda i: (-scores[i], i),
        )
        top = set(passed[:cfg.top_s])
        if not all(rec["winner_index"] in top for rec in snap.pair_records):
            snapshot_ok = False
    elapsed = time.perf_counter() - start
    ok = len(res.phases) == 5 and snapshot_ok
    emit(9, "island phase schedule", ok,
         f"{len(res.phases)} phases over {cfg.rounds} rounds, "
         f"{len(res.snapshots)} snapshots with top-{cfg.top_s} winners",
         elapsed, 120.0)


def test_criterion_10_byte_identical_reruns(tmp_path):
    start = time.perf_counter()
    configs = (
        RunConfig(mode="evodpo", K=5, d=5, H=200, seeds=(0, 1)),
        RunConfig(mode="reward-bandit", K=5, d=5, H=200, seeds=(0,)),
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for cfg in configs:
        execute_run(cfg, out_a)
        execute_run(cfg, out_b)
    names = sorted(p.name for p in out_a.iterdir())
    ok = names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            ok = False
    elapsed = time.perf_counter() - start
    emit(10, "byte-identical reruns", ok,
         f"{len(names)} files compared across two output trees", elapsed, 60.0)


def test_criterion_11_short_window_wins_under_drift():
    start = time.perf_counter()
    base = RunConfig(mode="reward-bandit", K=5, d=5, H=2000,
                     ucb_alpha=0.0, lambda_reg=0.1)
    seeds = range(20)
    short = [r.final_metric for r in run_reward_bandit(replace(base, window_size=20), seeds)]
    long = [r.final_metric for r in run_reward_bandit(replace(base, window_size=200), seeds)]
    margin = float(np.mean(short) - np.mean(long))
    elapsed = time.perf_counter() - start
    emit(11, "short window beats stale window", margin > 0.0,
         f"20 paired seeds, mean reward margin {margin:+.5f} "
         f"(window 20 vs 200)", elapsed, 300.0)
