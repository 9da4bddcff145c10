"""driftpref benchmark: four CLI workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload pref-drift            # end-to-end metrics
    python3 bench/run.py --workload pref-drift --trace 1  # per-layer metrics
    python3 bench/run.py --workload all                   # every workload
    python3 bench/run.py --workload pref-drift --record   # rewrite references

Workloads: pref-drift, atlas-search, bandit-long, verify-checks (see
bench/README.md). Each workload runs in its own worker process with the
BLAS thread count pinned; set-up time is measured on separate fresh
interpreters. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

This script imports only the standard library; numpy and driftpref are
imported by the worker processes, from the checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import scale
from layertrace import unit_of
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

# One BLAS thread: the solves are 5x5, and the emitted bytes are identical
# with 1 and 2 threads, so pinning changes timing only.
BLAS_THREADS = 1
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170

# Fresh interpreter -> numpy and driftpref imported, config parsed and
# validated (parse_config builds and checks a RunConfig). Then, untimed,
# a calibration for calib.scale. time.monotonic is one clock for all
# processes, so the parent can time the probe up to "done".
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy, driftpref.cli
from driftpref.config import parse_config
parse_config(open(sys.argv[2]).read())
done = time.monotonic()
sys.path.insert(0, sys.argv[3])
from calib import calibrate
print(done, calibrate())
"""

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "steps/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def pinned_env() -> dict[str, str]:
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                MKL_NUM_THREADS=n)


def setup_seconds(config: Path, env: dict[str, str],
                  deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, raw and at reference speed.

    A first, untimed probe warms the file caches.
    """
    raw, scaled, cal_before = [], [], None
    for _ in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config), str(BENCH)],
            env=env, check=True, capture_output=True, text=True,
            timeout=deadline - time.monotonic()).stdout
        done, cal = (float(x) for x in out.split())
        if cal_before is not None:
            raw.append(done - t0)
            scaled.append(scale(done - t0, cal_before, cal))
        cal_before = cal
    return raw, scaled


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workload = WORKLOADS[name]
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{name}.cfg"
    config.write_text(workload.config_text(seed))
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    env = pinned_env()

    setup = ([], []) if record or trace else setup_seconds(config, env, deadline)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--config", str(config),
           "--out", str(work / "out"), "--result", str(result_path)]
    if record:
        cmd.append("--record")
    subprocess.run(cmd, env=env, check=True, timeout=deadline - time.monotonic())
    result = json.loads(result_path.read_text())
    result["setup_raw"], result["setup"] = setup
    return result


def end_to_end(result: dict) -> dict[str, float]:
    wall = statistics.median(result["scaled"])
    return {
        "wall_s": wall,
        "steps_per_s": result["steps"] / wall,
        "setup_s": statistics.median(result["setup"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict[str, float]:
    metrics = dict(result["layers"])
    metrics["cli.digests_matched"] = result["digests_matched"]
    metrics["failed_frac"] = result["failed"] / result["attempted"]
    return metrics


def report(name: str, seed: int, trace: bool, result: dict) -> dict[str, float]:
    """Print one workload's metrics by name, with units; return them."""
    workload = WORKLOADS[name]
    walls = result["walls"]
    print(f"{name} (seed {seed}, trace {int(trace)}): {len(walls)} timed "
          f"repetitions after 1 warm-up; closed loop, one study at a time, "
          f"one worker process")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    if trace:
        metrics = per_layer(result)
        for key in sorted(metrics):
            print(f"  {key:30s} {metrics[key]:<14.6g} {unit_of(key)}")
        print(f"  traced repetitions: {len(result['traced'])}; times are at "
              f"reference speed (bench/calib.py)")
    else:
        metrics = end_to_end(result)
        for key, value in metrics.items():
            print(f"  {key:12s} {value:<14.6g} {END_TO_END_UNITS[key]}")
        print(f"  times are at reference speed (bench/calib.py); raw medians: "
              f"wall {statistics.median(walls):.4f} s of {len(walls)} "
              f"repetitions, setup {statistics.median(result['setup_raw']):.4f} s "
              f"of {len(result['setup_raw'])} interpreters")
        print(f"  {result['steps']} steps per repetition; step = {workload.step}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_frac':12s} {failed / attempted:<14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    if result["has_reference"]:
        print(f"  outputs checked against the seed-{DEFAULT_SEED} references; "
              f"{result['digests_matched']} of {result['files_written']} files "
              f"match the reference SHA-256 digests")
    else:
        print(f"  no references at seed {seed}: checked that every repetition "
              f"emits identical bytes and every verify verdict passes")
    for err in result["errors"][:5]:
        print("  error: " + err.strip().replace("\n", "\n    "))
    return metrics


def check_benchmark_json(trace: bool, metrics: dict[str, float]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if names != set(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ names)} do not match "
                         f"BENCHMARK.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"store the seed-{DEFAULT_SEED} outputs as the references")
    args = ap.parse_args(argv)
    if not (SRC / "driftpref" / "__init__.py").is_file():
        print(f"error: no driftpref sources at {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.record)
        if args.record:
            print(f"recorded references for {name}; errors: {result['errors']}")
            continue
        m = report(name, args.seed, bool(args.trace), result)
        check_benchmark_json(bool(args.trace), m)
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({f"{prefix}{k}": {"value": v, "unit": (
            END_TO_END_UNITS.get(k) or unit_of(k))} for k, v in m.items()})
    if args.record:
        return 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
