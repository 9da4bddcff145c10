"""Benchmark worker: runs one workload repeatedly in this process.

run.py starts this script in a fresh interpreter with the BLAS thread count
pinned in its environment, and reads the JSON it writes to --result. Each
repetition calls driftpref.cli.main for every call of the workload, in a
closed loop. The first repetition is an untimed warm-up whose output
digests every later repetition must reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from calib import calibrate, scale
from layertrace import LAYERS, Tracer, check_predictions, layer_metrics, unit_of
from workloads import DEFAULT_SEED, TOLERANCE, WORKLOADS

MIN_REPS = 3
REFERENCES = Path(__file__).resolve().parent / "references.json"


def import_driftpref(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import driftpref
    import driftpref.cli

    if src.resolve() not in Path(driftpref.__file__).resolve().parents:
        raise SystemExit(f"driftpref was imported from {driftpref.__file__}, "
                         f"not from {src}")
    return driftpref


def digests(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def matches(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOLERANCE["abs"] + TOLERANCE["rel"] * abs(b)


@contextlib.contextmanager
def capture_island_results(cli):
    """Collect (seed, IslandRunResult) from the CLI's run_island_search.

    Failed proposals reach no output file, so they are read from the
    returned entries.
    """
    inner = cli.run_island_search
    results = []

    def capture(cfg, seed):
        result = inner(cfg, seed)
        results.append((seed, result))
        return result

    cli.run_island_search = capture
    try:
        yield results
    finally:
        cli.run_island_search = inner


class Run:
    """One workload at one benchmark seed: repetitions and their checks."""

    def __init__(self, driftpref, workload, seed, config_path, out_dir):
        self.cli = driftpref.cli
        self.workload = workload
        self.out_dir = out_dir
        self.calls = workload.calls(seed, str(config_path), str(out_dir))
        self.seeds = workload.seeds(seed)
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        self.ref = refs.get(workload.name) if seed == DEFAULT_SEED else None
        self.first_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.steps = 0
        self.files_written = 0
        self.digests_matched = 0

    def rep(self) -> tuple[float, float]:
        """Run every call once and check the outputs.

        Returns the wall time and the same time at reference speed; each
        call is bracketed by calibrations, which are not timed.
        """
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        failed: set[str] = set()
        wall = scaled = 0.0
        with capture_island_results(self.cli) as island_results, \
                contextlib.redirect_stdout(io.StringIO()):
            before = calibrate()
            for call in self.calls:
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(list(call.argv))
                except Exception:
                    code = None
                    self.errors.append(traceback.format_exc(limit=3))
                dt = time.perf_counter() - t0
                after = calibrate()
                wall += dt
                scaled += scale(dt, before, after)
                before = after
                if code != 0:
                    failed.update(call.ops)
        failed |= self.check(island_results)
        ops = [op for call in self.calls for op in call.ops]
        self.attempted += len(ops)
        self.failed += len(failed)
        return wall, scaled

    def check(self, island_results) -> set[str]:
        """Operations whose outputs are wrong, or that the program flagged."""
        failed: set[str] = set()
        got = digests(self.out_dir)
        if self.first_digests is None:
            self.first_digests = got
        elif got != self.first_digests:
            self.errors.append("output bytes differ from the warm-up repetition")
            failed.update(op for call in self.calls for op in call.ops)
        self.files_written = len(got)
        if self.ref is not None:
            self.digests_matched = sum(
                self.ref["digests"].get(k) == v for k, v in got.items())

        for seed, result in island_results:
            failed.update(f"atlas/seed{seed}/proposal{e.index}"
                          for e in result.entries if e.failure)

        for call in self.calls:
            if call.mode is not None:
                failed |= self.check_summary(call)
        if self.workload.name == "verify-checks":
            failed |= self.check_verify()
        elif self.workload.steps_per_seed is not None:
            self.steps = self.workload.steps_per_seed * len(self.seeds)
        return failed

    def check_summary(self, call) -> set[str]:
        path = self.out_dir / f"{call.mode}_summary.json"
        if not path.is_file():
            return set(call.ops)
        summary = json.loads(path.read_text())
        if self.ref is None:
            return set()
        ref = self.ref["summaries"][call.mode]
        failed: set[str] = set()
        if not (matches(summary["mean"], ref["mean"])
                and matches(summary["accept_rate"], ref["accept_rate"])
                and len(summary["final_metric_per_seed"])
                == len(ref["final_metric_per_seed"])):
            self.errors.append(f"{call.mode} summary differs from the reference")
            return set(call.ops)
        for seed, got, want in zip(self.seeds, summary["final_metric_per_seed"],
                                   ref["final_metric_per_seed"]):
            if not matches(got, want):
                self.errors.append(f"{call.mode} seed {seed}: final metric "
                                   f"{got!r} differs from reference {want!r}")
                failed.update(op for op in call.ops
                              if op.split("/")[1] == f"seed{seed}")
        return failed

    def check_verify(self) -> set[str]:
        path = self.out_dir / "verify_reports.json"
        if not path.is_file():
            return set(self.calls[0].ops)
        checks = json.loads(path.read_text())["checks"]
        self.steps = sum(int(c["trials"]) for c in checks)
        failed = {c["lemma_id"] for c in checks if not c["passed"]}
        failed |= set(self.calls[0].ops) - {c["lemma_id"] for c in checks}
        if self.ref is not None:
            for c in checks:
                want = self.ref["checks"].get(c["lemma_id"])
                got = {k: c[k] for k in ("trials", "violations", "passed")}
                if got != want:
                    self.errors.append(f"{c['lemma_id']}: {got} differs from "
                                       f"reference {want}")
                    failed.add(c["lemma_id"])
        return failed

    def reference(self) -> dict:
        """This run's outputs in the form references.json stores them."""
        summaries = {}
        for call in self.calls:
            if call.mode is not None:
                s = json.loads((self.out_dir / f"{call.mode}_summary.json").read_text())
                summaries[call.mode] = {k: s[k] for k in (
                    "final_metric_per_seed", "mean", "accept_rate")}
        checks = {}
        path = self.out_dir / "verify_reports.json"
        if path.is_file():
            for c in json.loads(path.read_text())["checks"]:
                checks[c["lemma_id"]] = {k: c[k] for k in (
                    "trials", "violations", "passed")}
        return {"summaries": summaries, "checks": checks,
                "digests": digests(self.out_dir)}


def machine_info() -> dict:
    import numpy

    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(run: Run, seconds: float, tracer: Tracer | None) -> dict:
    """Timed repetitions after the warm-up; with a tracer, alternate
    untraced and traced repetitions and add the per-layer metrics, whose
    times are put at reference speed like the wall times."""
    run.rep()  # warm-up: fills caches, records the digests to reproduce
    walls, scaled, traced, layers = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(walls) < MIN_REPS or (tracer and len(traced) < MIN_REPS)):
        wall, ref = run.rep()
        walls.append(wall)
        scaled.append(ref)
        if tracer is None:
            continue
        tracer.install()
        try:
            wall, ref = run.rep()
        finally:
            tracer.uninstall()
        traced.append(ref)
        m = {k: v * ref / wall if unit_of(k) == "s" else v
             for k, v in layer_metrics(tracer).items()}
        m["trace.layer_cover_frac"] = sum(
            tracer.layer_self_s(layer) for layer in LAYERS) / wall
        layers.append(m)
        workload = run.workload
        problems = check_predictions(tracer, workload.exercised, workload.bypassed)
        run.attempted += len(workload.exercised) + len(workload.bypassed)
        run.failed += len(problems)
        run.errors.extend(problems)

    out = {"walls": walls, "scaled": scaled}
    if tracer is not None:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(scaled) - 1.0)
        out["layers"] = metrics
        out["traced"] = traced
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--record", action="store_true",
                    help="run once and store the outputs as the references")
    args = ap.parse_args(argv)

    driftpref = import_driftpref(args.root)
    workload = WORKLOADS[args.workload]
    run = Run(driftpref, workload, args.seed, args.config, args.out)

    if args.record:
        if args.seed != DEFAULT_SEED:
            raise SystemExit(f"references are recorded at seed {DEFAULT_SEED}")
        run.ref = None
        run.rep()
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        refs[workload.name] = run.reference()
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        result = {"recorded": workload.name, "failed": run.failed,
                  "errors": run.errors}
    else:
        tracer = Tracer(driftpref) if args.trace else None
        result = measure(run, args.seconds, tracer)
        result.update(
            attempted=run.attempted, failed=run.failed, errors=run.errors,
            steps=run.steps, files_written=run.files_written,
            digests_matched=run.digests_matched,
            has_reference=run.ref is not None,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            machine=machine_info(),
        )
    args.result.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
