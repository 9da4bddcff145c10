"""Command-line interface: run orchestration and bit-exact report emission.

Subcommands: run (execute the configured mode across seeds), verify (bound
checks), report (aggregate run summaries into a comparison table). Every
emitted byte is a deterministic function of (config, seed): floats are
printed with 17 significant digits, rows are written in a fixed order, and
no wall-clock or path-dependent state enters the output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from .config import MODES, RunConfig, parse_config, parse_seeds
from .errors import ConfigError, ContractError, ConvergenceError
from .islands import run_island_search, run_reward_bandit
from .prefloop import PhaseReport, run_preference_loop
from .regret import RegretLedger, slope_fit
from .verify import check_frozen_bias, check_regret_scaling, run_standard_checks

PHASE_COLUMNS = ("k", "n_pairs", "delta_S", "kl_hat", "accepted", "beta",
                 "eps_s", "delta_H")


def fmt_float(x: float) -> str:
    """17-significant-digit decimal; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if bool(x) else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if v != v or v in (float("inf"), float("-inf")):
            return "null"  # JSON has no nan/inf
        s = fmt_float(v)
        if "." not in s and "e" not in s and "n" not in s:
            s += ".0"
        return s
    if isinstance(x, str):
        out = x.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise ContractError(f"cannot serialize {type(x).__name__} to JSON")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dict keys keep insertion order; nan/inf map to null.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{_json_scalar(str(k))}: {dump_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{dump_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)


def write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def steps_csv(ledger: RegretLedger) -> str:
    """Step table in one %-format; %.17g prints the digits fmt_float does."""
    values = tuple(chain.from_iterable(zip(*(getattr(ledger, name).tolist()
                                                for name in RegretLedger.COLUMNS))))
    row = "%d,%d,%.17g,%.17g,%.17g,%.17g,%d,%d\n"
    return ",".join(RegretLedger.COLUMNS) + "\n" + row * len(ledger) % values


def phases_csv(phases: list[PhaseReport]) -> str:
    """Phase table; skipped phases appear with zero pairs and nan statistics."""
    row = "%d,%d,%.17g,%.17g,%d,%.17g,%.17g,%.17g\n"
    return ",".join(PHASE_COLUMNS) + "\n" + row * len(phases) % tuple(chain.from_iterable(
        (p.phase_index, p.n_pairs, p.delta_s, p.kl_hat, p.accepted, p.beta, p.eps_s,
         p.delta_H) for p in phases))


def _checkpoint_slope(regret_cum: np.ndarray) -> float | None:
    """Within-run log-log slope at the quarter, half, and full horizon."""
    n = regret_cum.shape[0]
    if n < 4:
        return None
    marks = np.array([n // 4, n // 2, n]) - 1
    values = regret_cum[marks]
    if np.any(values <= 0.0) or np.any(~np.isfinite(values)):
        return None
    return float(slope_fit(marks + 1.0, values))


def _sem(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values), ddof=1) / np.sqrt(len(values)))


def _records(cfg: RunConfig):
    """Yield (seed, record) for every seed, each as soon as its run ends."""
    if cfg.mode == "reward-bandit":
        # One lockstep call plays every seed, each with the bits it gets alone.
        yield from zip(cfg.seeds, run_reward_bandit(cfg, cfg.seeds))
        return
    run = run_island_search if cfg.mode == "atlas" else run_preference_loop
    for seed in cfg.seeds:
        try:
            record = run(cfg, seed)
        except ConvergenceError as exc:
            exc.seed = seed
            raise
        yield seed, record


def execute_run(cfg: RunConfig, out_dir: Path) -> int:
    """Run the configured mode for every seed and emit the report files."""
    if cfg.mode == "verify":
        return execute_verify(cfg, out_dir)
    finals: list[float] = []
    slopes: list[float] = []
    accepted = gated = 0
    for seed, record in _records(cfg):
        finals.append(record.final_metric)
        slope = _checkpoint_slope(record.ledger.regret_cum)
        if slope is not None:
            slopes.append(slope)
        if record.evolving:
            accepted += record.accepted_phases
            gated += record.gated_phases
        write_text(out_dir / f"{cfg.mode}_seed{seed}_steps.csv", steps_csv(record.ledger))
        write_text(out_dir / f"{cfg.mode}_seed{seed}_phases.csv", phases_csv(record.phases))

    summary = {
        "mode": cfg.mode,
        "seeds": [int(s) for s in cfg.seeds],
        "final_metric_per_seed": finals,
        "mean": float(np.mean(finals)),
        "sem": _sem(finals),
        "slope_exponent": float(np.mean(slopes)) if slopes else None,
        "accept_rate": accepted / gated if gated else None,
    }
    write_text(out_dir / f"{cfg.mode}_summary.json", dump_json(summary) + "\n")
    return 0


def execute_verify(cfg: RunConfig, out_dir: Path) -> int:
    """Run the bound checks and emit their JSON reports plus a CSV table."""
    seed = cfg.seeds[0]
    try:
        reports = run_standard_checks(cfg, seed=seed)
    except ConvergenceError as exc:
        exc.seed = seed
        raise
    payload = {"checks": [asdict(r) for r in reports]}
    if cfg.scaling:
        payload["regret_scaling"] = asdict(check_regret_scaling())
        payload["frozen_bias"] = asdict(check_frozen_bias())
    write_text(out_dir / "verify_reports.json", dump_json(payload) + "\n")

    header = "check,trials,violations,excluded,max_ratio,violation_rate,allowed_rate,passed\n"
    row = "%s,%d,%d,%d,%.17g,%.17g,%.17g,%d\n"
    table = header + row * len(reports) % tuple(chain.from_iterable(
        (r.lemma_id, r.trials, r.violations, r.excluded, r.max_ratio, r.violation_rate,
         r.allowed_rate, r.passed) for r in reports))
    write_text(out_dir / "verify_summary.csv", table)
    return 0


_SUMMARY_KEYS = ("mode", "seeds", "final_metric_per_seed", "mean", "sem",
                 "slope_exponent", "accept_rate")


def _report_cell(path: Path, data: dict, key: str) -> str:
    """A summary statistic as a table cell; null gives an empty cell."""
    value = data[key]
    if value is None:
        return ""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return fmt_float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"summary file {path}: {key} must be a number or null, got {value!r}")


def execute_report(paths: list[str], out_dir: Path) -> int:
    """Aggregate run summaries into one comparison table."""
    import json

    if not paths:
        raise ConfigError("report needs at least one summary JSON path")
    lines = ["mode,n_seeds,final_mean,final_sem,slope_exponent,accept_rate"]
    for p in paths:
        path = Path(p)
        if not path.is_file():
            raise ConfigError(f"missing summary file: {path}")
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise ConfigError(f"unparseable summary file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"summary file {path}: not a JSON object")
        missing = [k for k in _SUMMARY_KEYS if k not in data]
        if missing:
            raise ConfigError(
                f"summary file {path} lacks keys: {', '.join(missing)}"
            )
        if data["mode"] not in MODES or not isinstance(data["seeds"], list):
            raise ConfigError(f"summary file {path}: mode must be one of {MODES} and seeds "
                              "a list")
        lines.append(",".join([data["mode"], str(len(data["seeds"]))] + [
            _report_cell(path, data, key)
            for key in ("mean", "sem", "slope_exponent", "accept_rate")]))
    table = "\n".join(lines) + "\n"
    write_text(out_dir / "report.csv", table)
    sys.stdout.write(table)
    return 0


def load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"missing config file: {path}")
        cfg = parse_config(path.read_text(), base=cfg)
    overrides = {}
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    if getattr(args, "seeds", None):
        try:
            overrides["seeds"] = parse_seeds(args.seeds)
        except ValueError as exc:
            raise ConfigError(f"bad value for --seeds: {exc}") from exc
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key = value config file")
    seeds = sub.add_mutually_exclusive_group()
    seeds.add_argument("--seed", metavar="N", type=int, help="single seed")
    seeds.add_argument("--seeds", metavar="N..M", help="seed range N..M or comma list")
    sub.add_argument("--out", metavar="DIR", default="out", help="output directory")
    sub.add_argument("--mode", metavar="NAME",
                     help="override the configured mode")


class _Parser(argparse.ArgumentParser):
    """A bad command line raises ConfigError, so main prints one error: line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="driftpref",
        description="Drifting-preference simulation runs and bound checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "execute the configured mode across seeds"),
        ("verify", "run the bound checks"),
    ):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
    rep = subs.add_parser("report", help="aggregate run summaries")
    rep.add_argument("summaries", nargs="+", metavar="SUMMARY_JSON")
    rep.add_argument("--out", metavar="DIR", default="out")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out_dir = Path(args.out)
        if args.command == "report":
            return execute_report(args.summaries, out_dir)
        cfg = load_config(args)
        if args.command == "verify":
            return execute_verify(cfg, out_dir)
        return execute_run(cfg, out_dir)
    except (ConfigError, ContractError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        seed = "" if exc.seed is None else f" seed {exc.seed}"
        sys.stderr.write(f"error: {cfg.mode}{seed}: {exc}\n")
        return 3
    except np.linalg.LinAlgError as exc:  # a singular solve no caller could recover from
        sys.stderr.write(f"error: {cfg.mode}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
