"""Command-line interface: run orchestration and bit-exact report emission.

Subcommands: run (execute the configured mode across seeds), verify (bound
checks), sweep (run with an explicit seed range), report (aggregate run
summaries into a comparison table). Every emitted byte is a deterministic
function of (config, seed): floats are printed with 17 significant digits,
rows are written in a fixed order, and no wall-clock or path-dependent
state enters the output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config, parse_seeds
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
    lines = [",".join(RegretLedger.COLUMNS)]
    for i in range(len(ledger)):
        lines.append(",".join([
            str(int(ledger.t[i])),
            str(int(ledger.phase[i])),
            fmt_float(ledger.bias[i]),
            fmt_float(ledger.error[i]),
            fmt_float(ledger.regret_step[i]),
            fmt_float(ledger.regret_cum[i]),
            str(int(ledger.oracle_arm[i])),
            str(int(ledger.switch[i])),
        ]))
    return "\n".join(lines) + "\n"


def phases_csv(phases: list[PhaseReport]) -> str:
    """Phase table; skipped phases appear with zero pairs and nan statistics."""
    lines = [",".join(PHASE_COLUMNS)]
    for p in phases:
        lines.append(",".join([
            str(int(p.phase_index)),
            str(int(p.n_pairs)),
            fmt_float(p.delta_s),
            fmt_float(p.kl_hat),
            str(int(p.accepted)),
            fmt_float(p.beta),
            fmt_float(p.eps_s),
            fmt_float(p.delta_H),
        ]))
    return "\n".join(lines) + "\n"


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


def _atlas_ledger(result) -> RegretLedger:
    """Map island rounds onto the step-ledger schema.

    One row per round: regret_step is the negated best round score (scores
    are negative mean regret, so this is a per-round regret level), the
    oracle arm is the best round's anchor, and a switch marks a change of
    best anchor between rounds. Rounds with no successful proposals carry
    nan and do not advance the cumulative column.
    """
    n = result.round_best.shape[0]
    regret_step = -result.round_best
    finite = np.isfinite(regret_step)
    regret_cum = np.where(finite, regret_step, 0.0).cumsum()
    switch = np.zeros(n, dtype=int)
    anchors = result.round_best_anchor
    for i in range(1, n):
        switch[i] = int(anchors[i] != anchors[i - 1])
    return RegretLedger(
        t=np.arange(1, n + 1),
        phase=result.round_phase.astype(int),
        bias=np.zeros(n),
        error=np.where(finite, regret_step, np.nan),
        regret_step=np.where(finite, regret_step, np.nan),
        regret_cum=regret_cum,
        oracle_arm=anchors.astype(int),
        switch=switch,
    )


def _reward_ledger(result) -> RegretLedger:
    n = result.regret_step.shape[0]
    return RegretLedger(
        t=np.arange(1, n + 1),
        phase=np.zeros(n, dtype=int),
        bias=np.zeros(n),
        error=result.regret_step.copy(),
        regret_step=result.regret_step.copy(),
        regret_cum=result.regret_cum.copy(),
        oracle_arm=result.oracle_arm.astype(int),
        switch=result.switch.astype(int),
    )


def _sem(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values), ddof=1) / np.sqrt(len(values)))


def execute_run(cfg: RunConfig, out_dir: Path) -> int:
    """Run the configured mode for every seed and emit the report files."""
    if cfg.mode == "verify":
        return execute_verify(cfg, out_dir)
    finals: list[float] = []
    slopes: list[float] = []
    accepted_total = 0
    gated_total = 0
    saw_rate = False
    # One lockstep call plays every seed, each with the bits it gets alone.
    bandit_runs = run_reward_bandit(cfg, cfg.seeds) if cfg.mode == "reward-bandit" else None
    for i, seed in enumerate(cfg.seeds):
        try:
            if cfg.mode in ("evodpo", "fixed-ref"):
                res = run_preference_loop(cfg, seed)
                ledger = res.ledger
                phases = res.phases
                final = ledger.final_regret()
                if res.accept_rate() is not None:
                    saw_rate = True
                    accepted_total += res.accepted_phases
                    gated_total += res.gated_phases
            elif cfg.mode == "reward-bandit":
                res = bandit_runs[i]
                ledger = _reward_ledger(res)
                phases = []
                final = res.nmr
            elif cfg.mode == "atlas":
                res = run_island_search(cfg, seed)
                ledger = _atlas_ledger(res)
                phases = res.phases
                final = res.final_metric
                if res.accept_rate() is not None:
                    saw_rate = True
                    accepted_total += res.accepted_phases
                    gated_total += res.gated_phases
            else:
                raise ConfigError(f"mode {cfg.mode!r} is not runnable")
        except ConvergenceError as exc:
            exc.seed = seed
            raise
        finals.append(float(final))
        slope = _checkpoint_slope(ledger.regret_cum)
        if slope is not None:
            slopes.append(slope)
        write_text(out_dir / f"{cfg.mode}_seed{seed}_steps.csv", steps_csv(ledger))
        write_text(out_dir / f"{cfg.mode}_seed{seed}_phases.csv", phases_csv(phases))

    summary = {
        "mode": cfg.mode,
        "seeds": [int(s) for s in cfg.seeds],
        "final_metric_per_seed": finals,
        "mean": float(np.mean(finals)),
        "sem": _sem(finals),
        "slope_exponent": float(np.mean(slopes)) if slopes else None,
        "accept_rate": (accepted_total / gated_total
                        if saw_rate and gated_total > 0 else None),
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

    lines = [",".join(("check", "trials", "violations", "excluded", "max_ratio",
                       "violation_rate", "allowed_rate", "passed"))]
    for r in reports:
        lines.append(",".join([
            r.lemma_id, str(r.trials), str(r.violations), str(r.excluded),
            fmt_float(r.max_ratio), fmt_float(r.violation_rate),
            fmt_float(r.allowed_rate), str(int(r.passed)),
        ]))
    write_text(out_dir / "verify_summary.csv", "\n".join(lines) + "\n")
    return 0


_SUMMARY_KEYS = ("mode", "seeds", "final_metric_per_seed", "mean", "sem",
                 "slope_exponent", "accept_rate")


def execute_report(paths: list[str], out_dir: Path) -> int:
    """Aggregate run summaries into one comparison table."""
    import json

    if not paths:
        raise ConfigError("report needs at least one summary JSON path")
    rows = []
    for p in paths:
        path = Path(p)
        if not path.is_file():
            raise ConfigError(f"missing summary file: {path}")
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise ConfigError(f"unparseable summary file {path}: {exc}") from exc
        missing = [k for k in _SUMMARY_KEYS if k not in data]
        if missing:
            raise ConfigError(
                f"summary file {path} lacks keys: {', '.join(missing)}"
            )
        rows.append(data)

    header = ("mode", "n_seeds", "final_mean", "final_sem", "slope_exponent",
              "accept_rate")
    lines = [",".join(header)]
    for data in rows:
        slope = data["slope_exponent"]
        rate = data["accept_rate"]
        lines.append(",".join([
            str(data["mode"]),
            str(len(data["seeds"])),
            fmt_float(data["mean"]),
            fmt_float(data["sem"]),
            "" if slope is None else fmt_float(slope),
            "" if rate is None else fmt_float(rate),
        ]))
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
    sub.add_argument("--seed", metavar="N", type=int, help="single seed")
    sub.add_argument("--seeds", metavar="N..M",
                     help="seed range N..M or comma list")
    sub.add_argument("--out", metavar="DIR", default="out", help="output directory")
    sub.add_argument("--mode", metavar="NAME",
                     help="override the configured mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftpref",
        description="Drifting-preference simulation runs and bound checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "execute the configured mode across seeds"),
        ("verify", "run the bound checks"),
        ("sweep", "run across an explicit seed range"),
    ):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
    rep = subs.add_parser("report", help="aggregate run summaries")
    rep.add_argument("summaries", nargs="+", metavar="SUMMARY_JSON")
    rep.add_argument("--out", metavar="DIR", default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.command == "report":
            return execute_report(args.summaries, out_dir)
        cfg = load_config(args)
        if args.command == "verify":
            return execute_verify(cfg, out_dir)
        if args.command == "sweep" and not args.seeds:
            raise ConfigError("sweep requires --seeds N..M")
        return execute_run(cfg, out_dir)
    except (ConfigError, ContractError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        seed = "" if exc.seed is None else f" seed {exc.seed}"
        sys.stderr.write(f"error: {cfg.mode}{seed}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
