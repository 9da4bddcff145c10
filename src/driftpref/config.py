"""Run configuration and the key = value config-file parser."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

MODES = ("evodpo", "fixed-ref", "atlas", "reward-bandit", "verify")

DRIFT_MODES = ("sphere-walk", "frozen")


@dataclass
class RunConfig:
    """Everything a run needs; defaults mirror the reference bandit setup."""

    mode: str = "evodpo"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    # environment
    K: int = 5
    d: int = 5
    H: int = 2000
    delta_min: float = 1.0
    delta_max: float = 5.0
    V_T: float = 8000.0
    drift_mode: str = "sphere-walk"
    drift_spread: bool = False
    fixed_context: bool = False
    noise_scale: float = 1.0
    # estimation / policy
    kappa: float = 2.0 / 3.0
    lam: float = 0.1
    dpo_lam: float = 0.1
    pi_min: float = 1e-9
    beta: float = 0.6
    # initial policy (0 disables the warmup fit and starts uniform)
    warm_scale: float = 0.0
    warm_pairs: int = 400
    # reference gate
    beta_ref: float = 0.01
    eps_s: float = 0.0007
    delta_H: float = 0.002
    gate_size: int = 32
    phase_length: int = 20
    dataset_phases: int = 4
    max_phases: int = 0  # 0 means one phase per boundary, no extra cap
    true_theta_scores: bool = False
    # reward bandit (also the island scorer's inner policy defaults)
    window_size: int = 20
    lambda_reg: float = 0.1
    ucb_alpha: float = 0.5
    # island search
    rounds: int = 100
    islands: int = 6
    proposals_per_island: int = 2
    top_s: int = 5
    pass_quantile: float = 0.5
    eval_horizon: int = 500
    eval_episodes: int = 3
    # verify mode
    trials: int = 0  # 0 keeps each check's default trial count
    scaling: bool = False  # include the multi-horizon scaling study in verify

    def __post_init__(self):
        # Every range check below compares, and any comparison with NaN is
        # False; only V_T may be infinite (an unbounded drift budget).
        for f in fields(self):
            val = getattr(self, f.name)
            if f.type == "float" and not (math.isfinite(val) or f.name == "V_T" and val > 0):
                raise ConfigError(f"{f.name} must be a finite number, got {val}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.drift_mode not in DRIFT_MODES:
            raise ConfigError(
                f"drift_mode must be one of {DRIFT_MODES}, got {self.drift_mode!r}"
            )
        positives = [
            ("K", self.K), ("d", self.d), ("H", self.H),
            ("phase_length", self.phase_length), ("gate_size", self.gate_size),
            ("dataset_phases", self.dataset_phases), ("window_size", self.window_size),
            ("warm_pairs", self.warm_pairs),
            ("rounds", self.rounds), ("islands", self.islands),
            ("proposals_per_island", self.proposals_per_island),
            ("top_s", self.top_s), ("eval_horizon", self.eval_horizon),
            ("eval_episodes", self.eval_episodes),
        ]
        for name, val in positives:
            if val < 1:
                raise ConfigError(f"{name} must be >= 1, got {val}")
        strict_pos = [
            ("beta", self.beta), ("beta_ref", self.beta_ref), ("lam", self.lam),
            ("dpo_lam", self.dpo_lam), ("lambda_reg", self.lambda_reg),
        ]
        for name, val in strict_pos:
            if val <= 0.0:
                raise ConfigError(f"{name} must be positive, got {val}")
        nonneg = [
            ("eps_s", self.eps_s), ("delta_H", self.delta_H),
            ("ucb_alpha", self.ucb_alpha), ("noise_scale", self.noise_scale),
            ("V_T", self.V_T), ("max_phases", self.max_phases),
            ("trials", self.trials), ("warm_scale", self.warm_scale),
        ]
        for name, val in nonneg:
            if val < 0.0:
                raise ConfigError(f"{name} must be nonnegative, got {val}")
        if not 0.0 <= self.delta_min <= self.delta_max <= 1e150:  # |step|^2 stays finite
            raise ConfigError("need 0 <= delta_min <= delta_max <= 1e150, "
                              f"got [{self.delta_min}, {self.delta_max}]")
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigError(f"kappa must lie in (0, 1], got {self.kappa}")
        if not 0.0 < self.pi_min < 1.0 / self.K:
            raise ConfigError(f"pi_min must lie in (0, 1/K), got {self.pi_min}")
        if not 0.0 < self.pass_quantile < 1.0:
            raise ConfigError(
                f"pass_quantile must lie in (0, 1), got {self.pass_quantile}"
            )
        if len(self.seeds) == 0:
            raise ConfigError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {min(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")


def parse_seeds(text: str) -> tuple[int, ...]:
    """Parse '0..4', '3', or '0,2,5' into a seed tuple."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"seed range {text!r} is empty")
        return tuple(range(lo, hi + 1))
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return (int(text),)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# Each config-file key's parser, from its RunConfig annotation.
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str,
            "tuple[int, ...]": parse_seeds}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines ('#' starts a comment) into a RunConfig.

    Unknown keys, keys set twice and malformed lines raise ConfigError
    naming the line numbers. Values are validated by the RunConfig
    constructor.
    """
    values: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        if not raw_value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)
