"""Run configuration validation and the key = value parser."""

import math
from dataclasses import fields, replace

import pytest

from driftpref.cli import main
from driftpref.config import RunConfig, parse_config, parse_seeds
from driftpref.errors import ConfigError

FLOAT_KEYS = [f.name for f in fields(RunConfig) if f.type == "float"]


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.mode == "evodpo"
        assert cfg.seeds == (0, 1, 2, 3, 4)
        assert cfg.H == 2000
        assert cfg.V_T == 8000.0

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="dpo")

    def test_bad_drift_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(drift_mode="ou")

    def test_negative_delta_H(self):
        with pytest.raises(ConfigError, match="delta_H"):
            RunConfig(delta_H=-1.0)

    def test_nonpositive_beta(self):
        with pytest.raises(ConfigError, match="beta"):
            RunConfig(beta=0.0)

    def test_kappa_range(self):
        with pytest.raises(ConfigError, match="kappa"):
            RunConfig(kappa=0.0)
        with pytest.raises(ConfigError, match="kappa"):
            RunConfig(kappa=1.2)

    def test_pi_min_range_depends_on_K(self):
        with pytest.raises(ConfigError, match="pi_min"):
            RunConfig(K=2, pi_min=0.5)
        RunConfig(K=2, pi_min=0.4)  # fine
        # a zero floor lets a saturated softmax row hold exact zeros, which
        # the gate's KL rejects as a reference
        for val in (0.0, -1e-9):
            with pytest.raises(ConfigError, match="pi_min"):
                RunConfig(K=2, pi_min=val)
        RunConfig(K=2, pi_min=1e-300)  # fine

    def test_drift_limits_ordered(self):
        with pytest.raises(ConfigError, match="delta_min"):
            RunConfig(delta_min=2.0, delta_max=1.0)

    def test_huge_drift_limit_rejected(self):
        RunConfig(delta_min=1e150, delta_max=1e150)  # fine
        with pytest.raises(ConfigError, match="delta_max <= 1e150"):
            RunConfig(delta_min=1.0, delta_max=1e300)

    def test_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            RunConfig(seeds=())

    @pytest.mark.parametrize("seeds", [(-1,), (0, -3, 2)])
    def test_negative_seed_rejected(self, seeds):
        with pytest.raises(ConfigError, match="^seeds must be nonnegative"):
            RunConfig(seeds=seeds)

    @pytest.mark.parametrize("seeds", [(0, 0), (3, 1, 3)])
    def test_duplicate_seeds_rejected(self, seeds):
        with pytest.raises(ConfigError, match="^seeds must be distinct"):
            RunConfig(seeds=seeds)

    def test_negative_seed_in_config_text_rejected(self):
        with pytest.raises(ConfigError, match="^seeds must be nonnegative"):
            parse_config("seeds = -1\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_nan_rejected_naming_the_key(self, key):
        # Every range check compares, and a comparison with NaN is False.
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number"):
            RunConfig(**{key: math.nan})

    @pytest.mark.parametrize("key", [k for k in FLOAT_KEYS if k != "V_T"])
    def test_infinity_rejected_naming_the_key(self, key):
        for val in (math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^{key} must be a finite number"):
                RunConfig(**{key: val})

    def test_infinite_drift_budget_allowed(self):
        assert RunConfig(V_T=math.inf).V_T == math.inf
        with pytest.raises(ConfigError, match="V_T"):
            RunConfig(V_T=-math.inf)

    def test_nan_in_config_text_rejected(self):
        with pytest.raises(ConfigError, match="ucb_alpha"):
            parse_config("mode = reward-bandit\nucb_alpha = nan\n")


class TestParseSeeds:
    def test_range_form(self):
        assert parse_seeds("0..4") == (0, 1, 2, 3, 4)

    def test_list_form(self):
        assert parse_seeds("0,2,5") == (0, 2, 5)

    def test_single_form(self):
        assert parse_seeds("3") == (3,)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("5..2")


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_round_trip_assignment(self):
        cfg = parse_config("H = 2000\n")
        assert cfg.H == 2000

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nK = 3  # trailing comment\n"
        assert parse_config(text).K == 3

    def test_all_value_kinds(self):
        text = (
            "mode = atlas\n"
            "seeds = 0..2\n"
            "drift_spread = true\n"
            "kappa = 0.5\n"
            "rounds = 40\n"
        )
        cfg = parse_config(text)
        assert cfg.mode == "atlas"
        assert cfg.seeds == (0, 1, 2)
        assert cfg.drift_spread is True
        assert cfg.kappa == 0.5
        assert cfg.rounds == 40

    def test_every_field_round_trips_with_a_non_default_value(self):
        default = RunConfig()
        changed = {"mode": "atlas", "drift_mode": "frozen", "seeds": (3, 5)}
        for f in fields(RunConfig):
            value = getattr(default, f.name)
            if isinstance(value, bool):
                changed[f.name] = not value
            elif isinstance(value, int):
                changed[f.name] = value + 1
            elif isinstance(value, float):
                changed[f.name] = value + 0.125
        assert set(changed) == {f.name for f in fields(RunConfig)}
        expected = replace(default, **changed)
        assert all(getattr(expected, k) != getattr(default, k) for k in changed)
        text = "".join(
            f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
            for k, v in changed.items()
        )
        assert parse_config(text) == expected

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("K = 3\nshenanigans = 1\n")

    def test_removed_spread_horizon_key_is_unknown(self):
        with pytest.raises(ConfigError, match="line 1: unknown key 'drift_spread_h'"):
            parse_config("drift_spread_h = 0\n")

    def test_key_set_twice_names_both_lines_and_exits_two(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("mode = reward-bandit\nH = 50\nH = 60\nseeds = 0\n")
        with pytest.raises(ConfigError, match=r"^line 3: key 'H' already set on line 2$"):
            parse_config(path.read_text())
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: line 3: key 'H' already set on line 2\n"
        assert not out.exists()

    def test_malformed_line_names_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_empty_value_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 1.*'H'"):
            parse_config("H =\n")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 1.*'H'"):
            parse_config("H = soon\n")

    def test_range_violation_reaches_validator(self):
        with pytest.raises(ConfigError, match="delta_H"):
            parse_config("delta_H = -1\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("drift_spread = maybe\n")

    def test_base_overlay(self):
        base = RunConfig(K=7)
        cfg = parse_config("d = 2\n", base=base)
        assert cfg.K == 7
        assert cfg.d == 2
