"""Emission formats, command wiring, and file-level determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from driftpref import islands
from driftpref.cli import (
    _checkpoint_slope,
    _sem,
    dump_json,
    execute_report,
    execute_run,
    fmt_float,
    main,
    phases_csv,
    steps_csv,
    write_text,
)
from driftpref.config import RunConfig
from driftpref.errors import ConfigError, ContractError, ConvergenceError
from driftpref.prefloop import PhaseReport
from driftpref.regret import RegretLedger

import oracles


class TestFmtFloat:
    def test_round_trips_float64(self):
        for x in (1.0 / 3.0, 0.1, 1e-300, 123456.789, -2.5e17):
            assert float(fmt_float(x)) == x

    def test_plain_integers_stay_short(self):
        assert fmt_float(2.0) == "2"


class TestDumpJson:
    def test_parseable_and_ordered(self):
        obj = {"b": 1, "a": [1.5, None, True], "c": {"x": "hi"}}
        text = dump_json(obj)
        parsed = json.loads(text)
        assert parsed == {"b": 1, "a": [1.5, None, True], "c": {"x": "hi"}}
        # insertion order is preserved, not sorted
        assert text.index('"b"') < text.index('"a"') < text.index('"c"')

    def test_nan_and_inf_become_null(self):
        parsed = json.loads(dump_json({"a": float("nan"), "b": float("inf")}))
        assert parsed == {"a": None, "b": None}

    def test_integral_floats_keep_a_decimal_point(self):
        assert dump_json(2.0) == "2.0"
        assert json.loads(dump_json({"x": 8000.0}))["x"] == 8000.0

    def test_seventeen_digit_floats_round_trip(self):
        x = 0.1 + 0.2
        assert json.loads(dump_json({"x": x}))["x"] == x

    def test_string_escaping(self):
        assert json.loads(dump_json('say "hi" \\ there')) == 'say "hi" \\ there'

    def test_numpy_scalars(self):
        text = dump_json({"i": np.int64(3), "f": np.float64(0.5),
                          "b": np.bool_(True)})
        assert json.loads(text) == {"i": 3, "f": 0.5, "b": True}

    def test_empty_containers(self):
        assert dump_json({}) == "{}"
        assert dump_json([]) == "[]"

    def test_unserializable_rejected(self):
        with pytest.raises(ContractError):
            dump_json({"x": {1, 2}})


def tiny_ledger():
    return RegretLedger(
        t=np.array([1, 2]),
        phase=np.array([1, 1]),
        bias=np.array([0.5, 0.25]),
        error=np.array([0.1, 0.2]),
        regret_step=np.array([0.6, 0.45]),
        regret_cum=np.array([0.6, 1.05]),
        oracle_arm=np.array([2, 0]),
        switch=np.array([0, 1]),
    )


class TestStepsCsv:
    def test_header_and_rows(self):
        text = steps_csv(tiny_ledger())
        lines = text.strip().split("\n")
        assert lines[0] == "t,phase,bias,error,regret_step,regret_cum,oracle_arm,switch"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == 0.5
        assert first[6] == "2"

    def test_values_round_trip(self):
        led = tiny_ledger()
        led.bias[0] = 1.0 / 3.0
        text = steps_csv(led)
        assert float(text.strip().split("\n")[1].split(",")[2]) == 1.0 / 3.0


def make_phase(k=1, decision="accept", delta_s=0.01, kl_hat=0.001, n_pairs=20):
    return PhaseReport(
        phase_index=k, n_pairs=n_pairs, delta_s=delta_s,
        kl_hat=kl_hat, decision=decision, accepted=decision == "accept",
        chosen="full" if decision == "accept" else "",
        ref_version_before=0, ref_version_after=1 if decision == "accept" else 0,
        beta=0.6, eps_s=0.0007, delta_H=0.002, gate_size=20,
    )


class TestPhasesCsv:
    def test_header_and_rows(self):
        text = phases_csv([make_phase(1), make_phase(2, decision="reject")])
        lines = text.strip().split("\n")
        assert lines[0] == "k,n_pairs,delta_S,kl_hat,accepted,beta,eps_s,delta_H"
        assert lines[1].split(",")[4] == "1"
        assert lines[2].split(",")[4] == "0"

    def test_skipped_phase_emits_nan_statistics(self):
        skipped = make_phase(3, decision="skipped", delta_s=float("nan"),
                             kl_hat=float("nan"), n_pairs=0)
        skipped.accepted = False
        line = phases_csv([skipped]).strip().split("\n")[1]
        fields = line.split(",")
        assert fields[1] == "0"
        assert fields[2] == "nan"
        assert fields[3] == "nan"


# Floats whose 17-digit form is easy to get wrong: nan, both infinities, a
# signed zero, the smallest subnormal, the integers where %g switches to an
# exponent, and values that need all 17 digits.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e17,
               -1e17, 1.0 / 3.0, 0.1 + 0.2, 2.0 ** 53 + 2.0, 1e-300, 1.7976931348623157e308]


class TestOnePassTablesMatchRowByRow:
    def test_steps_edge_values(self):
        n = len(EDGE_FLOATS)
        vals = np.array(EDGE_FLOATS)
        led = RegretLedger(
            t=np.array([1, 2, 2 ** 53, 2 ** 53 + 1, 2 ** 62] + list(range(6, n + 1))),
            phase=np.arange(n) - 2, bias=vals, error=np.roll(vals, 1),
            regret_step=np.roll(vals, 2), regret_cum=np.roll(vals, 3),
            oracle_arm=np.arange(n) - 1, switch=np.arange(n) % 2,
        )
        text = steps_csv(led)
        assert text == oracles.steps_csv_rows(led)
        assert text.split("\n")[4].startswith("9007199254740993,")

    def test_phases_edge_values(self):
        phases = [make_phase(k=2 ** 53 + k, delta_s=x, kl_hat=EDGE_FLOATS[k - 1],
                             n_pairs=k, decision=("accept", "reject", "skipped")[k % 3])
                  for k, x in enumerate(EDGE_FLOATS, start=1)]
        for p, x in zip(phases, reversed(EDGE_FLOATS)):
            p.beta, p.eps_s, p.delta_H = x, -x, x
        assert phases_csv(phases) == oracles.phases_csv_rows(phases)

    def test_empty_tables(self):
        ints, floats = np.zeros(0, dtype=int), np.zeros(0)
        led = RegretLedger(t=ints, phase=ints, bias=floats, error=floats, regret_step=floats,
                           regret_cum=floats, oracle_arm=ints, switch=ints)
        assert steps_csv(led) == oracles.steps_csv_rows(led)
        assert phases_csv([]) == oracles.phases_csv_rows([])
        assert phases_csv([]) == "k,n_pairs,delta_S,kl_hat,accepted,beta,eps_s,delta_H\n"


class TestCheckpointSlope:
    def test_linear_growth_has_unit_slope(self):
        cum = np.cumsum(np.full(400, 2.0))
        assert abs(_checkpoint_slope(cum) - 1.0) < 1e-9

    def test_short_runs_give_none(self):
        assert _checkpoint_slope(np.array([1.0, 2.0, 3.0])) is None

    def test_nonpositive_checkpoint_gives_none(self):
        assert _checkpoint_slope(np.zeros(40)) is None


class TestAtlasLedger:
    def test_mapping(self, monkeypatch):
        # every proposal of round 2 fails: its scorer raises a solver error
        real = islands.make_episode_scorer

        def failing_scorer(cfg, seed):
            score = real(cfg, seed)

            def scorer(cands, round_idx):
                if round_idx == 2:
                    raise np.linalg.LinAlgError("singular ridge matrix")
                return score(cands, round_idx)
            return scorer

        monkeypatch.setattr(islands, "make_episode_scorer", failing_scorer)
        cfg = RunConfig(mode="atlas", K=3, d=3, rounds=4, phase_length=2, islands=2,
                        proposals_per_island=2, eval_horizon=40, eval_episodes=1)
        res = islands.run_island_search(cfg, seed=0)
        led = res.ledger
        assert [e.failure for e in res.entries] == [e.round == 2 for e in res.entries]
        assert np.array_equal(led.t, np.array([1, 2, 3, 4]))
        assert np.array_equal(led.phase, np.array([1, 1, 2, 2]))
        assert np.array_equal(led.bias, np.zeros(4))
        for r in (1, 3, 4):
            top = max((e for e in res.entries if e.round == r),
                      key=lambda e: (e.score, -e.index))
            assert led.regret_step[r - 1] == -top.score
            assert led.oracle_arm[r - 1] == top.anchor
        # the failed round carries nan and anchor -1, and does not advance
        # the cumulative column
        assert math.isnan(led.regret_step[1]) and math.isnan(led.error[1])
        assert led.oracle_arm[1] == -1
        assert led.regret_cum[1] == led.regret_cum[0] == led.regret_step[0]
        assert led.regret_cum[3] == (led.regret_cum[0] + led.regret_step[2]) + led.regret_step[3]
        # a switch marks a change of best anchor; -1 differs from every anchor
        assert np.array_equal(led.switch, np.array(
            [0, 1, 1, int(led.oracle_arm[3] != led.oracle_arm[2])]))


class TestSem:
    def test_matches_ddof_one(self):
        vals = [1.0, 2.0, 4.0]
        want = float(np.std(np.asarray(vals), ddof=1) / np.sqrt(3))
        assert abs(_sem(vals) - want) < 1e-15

    def test_singleton_is_zero(self):
        assert _sem([3.0]) == 0.0


EVO_CFG = """\
mode = evodpo
K = 3
d = 3
H = 60
delta_min = 0.05
delta_max = 0.2
V_T = 1000000
seeds = 0..1
"""


class TestExecuteRun:
    def test_preference_run_emits_expected_files(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(EVO_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        for seed in (0, 1):
            assert (out / f"evodpo_seed{seed}_steps.csv").is_file()
            assert (out / f"evodpo_seed{seed}_phases.csv").is_file()
        summary = json.loads((out / "evodpo_summary.json").read_text())
        assert summary["mode"] == "evodpo"
        assert summary["seeds"] == [0, 1]
        assert len(summary["final_metric_per_seed"]) == 2
        assert summary["mean"] == pytest.approx(
            np.mean(summary["final_metric_per_seed"]))
        assert "sem" in summary and "slope_exponent" in summary

    def test_accept_rate_recomputable_from_phase_csvs(self, tmp_path):
        cfg = RunConfig(mode="evodpo", K=3, d=3, H=60, seeds=(0, 1, 2),
                        drift_mode="frozen", eps_s=0.0, delta_H=1e9)
        out = tmp_path / "out"
        execute_run(cfg, out)
        summary = json.loads((out / "evodpo_summary.json").read_text())
        accepted = gated = 0
        for seed in (0, 1, 2):
            lines = (out / f"evodpo_seed{seed}_phases.csv").read_text().strip()
            for row in lines.split("\n")[1:]:
                fields = row.split(",")
                if int(fields[1]) > 0:  # skipped phases carry zero pairs
                    gated += 1
                    accepted += int(fields[4])
        assert gated > 0
        assert summary["accept_rate"] == pytest.approx(accepted / gated)

    def test_reward_bandit_run(self, tmp_path):
        cfg = RunConfig(mode="reward-bandit", K=4, d=3, H=120, seeds=(0, 1),
                        window_size=16)
        out = tmp_path / "out"
        execute_run(cfg, out)
        summary = json.loads((out / "reward-bandit_summary.json").read_text())
        assert summary["accept_rate"] is None
        steps = (out / "reward-bandit_seed0_steps.csv").read_text()
        assert len(steps.strip().split("\n")) == 121
        phases = (out / "reward-bandit_seed0_phases.csv").read_text()
        assert phases.strip().split("\n") == [
            "k,n_pairs,delta_S,kl_hat,accepted,beta,eps_s,delta_H"
        ]

    def test_atlas_run(self, tmp_path):
        cfg = RunConfig(mode="atlas", K=3, d=3, rounds=20, phase_length=10,
                        islands=2, proposals_per_island=1, eval_horizon=60,
                        eval_episodes=1, top_s=3, seeds=(0,))
        out = tmp_path / "out"
        execute_run(cfg, out)
        summary = json.loads((out / "atlas_summary.json").read_text())
        assert summary["mode"] == "atlas"
        steps = (out / "atlas_seed0_steps.csv").read_text()
        assert len(steps.strip().split("\n")) == 21
        phases = (out / "atlas_seed0_phases.csv").read_text()
        assert len(phases.strip().split("\n")) >= 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = RunConfig(mode="evodpo", K=3, d=3, H=60, seeds=(0,))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        execute_run(cfg, out_a)
        execute_run(cfg, out_b)
        for name in ("evodpo_seed0_steps.csv", "evodpo_seed0_phases.csv",
                     "evodpo_summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestExecuteVerify:
    def test_verify_subcommand_emits_reports(self, tmp_path):
        cfg_file = tmp_path / "verify.cfg"
        cfg_file.write_text("mode = verify\ntrials = 40\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_file), "--out", str(out)]) == 0
        payload = json.loads((out / "verify_reports.json").read_text())
        assert [c["lemma_id"] for c in payload["checks"]] == [
            "kl-perturbation", "switching-budget", "local-variation",
            "self-normalized", "estimation-error",
        ]
        assert all(c["passed"] for c in payload["checks"])
        lines = (out / "verify_summary.csv").read_text().strip().split("\n")
        assert lines[0] == ("check,trials,violations,excluded,max_ratio,"
                            "violation_rate,allowed_rate,passed")
        assert len(lines) == 6


class TestExecuteReport:
    def make_summaries(self, tmp_path):
        out = tmp_path / "runs"
        execute_run(RunConfig(mode="evodpo", K=3, d=3, H=60, seeds=(0,)), out)
        execute_run(RunConfig(mode="fixed-ref", K=3, d=3, H=60, seeds=(0,)), out)
        return [str(out / "evodpo_summary.json"),
                str(out / "fixed-ref_summary.json")]

    def test_aggregates_rows(self, tmp_path, capsys):
        paths = self.make_summaries(tmp_path)
        out = tmp_path / "rep"
        assert execute_report(paths, out) == 0
        table = (out / "report.csv").read_text()
        lines = table.strip().split("\n")
        assert lines[0] == "mode,n_seeds,final_mean,final_sem,slope_exponent,accept_rate"
        assert len(lines) == 3
        assert lines[1].startswith("evodpo,1,")
        assert lines[2].startswith("fixed-ref,1,")
        # the fixed-reference variant has no accept rate: empty cell
        assert lines[2].endswith(",")
        assert capsys.readouterr().out == table

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match="no_such.json"):
            execute_report([str(tmp_path / "no_such.json")], tmp_path)

    def test_unparseable_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(ConfigError, match="unparseable"):
            execute_report([str(bad)], tmp_path)

    def test_missing_keys_listed(self, tmp_path):
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps({"mode": "evodpo", "seeds": [0]}))
        with pytest.raises(ConfigError, match="mean"):
            execute_report([str(bad)], tmp_path)

    def test_no_paths_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            execute_report([], tmp_path)

    def test_null_statistics_give_empty_cells(self, tmp_path, monkeypatch, capsys):
        # an atlas run whose proposals all fail has a nan final metric, which
        # its summary writes as null
        def failing_scorer(cfg, seed):
            def scorer(cands, round_idx):
                raise np.linalg.LinAlgError("singular ridge matrix")
            return scorer

        monkeypatch.setattr(islands, "make_episode_scorer", failing_scorer)
        cfg = RunConfig(mode="atlas", K=3, d=3, rounds=4, phase_length=2, islands=2,
                        proposals_per_island=1, eval_horizon=40, eval_episodes=1,
                        seeds=(0, 1))
        execute_run(cfg, tmp_path / "runs")
        path = tmp_path / "runs" / "atlas_summary.json"
        summary = json.loads(path.read_text())
        assert summary["mean"] is None and summary["sem"] is None
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == 0
        assert capsys.readouterr() == (
            "mode,n_seeds,final_mean,final_sem,slope_exponent,accept_rate\n"
            "atlas,2,,,,\n", "")

    @pytest.mark.parametrize("key, value", [
        ("seeds", 3), ("mode", 7), ("mean", "0.5"), ("sem", [0.1]),
        ("slope_exponent", True), ("accept_rate", {}), ("mean", 10 ** 400), ("mode", "a,b"),
    ], ids=["seeds-int", "mode-int", "mean-str", "sem-list", "slope-bool",
            "rate-object", "mean-overflows", "mode-unknown"])
    def test_wrong_typed_field_exits_two(self, tmp_path, capsys, key, value):
        data = {"mode": "evodpo", "seeds": [0], "final_metric_per_seed": [0.5],
                "mean": 0.5, "sem": 0.0, "slope_exponent": None, "accept_rate": None}
        data[key] = value
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "rep"
        assert main(["report", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: summary file {path}: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_non_object_summary_exits_two(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text("[1, 2]")
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == f"error: summary file {path}: not a JSON object\n"


class TestMainWiring:
    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "ghost.cfg"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_parse_error_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wat = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_infinite_drift_limit_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("mode = reward-bandit\nH = 50\nseeds = 0\ndelta_max = inf\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, mode", [("noise_scale", "reward-bandit"),
                                           ("lambda_reg", "reward-bandit"),
                                           ("beta", "evodpo")])
    def test_nan_config_value_exits_two_naming_the_key(self, tmp_path, capsys, key, mode):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"mode = {mode}\nH = 50\nseeds = 0\n{key} = nan\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_pi_min_exits_two_naming_the_key(self, tmp_path, capsys):
        # with a zero floor this run's gate once failed on a KL against a
        # reference row with exact zeros, in an error that named no key
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("mode = evodpo\nH = 200\nseeds = 0\npi_min = 0.0\n"
                       "warm_scale = 2000\nwarm_pairs = 400\nbeta = 0.05\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "error: pi_min must lie in (0, 1/K)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_atlas_pi_min_past_the_panel_exits_two_naming_the_key(self, tmp_path, capsys):
        # 0.1 < 1/K = 0.2 passes the config check, but the atlas routing
        # policy is a softmax over the 16-anchor panel, so the floor must
        # stay below 1/16
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("mode = atlas\nK = 5\npi_min = 0.1\nrounds = 2\nseeds = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: pi_min ") and "16" in err
        assert not (tmp_path / "out").exists()

    def test_huge_drift_limit_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("mode = reward-bandit\nH = 50\nseeds = 0\n"
                       "delta_min = 1e300\ndelta_max = 1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "delta_max" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--seeds", "5..2"], "error: bad value for --seeds: seed range '5..2' is empty\n"),
        (["--seeds", "a"], "error: bad value for --seeds: invalid literal for int() "
                           "with base 10: 'a'\n"),
        (["--seed", "-1"], "error: seeds must be nonnegative, got -1\n"),
        (["--seeds", "2,-4"], "error: seeds must be nonnegative, got -4\n"),
        (["--seeds", "0,0"], "error: seeds must be distinct, got [0, 0]\n"),
    ])
    def test_bad_seed_flag_exits_two(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["run"] + flags + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--seeds", "-1..2"], "error: argument --seeds: expected one argument\n"),
        (["run", "--seed", "a"], "error: argument --seed: invalid int value: 'a'\n"),
        ([], "error: the following arguments are required: command\n"),
        (["run", "--bogus"], "error: unrecognized arguments: --bogus\n"),
        # --seed and --seeds both set the seeds, so together they are an error
        (["run", "--seed", "3", "--seeds", "0..1"],
         "error: argument --seeds: not allowed with argument --seed\n"),
        (["verify", "--seeds", "0..1", "--seed", "3"],
         "error: argument --seed: not allowed with argument --seeds\n"),
    ])
    def test_bad_command_line_prints_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                    argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)
        assert not any(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: driftpref run")

    def test_run_with_seed_range(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVO_CFG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--seeds", "5..6",
                     "--out", str(out)])
        assert code == 0
        assert (out / "evodpo_seed5_steps.csv").is_file()
        assert (out / "evodpo_seed6_steps.csv").is_file()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVO_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
        assert (out / "evodpo_seed9_steps.csv").is_file()
        assert not (out / "evodpo_seed0_steps.csv").exists()

    def test_mode_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVO_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--mode", "fixed-ref",
                     "--out", str(out)]) == 0
        assert (out / "fixed-ref_summary.json").is_file()

    def test_bad_mode_override_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVO_CFG)
        assert main(["run", "--config", str(cfg), "--mode", "nonsense",
                     "--out", str(tmp_path)]) == 2
        assert "mode" in capsys.readouterr().err

    @pytest.mark.parametrize("patched, argv, where", [
        ("run_preference_loop", ["run", "--mode", "fixed-ref", "--seeds", "4,7"],
         "fixed-ref seed 4"),
        ("run_standard_checks", ["verify", "--mode", "verify", "--seed", "3"],
         "verify seed 3"),
    ], ids=["run", "verify"])
    def test_solver_failure_exits_three(self, tmp_path, capsys, monkeypatch,
                                        patched, argv, where):
        def fail(cfg, seed):
            raise ConvergenceError("window logistic fit did not converge",
                                   np.zeros(2), 0.25)

        monkeypatch.setattr(f"driftpref.cli.{patched}", fail)
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {where}: window logistic fit did not converge "
            "(residual grad norm 2.500e-01)\n")

    def test_singular_ridge_matrix_exits_three_naming_the_key(self, tmp_path, capsys):
        # the real kernel, unpatched: lambda_reg = 1e-17 passes the config
        # check (> 0), but the sliding window's ridge matrix turns singular
        cfg = tmp_path / "ridge.cfg"
        cfg.write_text("mode = reward-bandit\nH = 100\nlambda_reg = 1e-17\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", "error: reward-bandit: a ridge matrix turned singular; lambda_reg = 1e-17 "
                "is too small to keep it invertible\n")
        assert not out.exists()

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "runs"
        execute_run(RunConfig(mode="evodpo", K=3, d=3, H=60, seeds=(0,)), out)
        capsys.readouterr()
        code = main(["report", str(out / "evodpo_summary.json"),
                     "--out", str(tmp_path / "rep")])
        assert code == 0
        assert (tmp_path / "rep" / "report.csv").is_file()


class TestWriteText:
    def test_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "nest" / "file.txt"
        write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_unwritable_path_raises_config_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(ConfigError, match="cannot write"):
            write_text(blocker / "child.txt", "x")
