"""CLI contract: exit codes, output files, round-trips, figure determinism."""

import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import altmerge.cli as cli
from altmerge.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNINGS, main
from conftest import SCENARIO_DIR

SCENARIO = str(SCENARIO_DIR / "lane_merge.json")


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_successful_run_writes_three_files(self, tmp_path):
        status = run_cli(
            "run", "--scenario", SCENARIO, "--strategy", "reward-gain",
            "--steps", "4", "--out", str(tmp_path / "out"),
        )
        assert status == EXIT_OK
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "belief.jsonl").exists()
        assert (out / "summary.json").exists()

    def test_trace_schema_is_stable(self, tmp_path):
        run_cli("run", "--scenario", SCENARIO, "--steps", "3", "--out", str(tmp_path))
        with (tmp_path / "trace.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == [
            "step", "vehicle", "x", "y", "v", "theta", "accel", "steer", "cell_i", "cell_j",
        ]
        assert {row["vehicle"] for row in rows} == {"leader", "follower"}
        assert len(rows) == 2 * 3

    def test_summary_roundtrips_with_belief_log(self, tmp_path):
        run_cli("run", "--scenario", SCENARIO, "--steps", "4", "--out", str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        logged = [
            json.loads(line)["chosen_cell"]
            for line in (tmp_path / "belief.jsonl").read_text().splitlines()
        ]
        assert summary["chosen_cells"] == logged

    def test_module_runs_as_a_script(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "altmerge.cli", "run", "--scenario", SCENARIO,
             "--steps", "1", "--out", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith(f"{tmp_path / 'o'}: outcome=")
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["steps"] == 1

    def test_conflict_aware_flag_reaches_the_summary(self, tmp_path):
        status = run_cli("run", "--scenario", SCENARIO, "--steps", "1", "--conflict-aware",
                         "--out", str(tmp_path))
        assert status == EXIT_OK
        assert json.loads((tmp_path / "summary.json").read_text())["conflict_aware"] is True

    def test_missing_scenario_exits_one(self, tmp_path, capsys):
        status = run_cli(
            "run", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path),
        )
        assert status == EXIT_ERROR

    def test_nan_weight_exits_one(self, tmp_path, capsys):
        data = json.loads(Path(SCENARIO).read_text())
        data["weights"]["merge_ahead"]["give_way"]["leader"][2] = float("nan")
        bad = tmp_path / "nan_weight.json"
        bad.write_text(json.dumps(data))
        status = run_cli("run", "--scenario", str(bad), "--steps", "2", "--out", str(tmp_path / "o"))
        assert status == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]

    def _assert_one_error_line(self, status, capsys, word):
        assert status == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and word in err[0]

    @pytest.mark.parametrize("flag, value, word", [
        ("--steps", "0", "episode_steps must be at least 1"),
        ("--alpha", "1.5", "alpha"),
        ("--lambda", "nan", "lambda"),
    ], ids=["steps", "alpha", "lambda"])
    def test_override_error_names_the_scenario(self, tmp_path, capsys, flag, value, word):
        status = run_cli("run", "--scenario", SCENARIO, flag, value, "--out", str(tmp_path / "o"))
        assert status == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {SCENARIO}: ") and word in err[0]
        assert not (tmp_path / "o" / "belief.jsonl").exists()

    @pytest.mark.parametrize("path, value, word", [
        (("strategy", "lambda"), float("nan"), "lambda"),
        (("observation_temperature",), float("inf"), "observation_temperature"),
        (("dt",), float("nan"), "dt"),
        (("episode_steps",), "abc", "episode_steps"),
        (("episode_steps",), float("inf"), "episode_steps"),  # how JSON reads 1e400
        (("horizon_steps",), 2.5, "horizon_steps"),
        (("weights",), [], "weights"),
        (("weights", "probe"), [], "probe"),
        (("game", "rewards", 0, 0, 0), "abc", "rewards"),
        (("game", "rewards", 0, 0, 0), float("nan"), "rewards"),
        (("game", "rewards", 0, 0), [3], "rewards"),
        (("game", "alpha_leader"), "0.5", "alpha_leader"),
        (("game", "leader_actions"), 5, "leader_actions"),
        (("true_alpha",), "abc", "true_alpha"),
        (("vehicle", "wheelbase"), float("nan"), "wheelbase"),
        (("feature_params", "lambda_x"), float("nan"), "lambda_x"),
        (("feature_params", "lambda_x"), True, "feature_params.lambda_x"),
        (("feature_params", "lambda_x"), "abc", "feature_params.lambda_x"),
        (("vehicle", "wheelbase"), True, "vehicle.wheelbase"),
        # integers past the float range, which JSON keeps exact
        pytest.param(("dt",), 10**400, "dt", id="dt_huge_int"),
        pytest.param(("true_alpha",), 10**400, "true_alpha", id="true_alpha_huge_int"),
        pytest.param(("feature_params", "lambda_x"), -10**400, "feature_params.lambda_x",
                     id="lambda_x_huge_int"),
        # values of the right type that the scenario's own checks reject
        pytest.param(("game", "rewards"), [[[3, -2], [-10, 3]]],
                     "game: reward grid row count does not match leader actions", id="reward_rows"),
        pytest.param(("game", "rewards"), [[[3, -2]], [[0, -2]], [[2, 0]]],
                     "game: reward grid column count does not match follower actions",
                     id="reward_columns"),
        pytest.param(("game", "leader_actions"), [],
                     "game: game needs at least one action per player", id="no_leader_actions"),
        pytest.param(("game", "outcome_labels"), [],
                     "game: give either 'rewards' or 'outcome_labels', not both",
                     id="rewards_and_labels"),
        pytest.param(("game",), {"leader_actions": ["a"], "follower_actions": ["b"]},
                     "game: needs 'rewards' or 'outcome_labels'", id="no_rewards_or_labels"),
        pytest.param(("initial_states", "leader", "v"), -1,
                     "initial_states.leader: speed must be nonnegative", id="negative_speed"),
        pytest.param(("feature_params", "vehicle_width"), 0,
                     "feature_params: vehicle dimensions must be positive", id="vehicle_width"),
        pytest.param(("feature_params", "width_margin"), -3,
                     "feature_params: lateral ellipse axis must be positive", id="width_margin"),
        pytest.param(("feature_params", "length_margin"), -10,
                     "feature_params: longitudinal ellipse axis must be positive",
                     id="length_margin"),
        pytest.param(("dt",), 0, "dt must be positive and finite, got 0.0", id="dt_zero"),
        pytest.param(("observation_temperature",), 0,
                     "observation_temperature must be positive and finite, got 0.0",
                     id="temperature_zero"),
        pytest.param(("follower_mode",), "bogus", "unknown follower_mode 'bogus'",
                     id="follower_mode"),
    ])
    def test_non_finite_scenario_number_exits_one(self, tmp_path, capsys, path, value, word):
        status = self._run_with_value(tmp_path, path, value)
        self._assert_one_error_line(status, capsys, word)

    @pytest.mark.parametrize("path, value, word", [
        (("dt",), 1e308, "non-finite state"),
        # an action's total, or a likelihood logit, would leave the float range
        (("strategy", "lambda"), 1e308, "lambda"),
        (("observation_temperature",), 1e-320, "temperature"),
        (("feature_params", "lambda_x"), -1e308, "lambda_x"),
        (("horizon_steps",), 1e12, "horizon"),
        (("horizon_steps",), 1e308, "horizon"),
        (("horizon_steps",), 101, "horizon"),
    ])
    def test_extreme_finite_scenario_number_exits_one(self, tmp_path, capsys, path, value, word):
        status = self._run_with_value(tmp_path, path, value)
        self._assert_one_error_line(status, capsys, word)

    def test_scenario_check_names_the_file(self, tmp_path, capsys):
        status = self._run_with_value(tmp_path, ("episode_steps",), 0)
        self._assert_one_error_line(status, capsys, f"{tmp_path / 'mutated.json'}: episode_steps")

    @pytest.mark.parametrize("changes, quantity", [
        # caught when the scenario is read: a negative penalty rate
        ({("feature_params", "lambda_x"): -1e308},
         "feature_params: lambda_x must be nonnegative, got -1e+308"),
        # caught when the scenario is read: an ellipse axis whose sum leaves the float range
        ({("feature_params", "vehicle_width"): 1.7e308,
          ("feature_params", "width_margin"): 1.7e308},
         "feature_params: lateral ellipse axis must be positive and finite"),
        # caught when the episode ends: the lead is past the float range, so no summary
        ({("initial_states", "leader", "y"): 1e308, ("initial_states", "follower", "y"): -1e308},
         "the final relative position is past the float range"),
    ], ids=["lambda_x", "ellipse_axis", "relative_position"])
    def test_overflow_names_the_quantity(self, tmp_path, capsys, changes, quantity):
        status = self._run_with_values(tmp_path, changes, steps=3, plots=True)
        self._assert_one_error_line(status, capsys, quantity)
        assert not [path for path in (tmp_path / "o").glob("*") if path.is_file()]

    def test_non_finite_leader_cost_names_the_cell(self, tmp_path, capsys):
        # a leader speed weight of 1e308 sums to inf over the horizon, in every cell
        weights = json.loads(Path(SCENARIO).read_text())["weights"]
        status = self._run_with_values(tmp_path, {
            ("weights", row, column, "leader", 2): 1e308
            for row, cells in weights.items() for column in cells
        }, steps=2)
        self._assert_one_error_line(
            status, capsys, f"{tmp_path / 'mutated.json'}: cell (probe, give_way): "
                            "the winning leader cost is not finite: inf")

    @pytest.mark.parametrize("changes", [
        {("vehicle", "accel_max"): 1e308},
        {("initial_states", "follower", "y"): 1e308},
        {("dt",): 1e150},
        # x - x_left overflows to inf; a zero rate must still score 0.0, not 0 * inf = NaN
        {("feature_params", "lambda_x"): 0, ("feature_params", "x_left"): -1e308,
         ("initial_states", "follower", "x"): 1e308},
        # finite lateral positions whose span passes the float range
        {("initial_states", "leader", "x"): 1e308, ("initial_states", "follower", "x"): -1e308},
        # one plotted value on an axis, where adding 1.0 to widen its span changes nothing
        {("initial_states", "leader", "y"): 1e308, ("initial_states", "follower", "y"): 1e308},
        # lanes whose width, and so the drawn outer lane edges, pass the float range
        {("feature_params", "x_left"): -1e308, ("feature_params", "x_right"): 1e308},
        # a row whose |expected reward| + bonus, the bar chart's scale, passes the float range
        {("game", "rewards"): [[[-1.5e308, 1e308], [-1e308, 0]], [[0, 1e308], [1e308, 0]],
                               [[0, 0], [0, 0]]]},
    ], ids=["accel_max", "follower_y", "dt", "zero_rate", "lateral", "flat_axis", "wide_lanes",
            "huge_rewards"])
    def test_vehicles_far_apart_run_to_strict_json(self, tmp_path, changes):
        # the safety ellipse scores 0.0 at any distance, so nothing overflows
        assert self._run_with_values(tmp_path, changes, steps=5, plots=True) == EXIT_OK

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "o"
        lines = (out / "belief.jsonl").read_text().splitlines()
        assert len(lines) == 5
        for text in [*lines, (out / "summary.json").read_text()]:
            json.loads(text, parse_constant=reject)
        svgs = list(out.glob("*.svg"))
        assert len(svgs) == 4
        assert not [svg for svg in svgs if re.search("nan|inf", svg.read_text())]

    @pytest.mark.parametrize("path, value, message", [
        (("horizon_step",), 10, "mutated.json: unknown key 'horizon_step'"),
        (("strategy", "conflict_awre"), True, "strategy: unknown key 'conflict_awre'"),
        (("strategy", "positive_gain_only"), True, "strategy: unknown key 'positive_gain_only'"),
        (("strategy", "conflict_aware"), "false", "strategy.conflict_aware: expected true or false"),
        (("game", "reward"), [], "game: unknown key 'reward'"),
        (("initial_states", "leeder"), {}, "initial_states: unknown key 'leeder'"),
        (("initial_states", "leader", "vx"), 1.0, "initial_states.leader: unknown key 'vx'"),
        (("weights", "probe", "give_way", "leeder"), [0] * 6,
         "weights['probe']['give_way']: unknown key 'leeder'"),
        (("feature_params", "lambda_v"), -0.5, "feature_params: lambda_v must be nonnegative"),
        (("feature_params", "curvature"), 2.0, "feature_params: unknown key 'curvature'"),
        (("vehicle", "mass"), 1500, "vehicle: unknown key 'mass'"),
        (("weights", "prob"), {}, "weights: unknown key 'prob'"),
        (("weights", "merge_ahead", "give_wayy"), {},
         "weights['merge_ahead']: unknown key 'give_wayy'"),
        (("game", "leader_actions"), ["merge_ahead", "probe", "probe"],
         "game.leader_actions: duplicate action name 'probe'"),
        (("game", "follower_actions"), ["give_way", "give_way"],
         "game.follower_actions: duplicate action name 'give_way'"),
        (("name",), None, "mutated.json: name: expected a string, got None"),
        (("name",), 5, "mutated.json: name: expected a string, got 5"),
        (("name",), ["a"], "mutated.json: name: expected a string, got ['a']"),
        (("description",), 5, "mutated.json: description: expected a string, got 5"),
        (("game", "rewards"), 5, "mutated.json: game.rewards: expected a list of rows"),
    ], ids=["horizon_step", "conflict_awre", "positive_gain_only", "conflict_aware_string",
            "game", "initial_states", "state", "weight_cell", "lambda_v", "feature_param",
            "vehicle", "weights_row", "weights_cell", "leader_actions", "follower_actions",
            "name_null", "name_number", "name_list", "description", "rewards_not_a_list"])
    def test_misspelled_or_mistyped_key_exits_one(self, tmp_path, capsys, path, value, message):
        status = self._run_with_value(tmp_path, path, value)
        self._assert_one_error_line(status, capsys, message)

    def _run_with_value(self, tmp_path, path, value):
        """Run one step of the shipped scenario with the value at ``path`` replaced."""
        return self._run_with_values(tmp_path, {path: value})

    def _run_with_values(self, tmp_path, changes, steps=1, plots=False):
        """Run ``steps`` steps of the shipped scenario with each path's value replaced."""
        data = json.loads(Path(SCENARIO).read_text())
        for path, value in changes.items():
            *parents, key = path
            target = data
            for parent in parents:
                target = target[parent]
            target[key] = value
        bad = tmp_path / "mutated.json"
        bad.write_text(json.dumps(data))
        return run_cli("run", "--scenario", str(bad), "--steps", str(steps),
                       "--out", str(tmp_path / "o"), *["--plots"] * plots)

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        status = run_cli("run", "--scenario", SCENARIO, "--steps", "1", "--out", str(taken))
        self._assert_one_error_line(status, capsys, str(taken))

    def test_missing_state_key_is_reported_once(self, tmp_path, capsys):
        data = json.loads(Path(SCENARIO).read_text())
        del data["initial_states"]["follower"]["y"]
        bad = tmp_path / "f.json"
        bad.write_text(json.dumps(data))
        status = run_cli("run", "--scenario", str(bad), "--steps", "1", "--out", str(tmp_path / "o"))
        assert status == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {bad}: initial_states.follower: missing required key 'y'\n"
        )

    def test_invalid_scenario_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "game": [\n}\n')
        status = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o"))
        assert status == EXIT_ERROR
        assert "bad.json:3" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"[" * 100_000 + b"]" * 100_000,
        b"\xff\xfe{}",
        b"1" * 5000,
    ], ids=["nested_too_deeply", "not_utf8", "too_many_digits"])
    def test_unreadable_scenario_names_the_file(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        status = run_cli("run", "--scenario", str(bad), "--steps", "1", "--out", str(tmp_path / "o"))
        self._assert_one_error_line(status, capsys, f"error: {bad}: ")

    def test_sweep_creates_run_directories(self, tmp_path):
        status = run_cli(
            "run", "--scenario", SCENARIO,
            "--alpha", "0.2,0.9",
            "--strategy", "passive,info-gain,reward-gain",
            "--steps", "2", "--out", str(tmp_path),
        )
        assert status == EXIT_OK
        dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert dirs == [
            "alpha0.2_info-gain", "alpha0.2_passive", "alpha0.2_reward-gain",
            "alpha0.9_info-gain", "alpha0.9_passive", "alpha0.9_reward-gain",
        ]
        for directory in dirs:
            assert (tmp_path / directory / "summary.json").exists()

    @pytest.mark.parametrize("flag,value,shared", [
        ("--alpha", "0.2,0.2000001", "alpha0.2_passive"),
        ("--strategy", "info-gain,passive,passive", "alpha0.9_passive"),
    ])
    def test_sweep_runs_sharing_a_directory_exit_one(self, tmp_path, capsys, flag, value,
                                                      shared):
        sweep = {"--alpha": "0.9", "--strategy": "passive", flag: value}
        status = run_cli("run", "--scenario", SCENARIO, "--alpha", sweep["--alpha"],
                         "--strategy", sweep["--strategy"], "--steps", "2",
                         "--out", str(tmp_path / "out"))
        assert status == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(tmp_path / "out" / shared) in err
        assert not (tmp_path / "out").exists()  # rejected before any episode runs

    def test_warning_runs_exit_two(self, tmp_path, monkeypatch):
        import altmerge.sim as sim
        from altmerge.belief import BeliefContradictionError

        original = sim.bayes_update
        calls = {"n": 0}

        def explode_once(*args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise BeliefContradictionError("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(sim, "bayes_update", explode_once)
        status = run_cli("run", "--scenario", SCENARIO, "--steps", "3", "--out", str(tmp_path))
        assert status == EXIT_WARNINGS

    def test_unknown_strategy_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--scenario", SCENARIO, "--strategy", "greedy", "--out", str(tmp_path))
        self._assert_one_error_line(exit_info.value.code, capsys, "greedy")

    @pytest.mark.parametrize("flag, value", [
        ("--steps", "abc"), ("--seed", "3"), ("--alpha", ","), ("--alpha", "abc"),
        ("--strategy", ","),
    ])
    def test_bad_flag_exits_one(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--scenario", SCENARIO, flag, value, "--out", str(tmp_path))
        self._assert_one_error_line(exit_info.value.code, capsys, flag)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "-h")
        assert exit_info.value.code == EXIT_OK


class TestPlot:
    def test_plot_emits_four_svgs(self, tmp_path):
        run_cli("run", "--scenario", SCENARIO, "--steps", "3", "--out", str(tmp_path))
        assert run_cli("plot", str(tmp_path)) == EXIT_OK
        names = {p.name for p in tmp_path.glob("*.svg")}
        assert names == {"trajectory.svg", "relative_position.svg", "belief.svg", "bonuses.svg"}

    def test_plot_flag_equivalent(self, tmp_path):
        status = run_cli(
            "run", "--scenario", SCENARIO, "--steps", "3",
            "--out", str(tmp_path), "--plots",
        )
        assert status == EXIT_OK
        assert len(list(tmp_path.glob("*.svg"))) == 4

    def test_missing_run_directory_exits_one(self, tmp_path, capsys):
        assert cli.plot(tmp_path / "void") == EXIT_ERROR

    def test_empty_trace_exits_one(self, tmp_path, capsys):
        (tmp_path / "trace.csv").write_text("step,vehicle\n")
        assert cli.plot(tmp_path) == EXIT_ERROR

    @pytest.mark.parametrize("name, content", [
        ("belief.jsonl", "{}\n"),
        ("belief.jsonl", "not json\n"),
        ("trace.csv", "a,b\n1,2\n"),
        ("summary.json", None),
        ("summary.json", "{}"),
        # a non-finite number, in place of the first one that a pattern matches
        ("trace.csv", (r"(?m)^0,leader,[^,]+", "0,leader,inf")),
        ("trace.csv", (r"(?m)^0,follower,([^,]+),[^,]+", r"0,follower,\1,-inf")),
        ("belief.jsonl", (r'"masses": \[[^,]+', '"masses": [NaN')),
        ("belief.jsonl", (r'"bonus": [^,]+', '"bonus": 1e400')),
        ("summary.json", (r'"x_left": [^,]+', '"x_left": -Infinity')),
        ("summary.json", (r'"x_right": [^,\n]+', '"x_right": 1' + "0" * 400)),
        # finite coordinates whose plotted gap, leader y - follower y, is past the float range
        ("trace.csv", (r"(?m)^0,leader,([^,]+),[^,]+(,.*\n0,follower,[^,]+),[^,]+",
                       r"0,leader,\1,1e308\2,-1e308")),
        ("belief.jsonl", "[" * 200_000 + "]" * 200_000 + "\n"),
        ("summary.json", "[" * 200_000 + "]" * 200_000),
    ], ids=["belief_record", "belief_json", "trace_header", "summary_missing", "summary_keys",
            "trace_x_inf", "trace_y_inf", "belief_mass_nan", "belief_bonus_overflow",
            "summary_lane_inf", "summary_lane_huge_int", "trace_gap_overflow",
            "belief_nested_too_deeply", "summary_nested_too_deeply"])
    def test_malformed_run_file_exits_one(self, tmp_path, capsys, name, content):
        run_cli("run", "--scenario", SCENARIO, "--steps", "2", "--out", str(tmp_path))
        capsys.readouterr()
        target = tmp_path / name
        if content is None:
            target.unlink()
        elif isinstance(content, tuple):
            text = target.read_text()
            edited = re.sub(*content, text, count=1)
            assert edited != text
            target.write_text(edited)
        else:
            target.write_text(content)
        assert cli.plot(tmp_path) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {target}")
        assert not list(tmp_path.glob("*.svg"))

    def test_unwritable_figure_exits_one(self, tmp_path, capsys):
        run_cli("run", "--scenario", SCENARIO, "--steps", "2", "--out", str(tmp_path))
        (tmp_path / "belief.svg").mkdir()
        capsys.readouterr()
        assert cli.plot(tmp_path) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "belief.svg" in err[0]
        # the figures written before the failed one stay
        assert {p.name for p in tmp_path.glob("*.svg") if p.is_file()} == {
            "trajectory.svg", "relative_position.svg"}

    def test_run_reports_an_unwritable_figure(self, tmp_path, capsys):
        (tmp_path / "belief.svg").mkdir(parents=True)
        status = run_cli("run", "--scenario", SCENARIO, "--steps", "2", "--out", str(tmp_path),
                         "--plots")
        assert status == EXIT_ERROR
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "belief.svg" in err[0]
        assert captured.out == ""

    def test_svgs_byte_identical_for_identical_traces(self, tmp_path):
        for name in ("a", "b"):
            run_cli("run", "--scenario", SCENARIO, "--steps", "3", "--out", str(tmp_path / name))
            cli.plot(tmp_path / name)
        for svg in ("trajectory.svg", "relative_position.svg", "belief.svg", "bonuses.svg"):
            assert (tmp_path / "a" / svg).read_bytes() == (tmp_path / "b" / svg).read_bytes()


def _paths(node, prefix=()):
    """The path of every key and list entry below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    paths = []
    for key, child in children:
        paths.append(prefix + (key,))
        if isinstance(child, (dict, list)):
            paths += _paths(child, prefix + (key,))
    return paths


SHIPPED = {name: json.loads((SCENARIO_DIR / name).read_text())
           for name in ("lane_merge.json", "lane_merge_responsibility.json")}
DELETE = object()
MUTATIONS = (DELETE, "x", None, True, [], {}, [[]], float("nan"), float("inf"), float("-inf"),
             -1, -2.5, 0, 1e308, -1e308, 10**400)


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one to three values deleted or replaced."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    data = json.loads(json.dumps(SHIPPED[name]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_paths(data)))
        *parents, key = path
        target = data
        for parent in parents:
            target = target[parent]
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation is DELETE:
            del target[key]
        else:
            target[key] = copy.deepcopy(mutation)
    return data


class TestScenarioMutation:
    @settings(max_examples=60, deadline=None)
    @given(mutated_scenarios())
    def test_mutated_scenario_never_raises(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.json"
            path.write_text(json.dumps(data))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                status = run_cli("run", "--scenario", str(path), "--steps", "1",
                                 "--out", str(Path(tmp) / "o"))
        assert status in (EXIT_OK, EXIT_ERROR, EXIT_WARNINGS)
        if status == EXIT_ERROR:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
