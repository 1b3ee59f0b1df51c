"""Scenario handling, observation model, and closed-loop episode behaviour."""

import copy
import dataclasses
import json
import math
import pickle
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import pytest

import altmerge.sim as sim
from altmerge.belief import BeliefContradictionError
from altmerge.dynamics import (N_FEATURES, BicycleParams, Control, FeatureParams, VehicleState,
                               cost, step)
from altmerge.explore import ExplorationStrategy, StrategyKind
from altmerge.game import OutcomeLabel, _finite
from altmerge.planner import MAX_HORIZON, PlanRequest, bilevel_plan, follower_plan
from altmerge.sim import (
    Scenario,
    ScenarioError,
    load_scenario,
    observation_likelihoods,
    parse_scenario,
    run_conflict_experiment,
    run_episode,
)
from conftest import SCENARIO_DIR


@pytest.fixture(scope="module")
def lane_scenario() -> Scenario:
    return load_scenario(SCENARIO_DIR / "lane_merge.json")


@pytest.fixture(scope="module")
def responsibility_scenario() -> Scenario:
    return load_scenario(SCENARIO_DIR / "lane_merge_responsibility.json")


def short(scenario: Scenario, steps=6, **overrides) -> Scenario:
    return dataclasses.replace(scenario, episode_steps=steps, **overrides)


class TestObservationLikelihoods:
    def test_shared_weights_give_uniform(self, lane_scenario):
        game = lane_scenario.game
        # merge_behind columns share one weight vector
        liks = observation_likelihoods(
            game, 1, Control(0.5, 0.0),
            lane_scenario.follower_start, lane_scenario.leader_start,
            lane_scenario.weights, lane_scenario.feature_params,
            lane_scenario.bicycle_params, lane_scenario.dt,
        )
        assert liks == pytest.approx((0.5, 0.5))

    def test_softmax_arithmetic_on_unit_logit_gap(self, lane_scenario):
        # two columns with logits (1, 0) must give (e/(e+1), 1/(e+1))
        weights = dict(lane_scenario.weights)
        weights[(1, 0)] = (weights[(1, 0)][0], (0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
        weights[(1, 1)] = (weights[(1, 1)][0], (0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        follower = VehicleState(7.5, 20.0, 10.0, 0.0)  # far ahead: tanh saturates to 1
        leader = VehicleState(2.5, 0.0, 10.0, 0.0)
        liks = observation_likelihoods(
            lane_scenario.game, 1, Control(0.0, 0.0), follower, leader,
            weights, lane_scenario.feature_params, lane_scenario.bicycle_params, 0.2,
        )
        e = math.e
        assert liks == pytest.approx((e / (e + 1), 1 / (e + 1)), abs=1e-6)

    def test_additive_logit_shift_is_invisible(self, lane_scenario):
        game = lane_scenario.game
        base = observation_likelihoods(
            game, 0, Control(-1.0, 0.0),
            lane_scenario.follower_start, lane_scenario.leader_start,
            lane_scenario.weights, lane_scenario.feature_params,
            lane_scenario.bicycle_params, lane_scenario.dt,
        )
        # shifting both columns' lead weight by the same amount shifts both
        # logits equally once tanh saturates; emulate via temperature=1 vs scaled copies
        shifted = dict(lane_scenario.weights)
        for j in (0, 1):
            lw, fw = shifted[(0, j)]
            shifted[(0, j)] = (lw, tuple(fw))
        again = observation_likelihoods(
            game, 0, Control(-1.0, 0.0),
            lane_scenario.follower_start, lane_scenario.leader_start,
            shifted, lane_scenario.feature_params,
            lane_scenario.bicycle_params, lane_scenario.dt,
        )
        assert again == pytest.approx(base)
        assert sum(base) == pytest.approx(1.0)

    @staticmethod
    def _braking_args(scenario):
        """Likelihood arguments for a -2 m/s^2 follower brake from the start states, row 0."""
        return (
            scenario.game, 0, Control(-2.0, 0.0), scenario.follower_start, scenario.leader_start,
            scenario.weights, scenario.feature_params, scenario.bicycle_params, scenario.dt,
        )

    def test_row_out_of_range_is_an_error(self, lane_scenario):
        game, _, *rest = self._braking_args(lane_scenario)
        for row in (-1, 3, 1.5, Fraction(1), True):
            with pytest.raises(ValueError, match=re.escape(f"leader action {row!r} out of bounds")):
                observation_likelihoods(game, row, *rest)

    @pytest.mark.parametrize("fixture", ["lane_scenario", "responsibility_scenario"])
    def test_is_the_softmax_of_the_public_cost(self, request, fixture):
        # each column's logit is cost([step(follower, control, bp, dt)], [leader_next], w_j, fp)
        # over the temperature, and the softmax subtracts the peak and sums in order: bit for bit
        scenario = request.getfixturevalue(fixture)
        game, weights, dt = scenario.game, scenario.weights, scenario.dt
        bp, fp = scenario.bicycle_params, scenario.feature_params
        rng = random.Random(20211)

        def state():
            return VehicleState(rng.uniform(0.0, 10.0), rng.uniform(-30.0, 30.0),
                                rng.uniform(0.0, 20.0), rng.uniform(-0.5, 0.5))

        for row in range(game.n_leader):
            for _ in range(20):
                control = Control(rng.uniform(-bp.accel_max, bp.accel_max),
                                  rng.uniform(-bp.steer_max, bp.steer_max))
                follower, leader_next, temperature = state(), state(), rng.uniform(0.05, 5.0)
                successor = [step(follower, control, bp, dt)]
                logits = [cost(successor, [leader_next], weights[(row, j)][1], fp) / temperature
                          for j in range(game.n_follower)]
                unnormalized = [math.exp(logit - max(logits)) for logit in logits]
                total = 0.0
                for u in unnormalized:
                    total += u
                got = observation_likelihoods(game, row, control, follower, leader_next, weights,
                                              fp, bp, dt, temperature)
                assert [p.hex() for p in got] == [(u / total).hex() for u in unnormalized]

    def test_temperature_softens(self, lane_scenario):
        args = self._braking_args(lane_scenario)
        sharp = observation_likelihoods(*args, temperature=0.5)
        soft = observation_likelihoods(*args, temperature=4.0)
        assert max(soft) < max(sharp)

    def test_overflowing_logits_name_the_temperature(self, lane_scenario):
        args = self._braking_args(lane_scenario)
        with pytest.raises(ValueError, match=r"non-finite logits \(.*\) at temperature 1e-320"):
            observation_likelihoods(*args, temperature=1e-320)

    @pytest.mark.parametrize("temperature", [
        0, -1, math.inf, math.nan,
        pytest.param(10**400, id="int_past_float_range"),
        pytest.param(Fraction(10**400), id="fraction_past_float_range"),
        pytest.param(Fraction(1, 10**400), id="fraction_whose_float_is_0"),
    ])
    def test_rejects_temperature_not_positive_and_finite(self, lane_scenario, temperature):
        args = self._braking_args(lane_scenario)
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            observation_likelihoods(*args, temperature=temperature)


class TestRunEpisode:
    def test_episode_is_deterministic(self, lane_scenario):
        scenario = short(lane_scenario, steps=4)
        assert run_episode(scenario) == run_episode(scenario)

    def test_follower_executes_its_true_response_solve(self, lane_scenario, monkeypatch):
        # at alpha 0.2 the predicted response misses on some steps, not all
        scenario = short(lane_scenario, steps=5, true_alpha=0.2)
        solves = []
        monkeypatch.setattr(sim, "follower_plan", lambda *a: solves.append(a) or follower_plan(*a))
        result = run_episode(scenario)
        misses = [r for r in result.records if r.follower_action != r.chosen_cell[1]]
        assert 0 < len(misses) < len(result.records)
        assert len(solves) == len(misses)
        leader, follower = scenario.leader_start, scenario.follower_start
        for record in result.records:
            leader_w, predicted_w = scenario.weights[record.chosen_cell]
            plan = bilevel_plan(PlanRequest(
                leader, follower, leader_w, predicted_w, scenario.horizon, scenario.dt,
                scenario.feature_params, scenario.bicycle_params,
            ))
            true_w = scenario.weights[(record.chosen_cell[0], record.follower_action)][1]
            expected = follower_plan(follower, leader, plan.leader_controls, true_w, scenario.dt,
                                     scenario.feature_params, scenario.bicycle_params)
            assert record.follower_control == expected[0]
            leader, follower = record.leader_state, record.follower_state

    def test_mass_conserved_every_step(self, lane_scenario):
        result = run_episode(short(lane_scenario, steps=6))
        for record in result.records:
            assert sum(record.belief_masses) == pytest.approx(1.0, abs=1e-9)

    def test_belief_never_excludes_true_alpha(self, lane_scenario):
        for alpha in (0.2, 0.9):
            result = run_episode(short(lane_scenario, steps=8, true_alpha=alpha))
            for record in result.records:
                cells = list(zip(record.belief_breakpoints, record.belief_breakpoints[1:]))
                inside = [
                    m for (lo, hi), m in zip(cells, record.belief_masses)
                    if lo - 1e-9 <= alpha <= hi + 1e-9
                ]
                assert any(m > 0 for m in inside)

    def test_chosen_cells_in_bounds(self, lane_scenario):
        result = run_episode(short(lane_scenario, steps=6))
        game = lane_scenario.game
        for i, j in result.summary.chosen_cells:
            assert 0 <= i < game.n_leader
            assert 0 <= j < game.n_follower

    def test_passive_commits_immediately(self, lane_scenario):
        scenario = short(
            lane_scenario, steps=4, strategy=ExplorationStrategy(StrategyKind.PASSIVE)
        )
        result = run_episode(scenario)
        assert all(cell[0] == 1 for cell in result.summary.chosen_cells)

    def test_summary_matches_records(self, lane_scenario):
        result = run_episode(short(lane_scenario, steps=5))
        assert result.summary.steps == 5
        assert result.summary.chosen_cells == tuple(r.chosen_cell for r in result.records)
        last = result.records[-1]
        assert result.summary.final_relative_position == pytest.approx(
            last.leader_state.y - last.follower_state.y
        )

    def test_a_step_checks_only_what_its_public_calls_take_in(self, lane_scenario, monkeypatch):
        # states, plan requests and posteriors the package made are not checked again, so ten
        # more steps add only the entry checks of the public calls they make
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("altmerge.")]:
            if vars(module).get("_finite") is _finite:
                monkeypatch.setattr(module, "_finite", lambda v: calls.append(v) or _finite(v))
        counts, solves = [], []
        for steps in (10, 20):
            before = len(calls)
            records = run_episode(short(lane_scenario, steps=steps)).records
            counts.append(len(calls) - before)
            solves.append(sum(r.follower_action != r.chosen_cell[1] for r in records))
        columns = lane_scenario.game.n_follower
        # observation_likelihoods: temperature, dt and the row's weight columns; bayes_update:
        # the likelihoods; follower_plan, on a step that calls it: dt and the weights
        per_step, per_solve = 2 + N_FEATURES * columns + columns, 1 + N_FEATURES
        assert counts[1] - counts[0] <= 10 * per_step + per_solve * (solves[1] - solves[0])

    @pytest.mark.parametrize("mode", [sim.FOLLOWER_MODE_FOLLOWER, sim.FOLLOWER_MODE_LEADER])
    def test_true_response_is_solved_once_per_row(self, responsibility_scenario, monkeypatch,
                                                  mode):
        # the simulated follower's response depends only on the game, true_alpha and the mode
        calls = []
        for name in ("follower_best_response", "leader_preference_of_follower"):
            solve = getattr(sim, name)
            monkeypatch.setattr(sim, name, lambda *a, solve=solve: calls.append(a) or solve(*a))
        run_episode(short(responsibility_scenario, steps=6, follower_mode=mode))
        game = responsibility_scenario.game
        assert len(calls) == (1 if mode == sim.FOLLOWER_MODE_LEADER else game.n_leader)

    def test_contradiction_resets_belief_with_warning(self, lane_scenario, monkeypatch):
        calls = {"n": 0}
        original = sim.bayes_update

        def explode_once(*args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise BeliefContradictionError("forced for test")
            return original(*args, **kwargs)

        monkeypatch.setattr(sim, "bayes_update", explode_once)
        result = run_episode(short(lane_scenario, steps=3))
        assert result.summary.warnings == 1
        assert result.records[0].warning is not None
        assert sum(result.records[0].belief_masses) == pytest.approx(1.0)

    def test_leader_believing_follower_uses_role_swap(self, responsibility_scenario):
        # at alpha=0.2 a conflicted opponent refuses to give way even to a merge
        scenario = short(
            responsibility_scenario, steps=1, true_alpha=0.2,
            follower_mode=sim.FOLLOWER_MODE_LEADER,
            strategy=ExplorationStrategy(StrategyKind.REWARD_GAIN),
        )
        result = run_episode(scenario)
        record = result.records[0]
        assert record.chosen_cell[0] == 0  # conflict-unaware leader merges ahead
        assert record.follower_action == 1  # but the opponent holds its lane
        follower_rational = run_episode(
            dataclasses.replace(scenario, follower_mode=sim.FOLLOWER_MODE_FOLLOWER)
        )
        assert follower_rational.records[0].follower_action == 0


class TestConflictExperiment:
    def test_runs_both_modes_with_same_scenario(self, responsibility_scenario):
        results = run_conflict_experiment(short(responsibility_scenario, steps=3))
        assert set(results) == {"unaware", "aware"}
        assert results["unaware"].summary.conflict_aware is False
        assert results["aware"].summary.conflict_aware is True
        assert results["unaware"].records[0].chosen_cell[0] == 0
        assert results["aware"].records[0].chosen_cell[0] == 2


class TestScenarioParsing:
    def test_shipped_scenarios_load(self, lane_scenario, responsibility_scenario):
        assert lane_scenario.game.leader_actions == ("merge_ahead", "merge_behind", "probe")
        assert responsibility_scenario.game.rewards == (
            ((1, 0), (-1, -1)),
            ((-1, -1), (0, 1)),
            ((1, 0), (0, 1)),
        )
        assert lane_scenario.feature_params.v_limit == 10.0
        assert lane_scenario.bicycle_params.wheelbase == 2.7

    def test_missing_key_names_the_key(self, lane_scenario, tmp_path):
        data = json.loads((SCENARIO_DIR / "lane_merge.json").read_text())
        del data["true_alpha"]
        with pytest.raises(ScenarioError, match="true_alpha"):
            parse_scenario(data, "doc")

    def test_alpha_out_of_range_rejected(self):
        data = json.loads((SCENARIO_DIR / "lane_merge.json").read_text())
        data["true_alpha"] = 1.5
        with pytest.raises(ScenarioError, match="true_alpha"):
            parse_scenario(data, "doc")

    @pytest.mark.parametrize("alpha", [Decimal("0.5"), "0.5", None], ids=["decimal", "str", "none"])
    def test_alpha_of_another_type_rejected(self, lane_scenario, alpha):
        message = f"true_alpha must be an int, float or Fraction, got {alpha!r}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            dataclasses.replace(lane_scenario, true_alpha=alpha)

    def test_incomplete_weight_table_rejected(self):
        data = json.loads((SCENARIO_DIR / "lane_merge.json").read_text())
        del data["weights"]["probe"]["stay_ahead"]
        with pytest.raises(ScenarioError, match="probe"):
            parse_scenario(data, "doc")

    @pytest.mark.parametrize("change, message", [
        (lambda weights: weights.pop((2, 1)), "weight table misses cell (2, 1)"),
        (lambda weights: weights.update({(2, 1): (weights[(2, 1)][0], (0.0,) * 5)}),
         "cell (2, 1): weight vectors must have 6 finite entries"),
        (lambda weights: weights.update({(1, 0): ((math.nan,) * 6, weights[(1, 0)][1])}),
         "cell (1, 0): weight vectors must have 6 finite entries"),
        (lambda weights: weights.update({(1, 0): ((10**400,) * 6, weights[(1, 0)][1])}),
         "cell (1, 0): weight vectors must have 6 finite entries"),
        (lambda weights: weights.update({(0, 1): (weights[(0, 1)][0], (Fraction(10**400),) * 6)}),
         "cell (0, 1): weight vectors must have 6 finite entries"),
    ], ids=["missing_cell", "short_follower_vector", "nan_leader_weight",
            "int_past_float_range_leader_weight", "fraction_past_float_range_follower_weight"])
    def test_scenario_rejects_incomplete_weights(self, lane_scenario, change, message):
        weights = dict(lane_scenario.weights)
        change(weights)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            dataclasses.replace(lane_scenario, weights=weights)

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("episode_steps", 2.5, "episode_steps must be an integer, got 2.5",
                     id="episode_steps"),
        pytest.param("horizon", 2.5, f"horizon must be an integer in [1, {MAX_HORIZON}], got 2.5",
                     id="horizon"),
        pytest.param("episode_steps", True, "episode_steps must be an integer, got True",
                     id="episode_steps_bool"),
        pytest.param("horizon", True, f"horizon must be an integer in [1, {MAX_HORIZON}], got True",
                     id="horizon_bool"),
        pytest.param("horizon", 10**400,
                     f"horizon must be an integer in [1, {MAX_HORIZON}], got 1000",
                     id="horizon_int_past_float_range"),
        pytest.param("dt", 10**400, "dt must be positive and finite, got 1000",
                     id="dt_int_past_float_range"),
        pytest.param("dt", Fraction(10**400), "dt must be positive and finite, got 1000",
                     id="dt_fraction_past_float_range"),
        pytest.param("observation_temperature", 10**400,
                     "observation_temperature must be positive and finite, got 1000",
                     id="temperature_int_past_float_range"),
        pytest.param("observation_temperature", Fraction(10**400),
                     "observation_temperature must be positive and finite, got 1000",
                     id="temperature_fraction_past_float_range"),
        pytest.param("dt", Fraction(1, 10**400), "dt must be positive and finite, got 1/1000",
                     id="dt_fraction_whose_float_is_0"),
        pytest.param("observation_temperature", Fraction(1, 10**400),
                     "observation_temperature must be positive and finite, got 1/1000",
                     id="temperature_fraction_whose_float_is_0"),
    ])
    def test_scenario_rejects_a_malformed_scalar(self, lane_scenario, field, value, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            dataclasses.replace(lane_scenario, **{field: value})

    def test_weight_table_is_a_read_only_copy(self, lane_scenario):
        leader, follower = lane_scenario.weights[(0, 0)]
        with pytest.raises(TypeError):
            lane_scenario.weights[(0, 0)] = (leader[:5], follower)
        # a later change to the caller's table, or to a vector given as a list, does not reach
        # the scenario
        weights = {cell: (list(lead), list(follow))
                   for cell, (lead, follow) in lane_scenario.weights.items()}
        scenario = dataclasses.replace(lane_scenario, weights=weights)
        weights[(0, 0)][0].pop()
        weights[(0, 1)] = (leader[:5], follower)
        assert scenario.weights == lane_scenario.weights
        assert run_episode(short(scenario, steps=2)).summary.steps == 2
        # pickling and copying go through the checked constructor
        for copied in (pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario)):
            assert copied == scenario
            assert isinstance(copied.weights, MappingProxyType)

    def test_wrong_weight_arity_rejected(self):
        data = json.loads((SCENARIO_DIR / "lane_merge.json").read_text())
        data["weights"]["probe"]["give_way"]["leader"] = [1, 2, 3]
        with pytest.raises(ScenarioError, match="6 numbers"):
            parse_scenario(data, "doc")

    def test_unknown_strategy_kind_rejected(self):
        data = json.loads((SCENARIO_DIR / "lane_merge.json").read_text())
        data["strategy"]["kind"] = "greedy"
        message = ("doc: strategy.kind: unknown strategy kind 'greedy'; "
                   "expected one of ['passive', 'info-gain', 'reward-gain']")
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(data, "doc")

    @pytest.mark.parametrize("faults, message", [
        # each object is read in one pass, in the order of its field table; the weights are the
        # scenario table's last key, read after every other key, the parameter objects included
        ({("weights", "probe", "give_way", "leader"): [1, 2, 3], ("vehicle", "wheelbase"): "x"},
         "doc: vehicle.wheelbase: expected a finite number, got 'x'"),
        ({("weights", "probe", "give_way", "leader"): [1, 2, 3], ("follower_mode",): 3},
         "doc: follower_mode: expected a string, got 3"),
        # a missing required key is reported where the key would have been read
        ({("initial_states",): None, ("true_alpha",): "x"},
         "doc: missing required key 'initial_states'"),
        # the states, keys and values alike, are read before the name
        ({("initial_states", "extra"): 1, ("name",): 3},
         "doc: initial_states: unknown key 'extra'"),
        ({("initial_states", "leader", "x"): "x", ("name",): 3},
         "doc: initial_states.leader.x: expected a finite number, got 'x'"),
        ({("initial_states", "follower"): None, ("name",): 3},
         "doc: initial_states: missing required key 'follower'"),
        # the choice of reward grid is made before either grid, or the leader's altruism, is read
        ({("game", "rewards"): None, ("game", "alpha_leader"): "x"},
         "doc: game: needs 'rewards' or 'outcome_labels'"),
        ({("game", "outcome_labels"): [], ("game", "rewards", 0): "x"},
         "doc: game: give either 'rewards' or 'outcome_labels', not both"),
    ], ids=["vehicle_before_weights", "weights_after_every_key", "missing_states_before_true_alpha",
            "states_keys_before_name", "state_values_before_name", "missing_state_before_name",
            "no_grid_before_alpha_leader", "both_grids_before_either"])
    def test_the_first_fault_in_reading_order_is_reported(self, faults, message):
        data = json.loads((SCENARIO_DIR / "lane_merge.json").read_text())
        for (*path, key), value in faults.items():
            target = data
            for part in path:
                target = target[part]
            if value is None:
                del target[key]
            else:
                target[key] = value
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(data, "doc")

    def test_unknown_outcome_label_rejected(self):
        data = json.loads((SCENARIO_DIR / "lane_merge_responsibility.json").read_text())
        data["game"]["outcome_labels"][0][0][0] = "blameless"
        with pytest.raises(ScenarioError, match="blameless"):
            parse_scenario(data, "doc")

    @pytest.mark.parametrize("cell", ["neutral", ["neutral"], [["neutral"], "neutral"], None])
    def test_malformed_outcome_label_cell_rejected(self, cell):
        data = json.loads((SCENARIO_DIR / "lane_merge_responsibility.json").read_text())
        data["game"]["outcome_labels"][0][0] = cell
        with pytest.raises(ScenarioError, match=r"outcome_labels\[0\]\[0\]"):
            parse_scenario(data, "doc")

    def test_unknown_feature_param_rejected(self):
        data = json.loads((SCENARIO_DIR / "lane_merge.json").read_text())
        data["feature_params"]["curvature"] = 2.0
        with pytest.raises(ScenarioError, match="feature_params"):
            parse_scenario(data, "doc")

    def test_top_level_must_be_an_object(self, tmp_path):
        listed = tmp_path / "listed.json"
        listed.write_text("[1, 2]")
        with pytest.raises(ScenarioError, match=r"listed\.json: expected an object, got \[1, 2\]"):
            load_scenario(listed)

    def test_invalid_json_reports_line(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{\n  "name": "x",\n  oops\n}\n')
        with pytest.raises(ScenarioError, match=r"broken\.json:3"):
            load_scenario(bad)

    def test_schema_agrees_with_parser(self):
        schema = json.loads((SCENARIO_DIR / "schema.json").read_text())
        props, definitions = schema["properties"], schema["definitions"]
        game, strategy = props["game"]["properties"], props["strategy"]["properties"]
        assert strategy["kind"]["enum"] == [kind.value for kind in StrategyKind]
        label_enum = game["outcome_labels"]["items"]["items"]["items"]["enum"]
        assert label_enum == [label.value for label in OutcomeLabel]
        assert props["follower_mode"]["enum"] == [
            sim.FOLLOWER_MODE_FOLLOWER, sim.FOLLOWER_MODE_LEADER,
        ]
        for name, params in (("feature_params", FeatureParams), ("vehicle", BicycleParams)):
            assert set(props[name]["properties"]) == {f.name for f in dataclasses.fields(params)}

        # each fixed-key object's field table lists exactly the keys the schema lists, and
        # requires exactly the keys the schema requires
        cell = props["weights"]["additionalProperties"]["additionalProperties"]
        for table, node in [
            (sim._SCENARIO, schema),
            (sim._GAME, props["game"]),
            (sim._STRATEGY, props["strategy"]),
            (sim._STATES, props["initial_states"]),
            (sim._STATE, definitions["state"]),
            (sim._CELL, cell),
            (sim._FEATURES, props["feature_params"]),
            (sim._VEHICLE, props["vehicle"]),
        ]:
            assert set(node["properties"]) == set(table)
            assert node["additionalProperties"] is False
            required = {key for key, (_, _, is_required) in table.items() if is_required}
            assert required == set(node.get("required", []))

        # the penalty rates' lower bound is the parser's
        for name in ("lambda_x", "lambda_theta", "lambda_v"):
            assert props["feature_params"]["properties"][name]["minimum"] == 0
            FeatureParams(**{name: 0})
            with pytest.raises(ValueError, match=name):
                FeatureParams(**{name: -1e-300})

        # a document holding only the required keys parses to the schema's defaults
        full = json.loads((SCENARIO_DIR / "lane_merge.json").read_text())
        minimal = {key: full[key] for key in schema["required"]}
        minimal["game"] = {key: full["game"][key] for key in props["game"]["required"]}
        minimal["game"]["rewards"] = full["game"]["rewards"]
        minimal["strategy"] = {"kind": full["strategy"]["kind"]}
        scenario = parse_scenario(minimal, "doc")
        assert scenario.episode_steps == props["episode_steps"]["default"]
        assert scenario.dt == props["dt"]["default"]
        assert scenario.horizon == props["horizon_steps"]["default"]
        assert scenario.observation_temperature == props["observation_temperature"]["default"]
        assert scenario.follower_mode == props["follower_mode"]["default"]
        assert scenario.game.alpha_leader == game["alpha_leader"]["default"]
        assert scenario.strategy.lam == strategy["lambda"]["default"]
        assert scenario.strategy.conflict_aware == strategy["conflict_aware"]["default"]

        # the schema's horizon range is the parser's
        horizon = props["horizon_steps"]
        assert horizon["maximum"] == MAX_HORIZON
        for steps in (horizon["minimum"], horizon["maximum"]):
            assert parse_scenario({**minimal, "horizon_steps": steps}, "doc").horizon == steps
        for steps in (horizon["minimum"] - 1, horizon["maximum"] + 1):
            with pytest.raises(ScenarioError, match="horizon"):
                parse_scenario({**minimal, "horizon_steps": steps}, "doc")

        # every key the schema requires is one the parser requires
        for path, node in [
            ((), schema),
            (("game",), props["game"]),
            (("strategy",), props["strategy"]),
            (("initial_states",), props["initial_states"]),
            (("initial_states", "leader"), definitions["state"]),
            (("weights", "probe", "give_way"), cell),
        ]:
            for key in node["required"]:
                doc = json.loads(json.dumps(minimal))
                target = doc
                for part in path:
                    target = target[part]
                del target[key]
                with pytest.raises(ScenarioError, match=f"missing required key '{key}'"):
                    parse_scenario(doc, "doc")

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.json")
