"""Closed-loop two-vehicle lane-merge episodes.

Each step the leader picks a game action from its current belief, plans a
trajectory for the matching cell with the bi-level planner, and executes
one control. The simulated follower holds a hidden altruism coefficient:
it picks its game response to the leader's action at that coefficient,
best-responds to the leader's published plan with the weight vector of the
realized cell, and executes one control. The leader then scores the
follower's observed control under every column's weight vector (softmax)
and Bayes-updates its belief.

The scenario is checked once, when it is built, by the package's rules, and
``Scenario`` turns their ``ValueError`` into ``ScenarioError`` in one place. A
step checks no value the package made: both vehicles advance through
``dynamics._step``, and the plan request and states are built by
``game._made``. The public calls a step makes still check a caller's
arguments: ``observation_likelihoods`` its row and temperature, then its
``dt``, control and each weight column through ``dynamics.step`` and
``dynamics.cost``, which score the observed move; ``follower_plan`` its
``dt``, weights and controls, and ``bayes_update`` its likelihoods.

Scenario files are JSON documents; scenarios/*.json are the shipped
defaults. One field table per fixed-key object (``_SCENARIO``, ``_GAME``,
``_STRATEGY``, ``_STATES``, ``_STATE``, ``_CELL``, ``_FEATURES``, ``_VEHICLE``)
is the one statement of their layout: its keys, each as ``key: (field, read,
required)``. Each object is read in one pass, in table order, so the first
fault in that order is the one reported. Two parts are read by hand: the
game's choice of reward grid, checked before its keys are read, and the
weights, the scenario table's last key, whose rows and cells are named by the
game's actions.
scenarios/schema.json documents the layout, and a test keeps the two in
agreement. Every object rejects a key it does not list, so a malformed or
misspelled document fails with one ScenarioError naming the key.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from .belief import BeliefContradictionError, IntervalBelief, bayes_update
from .dynamics import (N_FEATURES, BicycleParams, Control, FeatureParams, VehicleState,
                       _check_weights, _step, cost, step)
from .explore import (ActionEvaluation, ExplorationStrategy, StrategyKind, decision_partition,
                      select_action)
from .game import (AltruismGame, OutcomeLabel, _check_number, _check_positive, _check_row, _finite,
                   _first_max, _made, _sum_in_order, _whole, build_responsibility_matrix,
                   follower_best_response, leader_preference_of_follower)
from .planner import PlanRequest, _check_horizon, bilevel_plan, follower_plan

#: The follower plays the rational response to the leader's action.
FOLLOWER_MODE_FOLLOWER = "follower"
#: The follower acts as if it were the leader (conflicted opponent).
FOLLOWER_MODE_LEADER = "leader"

WeightTable = Mapping[tuple[int, int], tuple[tuple[float, ...], tuple[float, ...]]]


class ScenarioError(ValueError):
    """A scenario document is missing fields or holds invalid values."""


@dataclass(frozen=True)
class Scenario:
    """Everything one closed-loop episode needs."""

    name: str
    game: AltruismGame
    weights: WeightTable
    leader_start: VehicleState
    follower_start: VehicleState
    true_alpha: float
    strategy: ExplorationStrategy
    episode_steps: int = 30
    dt: float = 0.2
    horizon: int = 6
    observation_temperature: float = 1.0
    follower_mode: str = FOLLOWER_MODE_FOLLOWER
    feature_params: FeatureParams = FeatureParams()
    bicycle_params: BicycleParams = BicycleParams()

    def __post_init__(self) -> None:
        try:
            _check_number("true_alpha", self.true_alpha)
            if not 0 <= self.true_alpha <= 1:
                raise ValueError(f"true_alpha must lie in [0, 1], got {self.true_alpha}")
            if not _whole(self.episode_steps):
                raise ValueError(f"episode_steps must be an integer, got {self.episode_steps!r}")
            if self.episode_steps < 1:
                raise ValueError("episode_steps must be at least 1")
            _check_positive("dt", self.dt)
            _check_horizon(self.horizon)
            _check_positive("observation_temperature", self.observation_temperature)
            if self.follower_mode not in (FOLLOWER_MODE_FOLLOWER, FOLLOWER_MODE_LEADER):
                raise ValueError(f"unknown follower_mode {self.follower_mode!r}")
            weights, game = dict(self.weights), self.game  # stored read-only, vectors as tuples
            for cell in [(i, j) for i in range(game.n_leader) for j in range(game.n_follower)]:
                if cell not in weights:
                    raise ValueError(f"weight table misses cell {cell}")
                pair = weights[cell] = tuple(map(tuple, weights[cell]))
                if len(pair) != 2:
                    raise ValueError(f"cell {cell} needs a leader and a follower weight vector")
                _build(_check_weights, f"cell {cell}", *pair)
        except ValueError as error:  # the one place a rule's ValueError becomes a ScenarioError
            raise ScenarioError(str(error)) from None
        object.__setattr__(self, "weights", MappingProxyType(weights))

    def __reduce__(self):
        """Pickle and copy as a constructor call: a mappingproxy cannot be pickled."""
        values = (getattr(self, f.name) for f in dataclasses.fields(self))
        return type(self), tuple(dict(v) if v is self.weights else v for v in values)


@dataclass(frozen=True)
class StepRecord:
    """One executed simulation step."""

    step: int
    chosen_cell: tuple[int, int]
    follower_action: int
    leader_control: Control
    follower_control: Control
    leader_state: VehicleState
    follower_state: VehicleState
    belief_breakpoints: tuple[float, ...]
    belief_masses: tuple[float, ...]
    evaluations: tuple[ActionEvaluation, ...]
    likelihoods: tuple[float, ...]
    warning: str | None = None


@dataclass(frozen=True)
class EpisodeSummary:
    """Outcome classification and audit trail of an episode."""

    outcome: str
    final_relative_position: float
    final_belief_support: tuple[float, float]
    chosen_cells: tuple[tuple[int, int], ...]
    warnings: int
    steps: int
    true_alpha: float
    strategy_kind: str
    conflict_aware: bool


@dataclass(frozen=True)
class EpisodeResult:
    records: tuple[StepRecord, ...]
    summary: EpisodeSummary


def observation_likelihoods(
    game: AltruismGame,
    leader_action: int,
    observed_control: Control,
    follower_state: VehicleState,
    leader_state_next: VehicleState,
    weights: WeightTable,
    feature_params: FeatureParams,
    bicycle_params: BicycleParams,
    dt: float,
    temperature: float = 1.0,
) -> tuple[float, ...]:
    """Softmax over follower actions scoring the observed one-step behaviour.

    The observed control is applied to the follower's state by ``step``; the
    successor, paired with the leader's realized state, is scored by ``cost``
    under each column's follower weight vector. Equal weight vectors give
    uniform likelihoods; adding a constant to all scores changes nothing. A
    score that is not finite once divided by the temperature raises
    ``ValueError``; a tiny temperature can push a score out of the float range.
    """
    _check_row(game, leader_action)
    _check_positive("temperature", temperature)
    successor = [step(follower_state, observed_control, bicycle_params, dt)]
    columns = [weights[(leader_action, j)][1] for j in range(game.n_follower)]
    logits = [cost(successor, [leader_state_next], w, feature_params) / temperature
              for w in columns]
    if not all(map(math.isfinite, logits)):
        raise ValueError(f"non-finite logits {tuple(logits)} at temperature {temperature!r}")
    peak = max(logits)
    unnormalized = [math.exp(l - peak) for l in logits]
    total = _sum_in_order(unnormalized)
    return tuple(u / total for u in unnormalized)


def run_episode(scenario: Scenario) -> EpisodeResult:
    """Simulate one closed-loop episode of ``scenario.episode_steps`` steps."""
    game, alpha = scenario.game, scenario.true_alpha
    # the simulated follower's response to each row: its inputs are fixed for the episode
    true_responses = ([leader_preference_of_follower(game, alpha)] * game.n_leader
                      if scenario.follower_mode == FOLLOWER_MODE_LEADER else
                      [follower_best_response(game, i, alpha) for i in range(game.n_leader)])
    partition = decision_partition(game, scenario.strategy.conflict_aware)
    belief = IntervalBelief.uniform(partition)
    wheelbase = scenario.bicycle_params.wheelbase
    leader_state = scenario.leader_start
    follower_state = scenario.follower_start
    records: list[StepRecord] = []
    warnings = 0

    for t in range(scenario.episode_steps):
        evaluations, leader_action = select_action(game, belief, scenario.strategy)
        predicted = _first_max(evaluations[leader_action].outcome_probabilities)
        leader_w, follower_w_pred = scenario.weights[(leader_action, predicted)]
        cell = f"cell ({game.leader_actions[leader_action]}, {game.follower_actions[predicted]})"
        plan = _build(bilevel_plan, cell, _made(
            PlanRequest, leader_state, follower_state, leader_w, follower_w_pred, scenario.horizon,
            scenario.dt, scenario.feature_params, scenario.bicycle_params))
        leader_control = plan.leader_controls[0]

        true_action = true_responses[leader_action]
        if true_action == predicted:
            # The plan's follower solve had exactly these inputs.
            follower_controls = plan.follower_controls
        else:
            follower_controls = follower_plan(
                follower_state,
                leader_state,
                plan.leader_controls,
                scenario.weights[(leader_action, true_action)][1],
                scenario.dt,
                scenario.feature_params,
                scenario.bicycle_params,
            )
        follower_control = follower_controls[0]

        next_leader = _step(leader_state, leader_control, wheelbase, scenario.dt)
        next_follower = _step(follower_state, follower_control, wheelbase, scenario.dt)

        likelihoods = observation_likelihoods(
            game, leader_action, follower_control, follower_state, next_leader, scenario.weights,
            scenario.feature_params, scenario.bicycle_params, scenario.dt,
            scenario.observation_temperature,
        )
        warning = None
        try:
            belief = bayes_update(belief, game, leader_action, likelihoods)
        except BeliefContradictionError as error:
            belief = IntervalBelief.uniform(partition)
            warning = f"belief reset to uniform: {error}"
            warnings += 1

        records.append(
            StepRecord(
                step=t,
                chosen_cell=(leader_action, predicted),
                follower_action=true_action,
                leader_control=leader_control,
                follower_control=follower_control,
                leader_state=next_leader,
                follower_state=next_follower,
                belief_breakpoints=belief.partition.floats,
                belief_masses=belief.masses,
                evaluations=tuple(evaluations),
                likelihoods=likelihoods,
                warning=warning,
            )
        )
        leader_state, follower_state = next_leader, next_follower

    relative = leader_state.y - follower_state.y
    if not math.isfinite(relative):
        raise ValueError(f"the final relative position is past the float range: leader y "
                         f"{leader_state.y!r}, follower y {follower_state.y!r}")
    support = belief.support
    summary = EpisodeSummary(
        outcome="ahead" if relative > 0 else "behind",
        final_relative_position=relative,
        final_belief_support=(float(support[0]), float(support[1])),
        chosen_cells=tuple(r.chosen_cell for r in records),
        warnings=warnings,
        steps=len(records),
        true_alpha=float(scenario.true_alpha),
        strategy_kind=scenario.strategy.kind.value,
        conflict_aware=scenario.strategy.conflict_aware,
    )
    return EpisodeResult(tuple(records), summary)


def run_conflict_experiment(scenario: Scenario) -> dict[str, EpisodeResult]:
    """Run the scenario with conflict awareness off and on, same everything else."""
    def run(aware: bool) -> EpisodeResult:
        strategy = dataclasses.replace(scenario.strategy, conflict_aware=aware)
        return run_episode(dataclasses.replace(scenario, strategy=strategy))
    return {"unaware": run(False), "aware": run(True)}


# ---------------------------------------------------------------------------
# Scenario documents


def _object(data, keys, context: str) -> dict:
    """``data`` as an object holding only ``keys``: rejects a non-object and any other key."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{context}: expected an object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ScenarioError(f"{context}: unknown key {key!r}")
    return data


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ScenarioError(f"{context}: missing required key '{key}'")
    return data[key]


def _fields(data, table: dict, context: str, prefix: str) -> dict:
    """``{field: read(data[key], prefix + key)}`` per ``key: (field, read, required)`` of
    ``table``, read in table order once ``data`` is an object holding no other key."""
    _object(data, table, context)
    return {field: read(_require(data, key, context), prefix + key)
            for key, (field, read, required) in table.items() if required or key in data}


def _build(make, context: str, /, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError it raises re-raised naming ``context``."""
    try:
        return make(*args, **kwargs)
    except ValueError as error:
        raise ScenarioError(f"{context}: {error}") from None


def _nested(make, table: dict):
    """A reader of an object by ``table``, whose fields build ``make``."""
    return lambda raw, ctx: _build(make, ctx, **_fields(raw, table, ctx, f"{ctx}."))


def _by_name(cls, read, required: bool) -> dict:
    """The table of the dataclass ``cls``: each field read from the key of its name."""
    return {f.name: (f.name, read, required) for f in dataclasses.fields(cls)}


def _number(raw, context: str) -> int | float:
    """A JSON number in the float range, as parsed: integers stay exact."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not _finite(raw):
        raise ScenarioError(f"{context}: expected a finite number, got {raw!r}")
    return raw


def _string(raw, context: str) -> str:
    if not isinstance(raw, str):
        raise ScenarioError(f"{context}: expected a string, got {raw!r}")
    return raw


def _real(raw, context: str) -> float:
    return float(_number(raw, context))


def _flag(raw, context: str) -> bool:
    if not isinstance(raw, bool):
        raise ScenarioError(f"{context}: expected true or false, got {raw!r}")
    return raw


def _count(raw, context: str) -> int:
    """A whole JSON number; 3.0 is accepted, 2.5 is not."""
    value = _number(raw, context)
    if value != int(value):
        raise ScenarioError(f"{context}: expected a whole number, got {raw!r}")
    return int(value)


def _weight_vector(raw, context: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or len(raw) != N_FEATURES:
        raise ScenarioError(f"{context}: expected a list of {N_FEATURES} numbers")
    return tuple(_real(v, context) for v in raw)


def _action_names(raw, context: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(name, str) for name in raw):
        raise ScenarioError(f"{context}: expected a list of action names, got {raw!r}")
    for k, name in enumerate(raw):
        if name in raw[:k]:
            raise ScenarioError(f"{context}: duplicate action name {name!r}")
    return tuple(raw)


def _choice(kind, what: str):
    """A reader of the member of the enum ``kind`` whose value is the raw value."""
    def read(raw, context: str):
        for member in kind:
            if member.value == raw:
                return member
        values = [m.value for m in kind]
        raise ScenarioError(f"{context}: unknown {what} {raw!r}; expected one of {values}")
    return read


def _grid(read):
    """A reader of a grid of [leader, follower] pairs, each entry checked by ``read``."""
    def pair(cell, where: str) -> tuple:
        if not isinstance(cell, list) or len(cell) != 2:
            raise ScenarioError(f"{where}: expected a [leader, follower] pair, got {cell!r}")
        return read(cell[0], where), read(cell[1], where)

    def read_grid(grid, context: str) -> tuple[tuple[tuple, ...], ...]:
        if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
            raise ScenarioError(f"{context}: expected a list of rows")
        return tuple(tuple(pair(cell, f"{context}[{i}][{j}]") for j, cell in enumerate(row))
                     for i, row in enumerate(grid))
    return read_grid


_GAME = {
    "leader_actions": ("leader_actions", _action_names, True),
    "follower_actions": ("follower_actions", _action_names, True),
    "rewards": ("rewards", _grid(_number), False),
    "outcome_labels": ("rewards", lambda raw, context: build_responsibility_matrix(
        _grid(_choice(OutcomeLabel, "outcome label"))(raw, context)), False),
    "alpha_leader": ("alpha_leader", _number, False),
}
_STRATEGY = {
    "kind": ("kind", _choice(StrategyKind, "strategy kind"), True),
    "conflict_aware": ("conflict_aware", _flag, False),
    "lambda": ("lam", _real, False),
}
_STATE = _by_name(VehicleState, _real, True)
_STATES = {s: (f"{s}_start", _nested(VehicleState, _STATE), True) for s in ("leader", "follower")}
_CELL = {s: (s, _weight_vector, True) for s in ("leader", "follower")}
_FEATURES = _by_name(FeatureParams, _number, False)
_VEHICLE = _by_name(BicycleParams, _number, False)


def _game(data, context: str) -> AltruismGame:
    grids = [key for key in ("rewards", "outcome_labels") if key in _object(data, _GAME, context)]
    if len(grids) != 1:
        raise ScenarioError(f"{context}: give either 'rewards' or 'outcome_labels', not both"
                            if grids else f"{context}: needs 'rewards' or 'outcome_labels'")
    return _build(AltruismGame, context, **_fields(data, _GAME, context, f"{context}."))


def _weights(raw, game: AltruismGame, context: str) -> WeightTable:
    """The weights, whose rows and cells are the game's action names."""
    rows, weights = _object(raw, game.leader_actions, context), {}
    for i, leader in enumerate(game.leader_actions):
        row_ctx = f"{context}['{leader}']"
        row = _object(_require(rows, leader, context), game.follower_actions, row_ctx)
        for j, follower in enumerate(game.follower_actions):
            cell_ctx = f"{row_ctx}['{follower}']"
            cell = _fields(_require(row, follower, row_ctx), _CELL, cell_ctx, f"{cell_ctx}.")
            weights[(i, j)] = tuple(cell.values())
    return weights


_SCENARIO = {
    "description": (None, _string, False),
    "game": ("game", _game, True),
    "feature_params": ("feature_params", _nested(FeatureParams, _FEATURES), False),
    "vehicle": ("bicycle_params", _nested(BicycleParams, _VEHICLE), False),
    "initial_states": ("starts", _nested(dict, _STATES), True),
    "name": ("name", _string, False),
    "true_alpha": ("true_alpha", _real, True),
    "strategy": ("strategy", _nested(ExplorationStrategy, _STRATEGY), True),
    "episode_steps": ("episode_steps", _count, False),
    "dt": ("dt", _real, False),
    "horizon_steps": ("horizon", _count, False),
    "observation_temperature": ("observation_temperature", _real, False),
    "follower_mode": ("follower_mode", _string, False),
    "weights": ("weights", lambda raw, context: raw, True),  # read with the game, last
}


def parse_scenario(data: dict, source: str = "<scenario>") -> Scenario:
    """Build a Scenario from a parsed JSON document, with pointed errors."""
    fields = {"name": Path(source).stem, **_fields(data, _SCENARIO, source, f"{source}: ")}
    fields.update(fields.pop("starts"))
    fields["weights"] = _weights(fields["weights"], fields["game"], f"{source}: weights")
    fields.pop(None, None)  # the description is checked, not kept
    return _build(Scenario, source, **fields)


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as error:
        raise ScenarioError(f"{path}: {error}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ScenarioError(
            f"{path}:{error.lineno}:{error.colno}: invalid JSON: {error.msg}"
        ) from None
    except RecursionError:
        raise ScenarioError(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError as error:  # an integer with more digits than the interpreter converts
        raise ScenarioError(f"{path}: invalid JSON: {error}") from None
    return parse_scenario(data, str(path))
