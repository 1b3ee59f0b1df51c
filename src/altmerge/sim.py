"""Closed-loop two-vehicle lane-merge episodes.

Each step the leader picks a game action from its current belief, plans a
trajectory for the matching cell with the bi-level planner, and executes
one control. The simulated follower holds a hidden altruism coefficient:
it picks its game response to the leader's action at that coefficient,
best-responds to the leader's published plan with the weight vector of the
realized cell, and executes one control. The leader then scores the
follower's observed control under every column's weight vector (softmax)
and Bayes-updates its belief.

Scenario files are JSON documents; scenarios/*.json are the shipped
defaults. The parser here is the source of truth for their layout:
scenarios/schema.json documents it, and a test keeps the two in agreement.
Every value is checked where it is read, and every object, the weights
rows and cells included, rejects a key the parser does not read, so a
malformed or misspelled document fails with one ScenarioError naming the key.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .belief import BeliefContradictionError, IntervalBelief, _sum_in_order, bayes_update
from .dynamics import (
    BicycleParams,
    Control,
    FeatureParams,
    N_FEATURES,
    VehicleState,
    _check_weights,
    _frame,
    _own_costs,
    _pair_cost,
    step,
)
from .explore import (
    ActionEvaluation,
    ExplorationStrategy,
    StrategyKind,
    decision_partition,
    select_action,
)
from .game import (
    AltruismGame,
    OutcomeLabel,
    _finite,
    build_responsibility_matrix,
    follower_best_response,
    leader_preference_of_follower,
)
from .planner import MAX_HORIZON, PlanRequest, bilevel_plan, follower_plan

#: The follower plays the rational response to the leader's action.
FOLLOWER_MODE_FOLLOWER = "follower"
#: The follower acts as if it were the leader (conflicted opponent).
FOLLOWER_MODE_LEADER = "leader"

WeightTable = dict[tuple[int, int], tuple[tuple[float, ...], tuple[float, ...]]]


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
        if not 0 <= self.true_alpha <= 1:
            raise ScenarioError(f"true_alpha must lie in [0, 1], got {self.true_alpha}")
        if type(self.episode_steps) is not int:
            raise ScenarioError(f"episode_steps must be an integer, got {self.episode_steps!r}")
        if self.episode_steps < 1:
            raise ScenarioError("episode_steps must be at least 1")
        if not (_finite(self.dt) and self.dt > 0):
            raise ScenarioError(f"dt must be positive and finite, got {self.dt}")
        if type(self.horizon) is not int:
            raise ScenarioError(f"horizon must be an integer, got {self.horizon!r}")
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ScenarioError(f"horizon must lie in [1, {MAX_HORIZON}], got {self.horizon!r}")
        if not (_finite(self.observation_temperature) and self.observation_temperature > 0):
            raise ScenarioError(
                f"observation_temperature must be positive and finite, got {self.observation_temperature}"
            )
        if self.follower_mode not in (FOLLOWER_MODE_FOLLOWER, FOLLOWER_MODE_LEADER):
            raise ScenarioError(f"unknown follower_mode {self.follower_mode!r}")
        for i in range(self.game.n_leader):
            for j in range(self.game.n_follower):
                if (i, j) not in self.weights:
                    raise ScenarioError(f"weight table misses cell ({i}, {j})")
                pair = self.weights[(i, j)]
                if len(pair) != 2 or any(len(w) != N_FEATURES for w in pair):
                    raise ScenarioError(f"cell ({i}, {j}) needs two 6-entry weight vectors")
                if not all(_finite(w) for vector in pair for w in vector):
                    raise ScenarioError(f"cell ({i}, {j}) needs finite weights")


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

    The observed control is applied to the follower's state; the successor,
    paired with the leader's realized state, is scored under each column's
    follower weight vector. Equal weight vectors give uniform likelihoods;
    adding a constant to all scores changes nothing. A score that is not
    finite once divided by the temperature raises ``ValueError``; a tiny
    temperature can push a score out of the float range.
    """
    if not (_finite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    state = step(follower_state, observed_control, bicycle_params, dt)
    successor = [(state.x, state.y, state.v, state.theta)]
    other = leader_state_next
    leader = _frame([(other.x, other.y, other.v, other.theta)])
    columns = [weights[(leader_action, j)][1] for j in range(game.n_follower)]
    _check_weights(*columns)
    logits = [_pair_cost(successor, _own_costs(successor, w, feature_params), leader, w,
                         feature_params) / temperature for w in columns]
    if not all(map(math.isfinite, logits)):
        raise ValueError(f"non-finite logits {tuple(logits)} at temperature {temperature!r}")
    peak = max(logits)
    unnormalized = [math.exp(l - peak) for l in logits]
    total = _sum_in_order(unnormalized)
    return tuple(u / total for u in unnormalized)


def _predicted_response(evaluation: ActionEvaluation) -> int:
    probs = evaluation.outcome_probabilities
    return max(range(len(probs)), key=lambda j: (probs[j], -j))


def _true_response(scenario: Scenario, leader_action: int) -> int:
    if scenario.follower_mode == FOLLOWER_MODE_LEADER:
        return leader_preference_of_follower(scenario.game, scenario.true_alpha)
    return follower_best_response(scenario.game, leader_action, scenario.true_alpha)


def run_episode(scenario: Scenario) -> EpisodeResult:
    """Simulate one closed-loop episode of ``scenario.episode_steps`` steps."""
    game = scenario.game
    partition = decision_partition(game, scenario.strategy.conflict_aware)
    belief = IntervalBelief.uniform(partition)
    leader_state = scenario.leader_start
    follower_state = scenario.follower_start
    records: list[StepRecord] = []
    warnings = 0

    for t in range(scenario.episode_steps):
        evaluations, leader_action = select_action(game, belief, scenario.strategy)
        predicted = _predicted_response(evaluations[leader_action])
        leader_w, follower_w_pred = scenario.weights[(leader_action, predicted)]
        cell = f"cell ({game.leader_actions[leader_action]}, {game.follower_actions[predicted]})"
        plan = _build(bilevel_plan, cell, PlanRequest(
            leader_state=leader_state,
            follower_state=follower_state,
            leader_weights=leader_w,
            follower_weights=follower_w_pred,
            horizon=scenario.horizon,
            dt=scenario.dt,
            feature_params=scenario.feature_params,
            bicycle_params=scenario.bicycle_params,
        ))
        leader_control = plan.leader_controls[0]

        true_action = _true_response(scenario, leader_action)
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

        next_leader = step(leader_state, leader_control, scenario.bicycle_params, scenario.dt)
        next_follower = step(follower_state, follower_control, scenario.bicycle_params, scenario.dt)

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


#: The dataclass each parameter object of a scenario document builds.
_PARAMS = {"feature_params": FeatureParams, "vehicle": BicycleParams}
#: The keys each object of a scenario document may hold, except the weights
#: rows and cells, which hold exactly the game's action names.
_KEYS = {kind: frozenset(keys.split()) for kind, keys in {
    "scenario": "name description game true_alpha strategy episode_steps dt horizon_steps "
                "observation_temperature follower_mode feature_params vehicle initial_states "
                "weights",
    "game": "leader_actions follower_actions rewards outcome_labels alpha_leader",
    "strategy": "kind lambda conflict_aware",
    "initial_states": "leader follower",
    "state": "x y v theta",
    "weight cell": "leader follower",
}.items()} | {
    key: frozenset(f.name for f in dataclasses.fields(cls)) for key, cls in _PARAMS.items()
}


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


def _present(data: dict, prefix: str, readers: dict) -> dict:
    """``field: read(data[key])`` per ``key: (field, read)`` present; the rest keep defaults."""
    return {field: read(data[key], f"{prefix}{key}")
            for key, (field, read) in readers.items() if key in data}


def _build(make, context: str, /, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError it raises re-raised naming ``context``."""
    try:
        return make(*args, **kwargs)
    except ValueError as error:
        raise ScenarioError(f"{context}: {error}") from None


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


def _action_names(data: dict, key: str, context: str) -> tuple[str, ...]:
    raw = _require(data, key, context)
    if not isinstance(raw, list) or not all(isinstance(name, str) for name in raw):
        raise ScenarioError(f"{context}.{key}: expected a list of action names, got {raw!r}")
    for k, name in enumerate(raw):
        if name in raw[:k]:
            raise ScenarioError(f"{context}.{key}: duplicate action name {name!r}")
    return tuple(raw)


def _choice(kind, raw, context: str, what: str):
    """The member of the enum ``kind`` whose value is ``raw``."""
    for member in kind:
        if member.value == raw:
            return member
    raise ScenarioError(
        f"{context}: unknown {what} {raw!r}; expected one of {[m.value for m in kind]}"
    )


def _label(raw, context: str) -> OutcomeLabel:
    return _choice(OutcomeLabel, raw, context, "outcome label")


def _pair_grid(data: dict, key: str, context: str, read) -> tuple[tuple[tuple, ...], ...]:
    """The ``key`` grid of [leader, follower] pairs, each entry checked by ``read``."""
    grid, context = data[key], f"{context}.{key}"
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ScenarioError(f"{context}: expected a list of rows")
    rows = []
    for i, row in enumerate(grid):
        cells = []
        for j, cell in enumerate(row):
            where = f"{context}[{i}][{j}]"
            if not isinstance(cell, list) or len(cell) != 2:
                raise ScenarioError(f"{where}: expected a [leader, follower] pair, got {cell!r}")
            cells.append((read(cell[0], where), read(cell[1], where)))
        rows.append(tuple(cells))
    return tuple(rows)


def _parse_game(data, context: str) -> AltruismGame:
    _object(data, _KEYS["game"], context)
    leader_actions = _action_names(data, "leader_actions", context)
    follower_actions = _action_names(data, "follower_actions", context)
    if "rewards" in data and "outcome_labels" in data:
        raise ScenarioError(f"{context}: give either 'rewards' or 'outcome_labels', not both")
    if "rewards" in data:
        rewards = _pair_grid(data, "rewards", context, _number)
    elif "outcome_labels" in data:
        rewards = build_responsibility_matrix(_pair_grid(data, "outcome_labels", context, _label))
    else:
        raise ScenarioError(f"{context}: needs 'rewards' or 'outcome_labels'")
    return _build(AltruismGame, context, leader_actions, follower_actions, rewards,
                  **_present(data, f"{context}.", {"alpha_leader": ("alpha_leader", _number)}))


def _parse_state(data, context: str) -> VehicleState:
    _object(data, _KEYS["state"], context)
    values = [_real(_require(data, key, context), f"{context}.{key}")
              for key in ("x", "y", "v", "theta")]
    return _build(VehicleState, context, *values)


def _parse_strategy(data, context: str) -> ExplorationStrategy:
    _object(data, _KEYS["strategy"], context)
    kind = _choice(StrategyKind, _require(data, "kind", context), context, "strategy kind")
    readers = {"conflict_aware": ("conflict_aware", _flag), "lambda": ("lam", _real)}
    return _build(ExplorationStrategy, context, kind=kind, **_present(data, f"{context}.", readers))


def _parse_params(data: dict, key: str, source: str):
    """The ``feature_params`` or ``vehicle`` object; the dataclass defaults fill the rest."""
    context = f"{source}: {key}"
    raw = _object(data.get(key, {}), _KEYS[key], context)
    return _build(_PARAMS[key], context,
                  **{name: _number(value, f"{context}.{name}") for name, value in raw.items()})


def parse_scenario(data: dict, source: str = "<scenario>") -> Scenario:
    """Build a Scenario from a parsed JSON document, with pointed errors."""
    _object(data, _KEYS["scenario"], source)
    _string(data.get("description", ""), f"{source}: description")
    game = _parse_game(_require(data, "game", source), f"{source}: game")
    ctx = f"{source}: weights"
    weights_raw = _object(_require(data, "weights", source), game.leader_actions, ctx)
    weights: WeightTable = {}
    for i, leader_label in enumerate(game.leader_actions):
        row_ctx = f"{ctx}['{leader_label}']"
        row = _object(_require(weights_raw, leader_label, ctx), game.follower_actions, row_ctx)
        for j, follower_label in enumerate(game.follower_actions):
            cell_ctx = f"{row_ctx}['{follower_label}']"
            cell = _object(_require(row, follower_label, row_ctx), _KEYS["weight cell"], cell_ctx)
            weights[(i, j)] = (
                _weight_vector(_require(cell, "leader", cell_ctx), f"{cell_ctx}.leader"),
                _weight_vector(_require(cell, "follower", cell_ctx), f"{cell_ctx}.follower"),
            )
    feature_params = _parse_params(data, "feature_params", source)
    bicycle_params = _parse_params(data, "vehicle", source)
    states_ctx = f"{source}: initial_states"
    states = _object(_require(data, "initial_states", source), _KEYS["initial_states"], states_ctx)
    return _build(
        Scenario,
        source,
        name=_string(data.get("name", Path(source).stem), f"{source}: name"),
        game=game,
        weights=weights,
        leader_start=_parse_state(_require(states, "leader", states_ctx), f"{states_ctx}.leader"),
        follower_start=_parse_state(_require(states, "follower", states_ctx),
                                    f"{states_ctx}.follower"),
        true_alpha=_real(_require(data, "true_alpha", source), f"{source}: true_alpha"),
        strategy=_parse_strategy(_require(data, "strategy", source), f"{source}: strategy"),
        feature_params=feature_params,
        bicycle_params=bicycle_params,
        **_present(data, f"{source}: ", {
            "episode_steps": ("episode_steps", _count), "dt": ("dt", _real),
            "horizon_steps": ("horizon", _count),
            "observation_temperature": ("observation_temperature", _real),
            "follower_mode": ("follower_mode", _string)}),
    )


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
