"""Bi-level trajectory planning over a short receding horizon.

The leader picks its control sequence anticipating that the follower will
best-respond to it; the follower's inner problem is solved for every
distinct leader candidate. Controls are parameterized as constant (accel,
steer) per horizon half, searched by cyclic coordinate descent on a 5-point
grid that shrinks over three rounds. The scheme is derivative-free, fully
deterministic, and stops refining a coordinate once the objective improves
by less than SOLVER_TOL.

Each search evaluates a distinct point once, and the winner's follower
solution is kept, not solved again. Every follower solve of one
``bilevel_plan`` starts from the same state with the same weights, so the
plan keeps, for both vehicles, each first-half rollout per (accel1, steer1)
and each second-half rollout per 4-tuple, with the per-state own-lane cost
terms (features 0-3, which never look at the other vehicle). It also keeps
the follower's first-half cost per (leader first half, follower first half),
so leader candidates that differ only in their second half share it, and
the search grids per (center, span, limit). A follower evaluation then adds
only the two pair features per state. These caches live for one
``bilevel_plan`` call; no cache outlives the call that made it.

Inner rollouts run on plain float tuples through the kernels of
``dynamics``, in the same arithmetic order as ``dynamics.step`` and
``dynamics.cost``, so every float matches the validated path bit for bit.
Input is validated once where it enters: ``PlanRequest`` and
``follower_plan``'s arguments. The horizon is at most MAX_HORIZON steps, so
a plan's caches stay small. Candidate controls are clamped into the
actuator limits where they are generated, and a rollout that produces a
non-finite state still raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    N_FEATURES,
    BicycleParams,
    Control,
    FeatureParams,
    VehicleState,
    _advance,
    _frame,
    _own_costs,
    _pair_cost,
    step,
)

#: Objective improvements below this do not move the search.
SOLVER_TOL = 1e-6

#: Grid-shrink rounds of the coordinate search.
SEARCH_ROUNDS = 3

#: Longest planning horizon, in steps: 16x the shipped 6. A plan keeps
#: rollouts of its horizon for every candidate it tries, so the bound keeps
#: a plan's memory small, and a huge horizon is rejected before anything
#: horizon-long is built.
MAX_HORIZON = 100


def _check_dt_and_weights(dt: float, *weight_vectors: tuple[float, ...]) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    for weights in weight_vectors:
        if len(weights) != N_FEATURES or not all(math.isfinite(w) for w in weights):
            raise ValueError("weight vectors must have six finite entries")


@dataclass(frozen=True)
class PlanRequest:
    """Inputs of one bi-level planning problem."""

    leader_state: VehicleState
    follower_state: VehicleState
    leader_weights: tuple[float, ...]
    follower_weights: tuple[float, ...]
    horizon: int = 6
    dt: float = 0.2
    feature_params: FeatureParams = FeatureParams()
    bicycle_params: BicycleParams = BicycleParams()

    def __post_init__(self) -> None:
        if not isinstance(self.horizon, int) or not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError(
                f"horizon must be an integer in [1, {MAX_HORIZON}], got {self.horizon!r}"
            )
        _check_dt_and_weights(self.dt, self.leader_weights, self.follower_weights)


@dataclass(frozen=True)
class Plan:
    """Solved control sequences with their rolled-out trajectories."""

    leader_controls: tuple[Control, ...]
    follower_controls: tuple[Control, ...]
    leader_trajectory: tuple[VehicleState, ...]
    follower_trajectory: tuple[VehicleState, ...]
    leader_cost: float


def _expand(params: tuple[float, float, float, float], horizon: int) -> tuple[Control, ...]:
    """Constant controls per horizon half: (accel1, steer1, accel2, steer2)."""
    first = (horizon + 1) // 2
    a1, s1, a2, s2 = params
    return tuple(
        Control(a1, s1) if k < first else Control(a2, s2) for k in range(horizon)
    )


def rollout(
    state: VehicleState,
    controls: tuple[Control, ...],
    params: BicycleParams,
    dt: float,
) -> tuple[VehicleState, ...]:
    """Post-step states produced by applying the controls in order."""
    states = []
    current = state
    for control in controls:
        current = step(current, control, params, dt)
        states.append(current)
    return tuple(states)


def _float_rollout(
    state: VehicleState, controls: tuple[Control, ...], wheelbase: float, dt: float
) -> list[tuple[float, float, float, float]]:
    """Post-step float states of already validated controls, applied in order."""
    states = []
    current = (state.x, state.y, state.v, state.theta)
    for control in controls:
        (current,) = _advance(current, control.accel, control.steer, 1, wheelbase, dt)
        states.append(current)
    return states


def _candidate_values(center: float, span: float, limit: float) -> list[float]:
    """Grid points around ``center``, clamped into the actuator limit and deduplicated.

    The clamp is what keeps every candidate control valid, so the rollouts
    that follow skip ``BicycleParams.check``.
    """
    raw = (center - span, center - span / 2, center, center + span / 2, center + span)
    values: list[float] = []
    for v in raw:
        clamped = max(-limit, min(limit, v))
        if not any(abs(clamped - u) < 1e-12 for u in values):
            values.append(clamped)
    return values


def _coordinate_search(
    objective, params: BicycleParams, grids: dict
) -> tuple[tuple[float, ...], float]:
    """Shrinking-grid cyclic coordinate descent from the zero-control start.

    ``objective`` maps a 4-tuple (accel1, steer1, accel2, steer2) to the
    value being maximized; it runs once per distinct point of this search.
    Only strict improvements above SOLVER_TOL move the iterate, so flat
    objectives keep the zero initialization. ``grids`` keeps each
    ``_candidate_values`` grid by its arguments, for every search that
    shares it.
    """
    values: dict[tuple[float, ...], float] = {}

    def evaluate(point: tuple[float, ...]) -> float:
        if point not in values:
            values[point] = objective(point)
        return values[point]

    limits = (params.accel_max, params.steer_max, params.accel_max, params.steer_max)
    current = [0.0, 0.0, 0.0, 0.0]
    best = evaluate(tuple(current))
    spans = list(limits)
    for _ in range(SEARCH_ROUNDS):
        for coord in range(4):
            key = (current[coord], spans[coord], limits[coord])
            grid = grids.get(key)
            if grid is None:
                grid = grids[key] = _candidate_values(*key)
            for value in grid:
                if abs(value - current[coord]) < 1e-12:
                    continue
                candidate = list(current)
                candidate[coord] = value
                score = evaluate(tuple(candidate))
                if score > best + SOLVER_TOL:
                    best = score
                    current = candidate
        spans = [s / 2 for s in spans]
    return tuple(current), best


class _Rollouts:
    """One vehicle's half-constant rollouts from a fixed start, each built once.

    A first half is kept per (accel1, steer1) and a second half per 4-tuple,
    each as (post-step states, per-state ``_own_costs``), so a cost against
    any other trajectory adds only the pair features.
    """

    def __init__(
        self,
        state: VehicleState,
        weights: tuple[float, ...],
        horizon: int,
        dt: float,
        feature_params: FeatureParams,
        wheelbase: float,
    ) -> None:
        self.start = (state.x, state.y, state.v, state.theta)
        self.weights = weights
        self.first = (horizon + 1) // 2
        self.rest = horizon - self.first
        self.dt = dt
        self.feature_params = feature_params
        self.wheelbase = wheelbase
        self._heads: dict[tuple[float, float], tuple[list, list[float]]] = {}
        self._tails: dict[tuple[float, ...], tuple[list, list[float]]] = {}

    def head(self, accel1: float, steer1: float) -> tuple[list, list[float]]:
        head = self._heads.get((accel1, steer1))
        if head is None:
            states = _advance(self.start, accel1, steer1, self.first, self.wheelbase, self.dt)
            head = (states, _own_costs(states, self.weights, self.feature_params))
            self._heads[(accel1, steer1)] = head
        return head

    def tail(self, params4: tuple[float, ...]) -> tuple[list, list[float]]:
        tail = self._tails.get(params4)
        if tail is None:
            accel1, steer1, accel2, steer2 = params4
            end = self.head(accel1, steer1)[0][-1]
            states = _advance(end, accel2, steer2, self.rest, self.wheelbase, self.dt)
            tail = (states, _own_costs(states, self.weights, self.feature_params))
            self._tails[params4] = tail
        return tail

    def states(self, params4: tuple[float, ...]) -> list:
        return self.head(params4[0], params4[1])[0] + self.tail(params4)[0]


class _FollowerSolver:
    """Follower best responses from one start state, with that state's caches.

    ``head_costs[leader_head][(accel1, steer1)]`` is the follower's
    first-half cost against a leader first half; ``leader_head`` is any key
    that identifies the leader's first-half controls.
    """

    def __init__(
        self,
        rollouts: _Rollouts,
        bicycle_params: BicycleParams,
        grids: dict,
    ) -> None:
        self.rollouts = rollouts
        self.bicycle_params = bicycle_params
        self.grids = grids
        self.head_costs: dict[object, dict[tuple[float, float], float]] = {}

    def solve(self, leader_head, leader_frame: list) -> tuple[float, ...]:
        """Follower 4-tuple maximizing its weighted features against a leader ``_frame``."""
        rollouts = self.rollouts
        weights, feature_params = rollouts.weights, rollouts.feature_params
        head_frame, tail_frame = leader_frame[:rollouts.first], leader_frame[rollouts.first:]
        head_costs = self.head_costs.setdefault(leader_head, {})

        def objective(params4: tuple[float, ...]) -> float:
            accel1, steer1 = params4[0], params4[1]
            partial = head_costs.get((accel1, steer1))
            if partial is None:
                states, owns = rollouts.head(accel1, steer1)
                partial = _pair_cost(states, owns, head_frame, weights, feature_params)
                head_costs[(accel1, steer1)] = partial
            states, owns = rollouts.tail(params4)
            return _pair_cost(states, owns, tail_frame, weights, feature_params, partial)

        return _coordinate_search(objective, self.bicycle_params, self.grids)[0]


def follower_plan(
    follower_state: VehicleState,
    leader_state: VehicleState,
    leader_controls: tuple[Control, ...],
    follower_weights: tuple[float, ...],
    dt: float = 0.2,
    feature_params: FeatureParams = FeatureParams(),
    bicycle_params: BicycleParams = BicycleParams(),
) -> tuple[Control, ...]:
    """Follower controls maximizing its weighted features against a fixed leader plan."""
    _check_dt_and_weights(dt, follower_weights)
    horizon = len(leader_controls)
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"leader control sequence must have 1 to {MAX_HORIZON} steps")
    for control in leader_controls:
        bicycle_params.check(control)
    wheelbase = bicycle_params.wheelbase
    leader = _frame(_float_rollout(leader_state, leader_controls, wheelbase, dt))
    rollouts = _Rollouts(follower_state, follower_weights, horizon, dt, feature_params, wheelbase)
    solver = _FollowerSolver(rollouts, bicycle_params, {})
    return _expand(solver.solve(leader_controls[:rollouts.first], leader), horizon)


def bilevel_plan(request: PlanRequest) -> Plan:
    """Nested optimization: leader search with one follower solve per distinct candidate."""
    dt, horizon = request.dt, request.horizon
    feature_params, bicycle_params = request.feature_params, request.bicycle_params
    wheelbase = bicycle_params.wheelbase
    leader = _Rollouts(request.leader_state, request.leader_weights, horizon, dt,
                       feature_params, wheelbase)
    follower = _Rollouts(request.follower_state, request.follower_weights, horizon, dt,
                         feature_params, wheelbase)
    grids: dict = {}
    solver = _FollowerSolver(follower, bicycle_params, grids)
    responses: dict[tuple[float, ...], tuple[float, ...]] = {}

    def objective(params4: tuple[float, ...]) -> float:
        head_states, head_owns = leader.head(params4[0], params4[1])
        tail_states, tail_owns = leader.tail(params4)
        states = head_states + tail_states
        response = responses[params4] = solver.solve(params4[:2], _frame(states))
        return _pair_cost(states, head_owns + tail_owns, _frame(follower.states(response)),
                          request.leader_weights, feature_params)

    params4, value = _coordinate_search(objective, bicycle_params, grids)
    leader_controls = _expand(params4, horizon)
    follower_controls = _expand(responses[params4], horizon)
    return Plan(
        leader_controls,
        follower_controls,
        rollout(request.leader_state, leader_controls, bicycle_params, dt),
        rollout(request.follower_state, follower_controls, bicycle_params, dt),
        value,
    )
