"""Bi-level trajectory planning over a short receding horizon.

The leader picks its control sequence anticipating that the follower will
best-respond to it; the follower's inner problem is solved for every
distinct leader candidate. Controls are parameterized as constant (accel,
steer) per horizon half, searched by cyclic coordinate descent on a 5-point
grid that shrinks over three rounds. The scheme is derivative-free, fully
deterministic, and stops refining a coordinate once the objective improves
by less than SOLVER_TOL.

Each search evaluates a distinct point once. Its values are memoized for
one call only: a leader candidate the shrinking grid revisits costs no
second follower solve, and the winner's follower solution is kept, not
solved again. Within one follower solve, the first-half rollout's end state
and partial cost are cached per (accel1, steer1) while the second-half
coordinates move. No cache outlives the call that made it.

Inner rollouts run on plain float tuples through the kernels of
``dynamics``, in the same arithmetic order as ``dynamics.step`` and
``dynamics.cost``, so every float matches the validated path bit for bit.
Input is validated once where it enters: ``PlanRequest`` and
``follower_plan``'s arguments. Candidate controls are clamped into the
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
    _cost,
    _frame,
    step,
)

#: Objective improvements below this do not move the search.
SOLVER_TOL = 1e-6

#: Grid-shrink rounds of the coordinate search.
SEARCH_ROUNDS = 3


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
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")
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


def _coordinate_search(objective, params: BicycleParams) -> tuple[tuple[float, ...], float]:
    """Shrinking-grid cyclic coordinate descent from the zero-control start.

    ``objective`` maps a 4-tuple (accel1, steer1, accel2, steer2) to the
    value being maximized; it runs once per distinct point of this search.
    Only strict improvements above SOLVER_TOL move the iterate, so flat
    objectives keep the zero initialization.
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
            for value in _candidate_values(current[coord], spans[coord], limits[coord]):
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
    if not leader_controls:
        raise ValueError("leader control sequence must be nonempty")
    for control in leader_controls:
        bicycle_params.check(control)
    wheelbase = bicycle_params.wheelbase
    leader = _frame(_float_rollout(leader_state, leader_controls, wheelbase, dt))
    horizon = len(leader_controls)
    first = (horizon + 1) // 2
    leader_head, leader_tail = leader[:first], leader[first:]
    start = (follower_state.x, follower_state.y, follower_state.v, follower_state.theta)
    heads: dict[tuple[float, float], tuple[tuple[float, float, float, float], float]] = {}

    def objective(params4: tuple[float, ...]) -> float:
        accel1, steer1, accel2, steer2 = params4
        head = heads.get((accel1, steer1))
        if head is None:
            states = _advance(start, accel1, steer1, first, wheelbase, dt)
            partial = _cost(states, leader_head, follower_weights, feature_params)
            head = heads[(accel1, steer1)] = (states[-1], partial)
        end, partial = head
        tail = _advance(end, accel2, steer2, horizon - first, wheelbase, dt)
        return _cost(tail, leader_tail, follower_weights, feature_params, partial)

    params4, _ = _coordinate_search(objective, bicycle_params)
    return _expand(params4, horizon)


def bilevel_plan(request: PlanRequest) -> Plan:
    """Nested optimization: leader search with one follower solve per distinct candidate."""
    dt, wheelbase = request.dt, request.bicycle_params.wheelbase
    solved: dict[tuple[float, ...], tuple] = {}

    def objective(params4: tuple[float, ...]) -> float:
        leader_controls = _expand(params4, request.horizon)
        follower_controls = follower_plan(
            request.follower_state,
            request.leader_state,
            leader_controls,
            request.follower_weights,
            dt,
            request.feature_params,
            request.bicycle_params,
        )
        leader_traj = _float_rollout(request.leader_state, leader_controls, wheelbase, dt)
        follower_traj = _float_rollout(request.follower_state, follower_controls, wheelbase, dt)
        solved[params4] = (leader_controls, follower_controls)
        return _cost(
            leader_traj, _frame(follower_traj), request.leader_weights, request.feature_params
        )

    params4, value = _coordinate_search(objective, request.bicycle_params)
    leader_controls, follower_controls = solved[params4]
    return Plan(
        leader_controls,
        follower_controls,
        rollout(request.leader_state, leader_controls, request.bicycle_params, dt),
        rollout(request.follower_state, follower_controls, request.bicycle_params, dt),
        value,
    )

