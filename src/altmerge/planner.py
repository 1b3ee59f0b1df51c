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
plan keeps, for both vehicles, each first-half rollout per (accel1, steer1),
numbered in build order, and each second-half rollout per 4-tuple, holding
its first half, so a searched point costs one 4-tuple lookup. Each keeps its
per-state own-lane cost terms (features 0-3, which never look at the other
vehicle). The plan also keeps the follower's first-half cost per (leader
first half, follower first half), by number, so leader candidates that
differ only in their second half share it, and the search grids per
(center, span, limit). A follower evaluation then adds only the two pair
features per state. These caches live for one ``bilevel_plan`` call; no
cache outlives the call that made it.

The planner has no feature or dynamics formula of its own. On plain float
tuples, ``dynamics._advance`` builds a rollout, ``_own_costs`` scores its
features 0-3 once, and ``_pair_cost`` adds features 4-5 against the other
vehicle's ``_frame``; ``step``, ``cost`` and ``features`` read through the
same kernels, so every float matches the validated path bit for bit. The
follower ``score`` reads the second-half dict and builds only on a miss.
Input is validated once where it enters: ``PlanRequest`` and
``follower_plan``'s arguments, its leader controls included; ``run_episode``
builds its request by ``game._made`` from a checked scenario. The horizon
is at most MAX_HORIZON steps, so a plan's caches stay small. Candidate
controls are clamped into the actuator limits where they are generated,
and a rollout that produces a non-finite state still raises
``ValueError``, as does a plan whose winning leader cost is not finite.

Both searches prune by branch and bound, through one callable per search,
``score(point, floor)``: it fetches the point's two rollouts once, sums
their bound, and returns ``None`` unevaluated when that bound is
``<= floor``. A search moves only on ``score > best + SOLVER_TOL``, and
``best`` only grows, so it passes ``best + SOLVER_TOL`` as the floor: a
point pruned there could never move it and is skipped for good; a pruned
leader candidate saves a whole follower solve. The bound of a candidate is
the objective with each state's pair terms ``w4 * f4`` and ``w5 * f5``
replaced by ``max(0.0, -w4)`` and ``abs(w5)``, summed in the objective's
own order, ``total += own + b4 + b5``, from the same start: 0.0, or for a
follower whose first half against this leader first half is already scored,
that exact partial. The bound is exact, with no margin. Feature 4 lies in
[-1, 0] and feature 5 in [-1, 1] (states are finite, so ``tanh`` never sees
NaN), so the exact products satisfy ``w4 * f4 <= max(0, -w4)`` and
``w5 * f5 <= |w5|``. Both right-hand sides are floats, and IEEE rounding is
monotone, so ``fl(w4 * f4)`` and ``fl(w5 * f5)`` obey the same
inequalities; a rounded add is monotone in each argument, so every partial
sum of the bound is at least the computed one, and so is the total. A NaN
anywhere makes both the skip test and the move test false, so skipping
still changes nothing. Pruning never changes which point a search returns,
only how many it evaluates; ``PlanStats`` counts both. Nor does it change
whether a plan raises: ``score`` fetches a candidate's rollouts before its
bound test, so a rollout that leaves the float range raises either way, and
scoring a finite rollout never raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dynamics import (BicycleParams, Control, FeatureParams, VehicleState, _advance,
                       _check_weights, _frame, _own_costs, _pair_cost,
                       step)  # unused: kept bound for perfbench's tracer test
from .game import _check_positive, _sum_in_order, _whole

#: Objective improvements below this do not move the search.
SOLVER_TOL = 1e-6

#: Grid-shrink rounds of the coordinate search.
SEARCH_ROUNDS = 3

_UNSEEN = object()  # a search memo's default: the point has not been scored

#: Longest planning horizon, in steps: 16x the shipped 6. A plan keeps
#: rollouts of its horizon for every candidate it tries, so the bound keeps
#: a plan's memory small, and a huge horizon is rejected before anything
#: horizon-long is built.
MAX_HORIZON = 100


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
        _check_horizon(self.horizon)
        _check_positive("dt", self.dt)
        _check_weights(self.leader_weights, self.follower_weights)


def _check_horizon(horizon: int) -> None:
    """The one horizon rule: a ``_whole`` number of steps in [1, MAX_HORIZON]."""
    if not (_whole(horizon) and 1 <= horizon <= MAX_HORIZON):
        raise ValueError(f"horizon must be an integer in [1, {MAX_HORIZON}], got {horizon!r}")


class PlanStats(NamedTuple):
    """The work of one ``bilevel_plan``: candidates evaluated or pruned, per level.

    Every leader evaluation runs one follower solve, and a pruned candidate
    is never evaluated; a point counts once per search, however often the
    shrinking grid revisits it. Immutable like the frozen dataclasses here,
    but a tenth of their cost to define, which every import of the package
    pays.
    """

    leader_evaluated: int
    leader_pruned: int
    follower_solves: int
    follower_evaluated: int
    follower_pruned: int


@dataclass(frozen=True)
class Plan:
    """Solved control sequences, the leader's objective value, and the work it took."""

    leader_controls: tuple[Control, ...]
    follower_controls: tuple[Control, ...]
    leader_cost: float
    stats: PlanStats


def _expand(params: tuple[float, float, float, float], horizon: int) -> tuple[Control, ...]:
    """Constant controls per horizon half: (accel1, steer1, accel2, steer2)."""
    first = (horizon + 1) // 2
    a1, s1, a2, s2 = params
    return tuple(
        Control(a1, s1) if k < first else Control(a2, s2) for k in range(horizon)
    )


def _candidate_values(center: float, span: float, limit: float) -> list[float]:
    """Grid points around ``center``, clamped into the actuator limit and deduplicated.

    The clamp is what keeps every candidate control valid, so the rollouts
    that follow skip ``BicycleParams.check``. Points within 1e-12 of
    ``center``, where the search stands, are dropped; no later point is that
    close to an earlier one the search may move to.
    """
    raw = (center - span, center - span / 2, center, center + span / 2, center + span)
    values: list[float] = []
    for v in raw:
        clamped = max(-limit, min(limit, v))
        if not any(abs(clamped - u) < 1e-12 for u in values):
            values.append(clamped)
    return [v for v in values if not abs(v - center) < 1e-12]


def _coordinate_search(
    score, params: BicycleParams, grids: dict
) -> tuple[tuple[float, ...], float, int, int]:
    """Shrinking-grid cyclic coordinate descent from the zero-control start.

    ``score(point, floor)`` maps a 4-tuple (accel1, steer1, accel2, steer2)
    to the value being maximized, or to ``None`` when the point's upper
    bound is ``<= floor``; it runs once per distinct point of this search.
    The zero start is always scored, with ``floor`` None; every other point
    gets ``best + SOLVER_TOL``, and a point it prunes is skipped for good
    (see the module docstring). Only strict improvements above SOLVER_TOL
    move the iterate, so flat objectives keep the zero initialization.
    ``grids`` keeps each ``_candidate_values`` grid by its arguments, for
    every search that shares it. Returns the point, its value, and the
    counts of distinct points evaluated and pruned.
    """
    start = (0.0, 0.0, 0.0, 0.0)
    best = score(start, None)
    floor = best + SOLVER_TOL
    values = {start: best}  # a pruned point maps to None
    limits = (params.accel_max, params.steer_max, params.accel_max, params.steer_max)
    current = start
    spans = limits
    for _ in range(SEARCH_ROUNDS):
        for coord in range(4):
            key = (current[coord], spans[coord], limits[coord])
            grid = grids.get(key)
            if grid is None:
                grid = grids[key] = _candidate_values(*key)
            before, after = current[:coord], current[coord + 1:]
            for value in grid:
                point = before + (value,) + after
                scored = values.get(point, _UNSEEN)
                if scored is _UNSEEN:
                    scored = values[point] = score(point, floor)
                if scored is not None and scored > floor:
                    best, floor, current = scored, scored + SOLVER_TOL, point
        spans = tuple(s / 2 for s in spans)
    pruned = list(values.values()).count(None)
    return current, best, len(values) - pruned, pruned


class _Rollouts:
    """One vehicle's half-constant rollouts from a fixed start, each built once.

    ``heads`` keeps a first half per (accel1, steer1) and ``tails`` a second
    half per 4-tuple; ``head`` and ``tail`` fetch one or build it. Each is
    (post-step states, per-state ``_own_costs``, bound, link): a cost against
    any other trajectory adds only the pair features. A state's bound term
    is ``own + b4 + b5``. A first half sums them with ``_sum_in_order``
    and links its insertion index; a second half keeps them per state, to
    sum on from its first half's end in ``_pair_cost``'s order, and links
    that first half.
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
        self._b4, self._b5 = max(0.0, -weights[4]), abs(weights[5])
        self.heads: dict[tuple[float, float], tuple[list, list[float], float, int]] = {}
        self.tails: dict[tuple[float, ...], tuple[list, list[float], list[float], tuple]] = {}

    def _build(self, start: tuple, accel: float, steer: float, steps: int) -> tuple:
        states = _advance(start, accel, steer, steps, self.wheelbase, self.dt)
        owns = _own_costs(states, self.weights, self.feature_params)
        b4, b5 = self._b4, self._b5
        return states, owns, [own + b4 + b5 for own in owns]

    def head(self, key: tuple[float, float]) -> tuple[list, list[float], float, int]:
        head = self.heads.get(key)
        if head is None:
            states, owns, terms = self._build(self.start, *key, self.first)
            head = self.heads[key] = (states, owns, _sum_in_order(terms), len(self.heads))
        return head

    def tail(self, params4: tuple[float, ...]) -> tuple[list, list[float], list[float], tuple]:
        tail = self.tails.get(params4)
        if tail is None:
            head = self.head(params4[:2])
            tail = self.tails[params4] = (*self._build(head[0][-1], *params4[2:], self.rest), head)
        return tail

    def states(self, params4: tuple[float, ...]) -> list:
        states, _, _, head = self.tail(params4)
        return head[0] + states


def _follower_search(
    rollouts: _Rollouts, head_costs: dict, leader_frame: list, params: BicycleParams, grids: dict
) -> tuple[tuple[float, ...], int, int]:
    """Follower 4-tuple maximizing its weighted features against a leader ``_frame``.

    ``head_costs`` maps a follower first half's number to its exact first-half
    cost against this leader's first half; it is filled as the search goes
    and may be shared by every leader with the same first half. Returns the
    point and the counts of distinct points evaluated and pruned.
    """
    weights, feature_params, tails = rollouts.weights, rollouts.feature_params, rollouts.tails
    head_frame, tail_frame = leader_frame[:rollouts.first], leader_frame[rollouts.first:]

    def score(params4: tuple[float, ...], floor: float | None) -> float | None:
        tail_states, tail_owns, terms, head = tails.get(params4) or rollouts.tail(params4)
        head_states, head_owns, head_bound, head_id = head
        partial = head_costs.get(head_id)
        total = head_bound if partial is None else partial
        for term in terms:
            total += term
        if floor is not None and total <= floor:
            return None
        if partial is None:
            partial = head_costs[head_id] = _pair_cost(
                head_states, head_owns, head_frame, weights, feature_params
            )
        return _pair_cost(tail_states, tail_owns, tail_frame, weights, feature_params, partial)

    point, _, evaluated, pruned = _coordinate_search(score, params, grids)
    return point, evaluated, pruned


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
    _check_positive("dt", dt)
    _check_weights(follower_weights)
    horizon = len(leader_controls)
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"leader control sequence must have 1 to {MAX_HORIZON} steps")
    leader, state = [], (leader_state.x, leader_state.y, leader_state.v, leader_state.theta)
    for control in leader_controls:
        bicycle_params.check(control)
        state = _advance(state, control.accel, control.steer, 1, bicycle_params.wheelbase, dt)[0]
        leader.append(state)
    rollouts = _Rollouts(follower_state, follower_weights, horizon, dt, feature_params,
                         bicycle_params.wheelbase)
    point, _, _ = _follower_search(rollouts, {}, _frame(leader), bicycle_params, {})
    return _expand(point, horizon)


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
    head_costs: dict[int, dict[int, float]] = {}
    responses: dict[tuple[float, ...], tuple[float, ...]] = {}
    follower_evaluated = follower_pruned = 0

    def score(params4: tuple[float, ...], floor: float | None) -> float | None:
        nonlocal follower_evaluated, follower_pruned
        tail_states, tail_owns, terms, head = leader.tail(params4)
        head_states, head_owns, total, head_id = head
        for term in terms:
            total += term
        if floor is not None and total <= floor:
            return None
        states = head_states + tail_states
        response, evaluated, pruned = _follower_search(
            follower, head_costs.setdefault(head_id, {}), _frame(states), bicycle_params, grids
        )
        responses[params4] = response
        follower_evaluated += evaluated
        follower_pruned += pruned
        return _pair_cost(states, head_owns + tail_owns, _frame(follower.states(response)),
                          request.leader_weights, feature_params)

    params4, value, evaluated, pruned = _coordinate_search(score, bicycle_params, grids)
    if not math.isfinite(value):
        raise ValueError(f"the winning leader cost is not finite: {value}")
    stats = PlanStats(evaluated, pruned, len(responses), follower_evaluated, follower_pruned)
    return Plan(_expand(params4, horizon), _expand(responses[params4], horizon), value, stats)
