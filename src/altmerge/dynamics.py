"""Kinematic bicycle model and the six trajectory cost features.

States are (x, y, v, theta) with x lateral, y longitudinal, and theta = 0
pointing straight down the lane (+y). Features are evaluated on a state
pair (own vehicle, other vehicle) and combined linearly by per-game-cell
weight vectors; planners maximize the weighted sum.

Feature conventions: the lane-centre, speed, and heading terms are bounded
penalties 1 - exp(-k * err^2) in [0, 1), zero exactly on target. The
separation term is the squared offset in the other vehicle's frame,
normalized by the safety ellipse axes, minus 1, clamped at 0: -1 on top of
the other vehicle, relaxing to 0 on the ellipse boundary and beyond, so it
penalizes proximity without rewarding unbounded flight. It is squared only
inside the box that bounds the ellipse and is exactly 0.0 outside it, so
the term is defined for every pair of finite states, however far apart.
The lead term is tanh of the longitudinal gap.

Each formula is written once, in a private float kernel that loops over a
trajectory of plain (x, y, v, theta) tuples with its constants hoisted and
skips validation: ``_advance`` for the dynamics, ``_own_costs`` for
features 0-3 (which never look at the other vehicle) and ``_pair_cost``
for features 4-5 (which do). The planner calls them on its inner rollouts
and keeps a rollout's own-lane terms for every other trajectory it is
scored against. The public ``step`` and ``cost`` validate their input and
delegate; ``features`` reads each feature out of the cost kernels as the
cost of one state pair under a unit weight vector, which is exact.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

N_FEATURES = 6

#: Row k weighs feature k alone: ``features`` reads each feature through the cost kernels.
_UNIT = tuple(tuple(float(j == k) for j in range(N_FEATURES)) for k in range(N_FEATURES))


@dataclass(frozen=True)
class VehicleState:
    """Planar vehicle state: lateral x, longitudinal y, speed, heading."""

    x: float
    y: float
    v: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "v", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite state component {name}")
        if self.v < 0:
            raise ValueError("speed must be nonnegative")


@dataclass(frozen=True)
class Control:
    """One timestep of acceleration (m/s^2) and steering angle (rad)."""

    accel: float
    steer: float


@dataclass(frozen=True)
class BicycleParams:
    """Geometry and actuation limits of the kinematic bicycle."""

    wheelbase: float = 2.7
    accel_max: float = 3.0
    steer_max: float = 0.3

    def __post_init__(self) -> None:
        for name in ("wheelbase", "accel_max", "steer_max"):
            value = getattr(self, name)
            if not 0 < value <= sys.float_info.max:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def check(self, control: Control) -> None:
        """Reject a control beyond the actuator limits, or a NaN one."""
        if not abs(control.accel) <= self.accel_max + 1e-12:
            raise ValueError(f"acceleration {control.accel} exceeds limit {self.accel_max}")
        if not abs(control.steer) <= self.steer_max + 1e-12:
            raise ValueError(f"steering {control.steer} exceeds limit {self.steer_max}")


@dataclass(frozen=True)
class FeatureParams:
    """Shape constants of the cost features.

    ``x_left`` and ``x_right`` are the two lane centres, ``lane_theta`` the
    lane heading. The penalty rates ``lambda_x``, ``lambda_theta`` and
    ``lambda_v`` are nonnegative. ``width_margin`` and ``length_margin`` pad
    the vehicle footprint into the safety-ellipse semi-axes (width + margin
    laterally, length + margin longitudinally).
    """

    lambda_x: float = 0.5
    lambda_theta: float = 2.0
    lambda_v: float = 0.25
    vehicle_width: float = 2.0
    vehicle_length: float = 4.5
    width_margin: float = 0.5
    length_margin: float = 2.0
    x_left: float = 2.5
    x_right: float = 7.5
    v_limit: float = 15.0
    lane_theta: float = 0.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValueError(f"{field.name} must be finite, got {value}")
            if field.name.startswith("lambda_") and value < 0:
                raise ValueError(f"{field.name} must be nonnegative, got {value}")
        if self.vehicle_width <= 0 or self.vehicle_length <= 0:
            raise ValueError("vehicle dimensions must be positive")
        if self.vehicle_width + self.width_margin <= 0:
            raise ValueError("lateral ellipse axis must be positive")
        if self.vehicle_length + self.length_margin <= 0:
            raise ValueError("longitudinal ellipse axis must be positive")


def step(
    state: VehicleState, control: Control, params: BicycleParams, dt: float
) -> VehicleState:
    """Euler kinematic bicycle update; speed clamps at zero.

    The speed update applies before the position update (semi-implicit
    Euler), so acceleration is observable in a single step; the heading
    rate uses the pre-step speed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    params.check(control)
    start = (state.x, state.y, state.v, state.theta)
    return VehicleState(*_advance(start, control.accel, control.steer, 1, params.wheelbase, dt)[0])


def _advance(
    state: tuple[float, float, float, float],
    accel: float,
    steer: float,
    steps: int,
    wheelbase: float,
    dt: float,
) -> list[tuple[float, float, float, float]]:
    """Float kernel of ``step``: ``steps`` steps of one control, unvalidated input.

    States are (x, y, v, theta) tuples. A non-finite component never turns
    finite again (speed cannot become NaN, and NaN or infinity absorbs every
    later update), so checking the last state covers the whole run.
    """
    x, y, v, theta = state
    dv = accel * dt
    tan_steer = math.tan(steer)
    sin, cos = math.sin, math.cos
    states = []
    for _ in range(steps):
        v_next = v + dv
        if not v_next > 0.0:
            v_next = 0.0
        x = x + v_next * sin(theta) * dt
        y = y + v_next * cos(theta) * dt
        theta = theta + (v / wheelbase) * tan_steer * dt
        v = v_next
        states.append((x, y, v, theta))
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(v) and math.isfinite(theta)):
        raise ValueError(f"non-finite state (x, y, v, theta) = {(x, y, v, theta)} "
                         f"from dt {dt} and control (accel, steer) = {(accel, steer)}")
    return states


def _frame(
    states: list[tuple[float, float, float, float]]
) -> list[tuple[float, float, float, float]]:
    """(x, y, sin theta, cos theta) per state: a trajectory seen as the other vehicle."""
    return [(x, y, math.sin(theta), math.cos(theta)) for x, y, _, theta in states]


def features(
    state: VehicleState, other: VehicleState, params: FeatureParams
) -> tuple[float, float, float, float, float, float]:
    """Six-feature vector for the (own, other) state pair.

    0: left-lane-centre penalty, 1: right-lane-centre penalty,
    2: speed-limit penalty, 3: lane-heading penalty,
    4: safety-ellipse proximity penalty in the other vehicle's frame,
    5: longitudinal lead (tanh of the gap, positive when ahead).

    Each is the cost kernels' sum under its unit weight vector: the other
    features add only zeros, so its bits come back, except that a sum from
    0.0 turns -0.0 into 0.0. Only the lead can be -0.0, so it is summed from
    -0.0 through a pair term that is -0.0 too: 0.0 * phi4 if phi4 < 0, else
    -0.0 * 0.0.
    """
    own = [(state.x, state.y, state.v, state.theta)]
    seen = _frame([(other.x, other.y, other.v, other.theta)])
    phi = [_own_costs(own, unit, params)[0] for unit in _UNIT[:4]]
    phi4 = _pair_cost(own, [0.0], seen, _UNIT[4], params)
    lead = (0.0, 0.0, 0.0, 0.0, 0.0 if phi4 else -0.0, 1.0)
    return (*phi, phi4, _pair_cost(own, [-0.0], seen, lead, params, -0.0))


def _own_costs(
    states: list[tuple[float, float, float, float]],
    weights: tuple[float, ...],
    params: FeatureParams,
) -> list[float]:
    """Per state, the weighted features 0-3 summed left to right from 0.0.

    Features 0-3 are bounded penalties 1 - exp(-k * err^2). A feature whose
    rate k is 0 is exactly 0.0: the product would be 0 * inf, NaN, once the
    offset overflows. The rates are nonnegative, so ``exp`` never overflows.
    """
    w0, w1, w2, w3 = weights[:4]
    lx, lv, lt = params.lambda_x, params.lambda_v, params.lambda_theta
    x_left, x_right, v_limit, lane_theta = (params.x_left, params.x_right, params.v_limit,
                                            params.lane_theta)
    exp = math.exp
    owns = []
    for x, _, v, theta in states:
        left = x - x_left
        right = x - x_right
        speed = v - v_limit
        heading = theta - lane_theta
        phi0 = 1.0 - exp(-lx * left * left) if lx else 0.0
        phi1 = 1.0 - exp(-lx * right * right) if lx else 0.0
        phi2 = 1.0 - exp(-lv * speed * speed) if lv else 0.0
        phi3 = 1.0 - exp(-lt * heading * heading) if lt else 0.0
        owns.append(0.0 + w0 * phi0 + w1 * phi1 + w2 * phi2 + w3 * phi3)
    return owns


def _pair_cost(
    states: list[tuple[float, float, float, float]],
    owns: list[float],
    others: list[tuple[float, float, float, float]],
    weights: tuple[float, ...],
    params: FeatureParams,
    total: float = 0.0,
) -> float:
    """Float kernel of ``cost``: adds each state's full weighted features to ``total``.

    ``owns`` are the states' ``_own_costs`` and ``others`` the other
    trajectory's ``_frame``. Each state's sum continues left to right as
    ``own + w4 * phi4 + w5 * phi5``, and states add to ``total`` in order,
    so continuing from the partial sum of a trajectory's head gives the
    same float as the whole sum.
    """
    w4, w5 = weights[4], weights[5]
    lat_axis = params.vehicle_width + params.width_margin
    lon_axis = params.vehicle_length + params.length_margin
    tanh = math.tanh
    for (x, y, _, _), own, (other_x, other_y, sin_o, cos_o) in zip(states, owns, others):
        dx = x - other_x
        dy = y - other_y
        u = (dx * cos_o - dy * sin_o) / lat_axis
        w = (dx * sin_o + dy * cos_o) / lon_axis
        # Outside the box around the ellipse the clamped value is 0.0; squaring could overflow.
        phi4 = u ** 2 + w ** 2 - 1.0 if -1.0 < u < 1.0 and -1.0 < w < 1.0 else 0.0
        total += own + w4 * (phi4 if phi4 < 0.0 else 0.0) + w5 * tanh(dy)
    return total


def cost(
    trajectory: list[VehicleState],
    other_trajectory: list[VehicleState],
    weights: tuple[float, ...],
    params: FeatureParams,
) -> float:
    """Weighted feature sum over an aligned pair of state trajectories."""
    if len(trajectory) != len(other_trajectory):
        raise ValueError("trajectories must have equal length")
    if len(weights) != N_FEATURES:
        raise ValueError(f"expected {N_FEATURES} weights, got {len(weights)}")
    states = [(s.x, s.y, s.v, s.theta) for s in trajectory]
    others = _frame([(o.x, o.y, o.v, o.theta) for o in other_trajectory])
    return _pair_cost(states, _own_costs(states, weights, params), others, weights, params)
