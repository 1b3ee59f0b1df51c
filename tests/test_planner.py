"""Planner behaviour against coarse grid-search oracles and the plain nested search."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from altmerge.dynamics import (
    BicycleParams,
    Control,
    FeatureParams,
    VehicleState,
    cost,
    step,
)
import altmerge.planner as planner
from altmerge.dynamics import _advance
from altmerge.planner import (
    MAX_HORIZON,
    PlanRequest,
    PlanStats,
    bilevel_plan,
    follower_plan,
)
from altmerge.sim import load_scenario
from conftest import SCENARIO_DIR
from oracles import (
    oracle_bilevel_plan,
    oracle_follower_plan,
    oracle_leader_value,
    replay,
)

BP = BicycleParams()
FP = FeatureParams(v_limit=10.0)

LEADER = VehicleState(x=2.5, y=0.0, v=8.0, theta=0.0)
FOLLOWER = VehicleState(x=7.5, y=0.0, v=8.0, theta=0.0)

ZERO = (0.0,) * 6


def constant_control_oracle(state, other_traj, weights, horizon, dt, n=7):
    """Best constant (accel, steer) pair over a coarse grid, by enumeration."""
    accel_grid = [BP.accel_max * (2 * k / (n - 1) - 1) for k in range(n)]
    steer_grid = [BP.steer_max * (2 * k / (n - 1) - 1) for k in range(n)]
    best = None
    for accel, steer in itertools.product(accel_grid, steer_grid):
        controls = tuple(Control(accel, steer) for _ in range(horizon))
        value = cost(replay(state, controls, BP, dt), list(other_traj), weights, FP)
        if best is None or value > best[0]:
            best = (value, accel, steer)
    return best


class TestFollowerPlan:
    def test_flat_objective_keeps_zero_controls(self):
        leader_controls = (Control(0.0, 0.0),) * 6
        controls = follower_plan(FOLLOWER, LEADER, leader_controls, ZERO, 0.2, FP, BP)
        assert all(c == Control(0.0, 0.0) for c in controls)

    def test_speed_weight_accelerates_below_limit(self):
        slow = VehicleState(7.5, 0.0, 5.0, 0.0)
        weights = (0, 0, -1.0, 0, 0, 0)
        leader_controls = (Control(0.0, 0.0),) * 6
        controls = follower_plan(slow, LEADER, leader_controls, weights, 0.2, FP, BP)
        assert controls[0].accel > 0
        # oracle agrees on the direction
        leader_traj = replay(LEADER, leader_controls, BP, 0.2)
        _, oracle_accel, _ = constant_control_oracle(slow, leader_traj, weights, 6, 0.2)
        assert oracle_accel > 0

    def test_single_step_lead_weight_maxes_acceleration(self):
        weights = (0, 0, 0, 0, 0, 1.0)
        leader_controls = (Control(0.0, 0.0),)
        controls = follower_plan(FOLLOWER, LEADER, leader_controls, weights, 0.2, FP, BP)
        assert controls[0].accel == pytest.approx(BP.accel_max)


class TestBilevelPlan:
    def _request(self, leader_weights, follower_weights, horizon=6):
        return PlanRequest(
            leader_state=LEADER,
            follower_state=FOLLOWER,
            leader_weights=leader_weights,
            follower_weights=follower_weights,
            horizon=horizon,
            dt=0.2,
            feature_params=FP,
            bicycle_params=BP,
        )

    def test_zero_weights_give_zero_plan(self):
        plan = bilevel_plan(self._request(ZERO, ZERO))
        assert all(c == Control(0.0, 0.0) for c in plan.leader_controls)
        assert all(c == Control(0.0, 0.0) for c in plan.follower_controls)
        assert plan.leader_cost == pytest.approx(0.0)

    def test_speed_weight_closes_speed_error(self):
        slow_leader = VehicleState(2.5, 0.0, 6.0, 0.0)
        far_follower = VehicleState(7.5, 200.0, 10.0, 0.0)
        request = PlanRequest(
            leader_state=slow_leader,
            follower_state=far_follower,
            leader_weights=(0, 0, -1.0, 0, 0, 0),
            follower_weights=ZERO,
            horizon=6,
            dt=0.2,
            feature_params=FP,
            bicycle_params=BP,
        )
        plan = bilevel_plan(request)
        assert plan.leader_controls[0].accel > 0
        end = replay(slow_leader, plan.leader_controls, BP, 0.2)[-1]
        assert abs(end.v - FP.v_limit) < abs(slow_leader.v - FP.v_limit)

    def test_lane_weight_moves_toward_target_lane(self):
        # start mid-maneuver: the default lane penalty saturates beyond ~3 m
        request = PlanRequest(
            leader_state=VehicleState(5.0, 0.0, 8.0, 0.0),
            follower_state=VehicleState(7.5, 200.0, 8.0, 0.0),
            leader_weights=(0, -2.0, 0, -0.5, 0, 0),
            follower_weights=ZERO,
            horizon=6,
            dt=0.2,
            feature_params=FP,
            bicycle_params=BP,
        )
        plan = bilevel_plan(request)
        start_error = abs(request.leader_state.x - FP.x_right)
        end = replay(request.leader_state, plan.leader_controls, BP, 0.2)[-1]
        end_error = abs(end.x - FP.x_right)
        assert end_error < start_error

    def test_cost_at_least_zero_control_baseline(self):
        request = self._request((0, -1.5, -0.5, -1.0, 0.3, 2.0), (0, -1.0, -0.5, -1.0, 0.3, -1.0))
        plan = bilevel_plan(request)
        baseline = oracle_leader_value(request, (0.0, 0.0, 0.0, 0.0))[0]
        assert plan.leader_cost >= baseline - 1e-9

    def test_beats_sampled_candidates(self):
        request = self._request((0, -1.5, -0.5, -1.0, 0.3, 2.0), (0, -1.0, -0.5, -1.0, 0.3, -1.0))
        plan = bilevel_plan(request)
        for a1 in (-3.0, 0.0, 3.0):
            for s1 in (-0.3, 0.0, 0.3):
                value = oracle_leader_value(request, (a1, s1, 0.0, 0.0))[0]
                assert plan.leader_cost >= value - 1e-9

    def test_replay_reproduces_leader_cost_exactly(self):
        request = self._request((0, -1.5, -0.5, -1.0, 0.3, 2.0), (0, -1.0, -0.5, -1.0, 0.3, -1.0))
        plan = bilevel_plan(request)
        leader = replay(request.leader_state, plan.leader_controls, BP, request.dt)
        follower = replay(request.follower_state, plan.follower_controls, BP, request.dt)
        assert cost(leader, follower, request.leader_weights, FP) == plan.leader_cost

    def test_flat_objective_prunes_every_candidate(self):
        # every bound is 0.0, the zero start's value: nothing can move either search
        assert bilevel_plan(self._request(ZERO, ZERO)).stats == PlanStats(1, 32, 1, 1, 32)

    def test_stats_count_one_follower_solve_per_leader_evaluation(self):
        stats = bilevel_plan(self._request(*MIXED_WEIGHTS)).stats
        assert stats.follower_solves == stats.leader_evaluated > 1
        assert stats.follower_evaluated > stats.follower_solves

    def test_deterministic_for_identical_requests(self):
        request = self._request((0, -1.5, -0.5, -1.0, 0.3, 2.0), (0, -1.0, -0.5, -1.0, 0.3, -1.0))
        assert bilevel_plan(request) == bilevel_plan(request)

    def test_overflowing_leader_cost_is_an_error(self):
        # six speed penalties of about 0.63, each weighted 1e308, sum past the float range
        weights = (0.0, 0.0, 1e308, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="leader cost is not finite: inf"):
            bilevel_plan(self._request(weights, ZERO))

    def test_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            self._request(ZERO, ZERO, horizon=0)
        with pytest.raises(ValueError):
            PlanRequest(LEADER, FOLLOWER, (0.0,) * 5, ZERO)

    def test_rejects_nan_leader_weight(self):
        for weight in (math.nan, 10**400, Fraction(10**400)):
            with pytest.raises(ValueError, match="finite"):
                self._request((weight, 0, 0, 0, 0, 0), ZERO)

    def test_rejects_nan_dt(self):
        for dt in (math.nan, 10**400, Fraction(10**400)):
            with pytest.raises(ValueError, match="dt"):
                PlanRequest(LEADER, FOLLOWER, ZERO, ZERO, dt=dt)

    def test_rejects_non_integer_horizon(self):
        for horizon in (2.5, True):
            with pytest.raises(ValueError, match="horizon"):
                self._request(ZERO, ZERO, horizon=horizon)

    def test_horizon_is_bounded(self):
        assert self._request(ZERO, ZERO, horizon=MAX_HORIZON).horizon == MAX_HORIZON
        for horizon in (MAX_HORIZON + 1, 10**12):
            with pytest.raises(ValueError, match="horizon"):
                self._request(ZERO, ZERO, horizon=horizon)
        with pytest.raises(ValueError, match="steps"):
            follower_plan(FOLLOWER, LEADER, (Control(0.0, 0.0),) * (MAX_HORIZON + 1), ZERO)


class TestFollowerPlanInput:
    CONTROLS = (Control(0.0, 0.0),) * 6

    def test_rejects_nan_weight(self):
        for weight in (math.inf, 10**400, Fraction(10**400)):
            with pytest.raises(ValueError, match="finite"):
                follower_plan(FOLLOWER, LEADER, self.CONTROLS, (0, 0, weight, 0, 0, 0), 0.2, FP, BP)

    def test_rejects_nan_dt(self):
        for dt in (math.nan, 10**400, Fraction(10**400)):
            with pytest.raises(ValueError, match="dt"):
                follower_plan(FOLLOWER, LEADER, self.CONTROLS, ZERO, dt, FP, BP)

    def test_rejects_nan_leader_control(self):
        with pytest.raises(ValueError, match="acceleration"):
            follower_plan(FOLLOWER, LEADER, (Control(math.nan, 0.0),), ZERO, 0.2, FP, BP)

    def test_overflowing_rollout_raises(self):
        runaway = VehicleState(7.5, 1.7e308, 1e308, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            follower_plan(runaway, LEADER, self.CONTROLS, ZERO, 0.2, FP, BP)


MIXED_WEIGHTS = ((0, -1.5, -0.5, -1.0, 0.3, 2.0), (0, -1.0, -0.5, -1.0, 0.3, -1.0))


def _scenario_requests():
    """The request of every weight cell at both shipped scenarios' start states.

    The first step of an episode plans for one of these cells.
    """
    cases = []
    for name in ("lane_merge.json", "lane_merge_responsibility.json"):
        scenario = load_scenario(SCENARIO_DIR / name)
        for cell, (leader_w, follower_w) in sorted(scenario.weights.items()):
            request = PlanRequest(
                leader_state=scenario.leader_start,
                follower_state=scenario.follower_start,
                leader_weights=leader_w,
                follower_weights=follower_w,
                horizon=scenario.horizon,
                dt=scenario.dt,
                feature_params=scenario.feature_params,
                bicycle_params=scenario.bicycle_params,
            )
            cases.append(pytest.param(request, id=f"{name}-{cell[0]}{cell[1]}"))
    return cases


def _distinct_cell_requests():
    """The shipped scenarios' first-step requests, each distinct one once."""
    cases = []
    for case in _scenario_requests():
        if all(case.values[0] != seen.values[0] for seen in cases):
            cases.append(case)
    return cases


def _request(leader, follower, weights, horizon):
    return PlanRequest(leader, follower, *weights, horizon=horizon, dt=0.2,
                       feature_params=FP, bicycle_params=BP)


STANDSTILL = (VehicleState(2.5, 0.0, 0.0, 0.0), VehicleState(7.5, -3.0, 0.0, 0.0))
# a negative lead weight rewards falling behind, so both searches try braking
BRAKING = ((0, -1.0, -0.5, 0, 0.3, -1.0), (0, 0, -0.5, 0, 0.3, -1.0))


OFF_CENTRE = (VehicleState(4.0, 0.0, 8.0, 0.15), VehicleState(6.0, -4.0, 9.0, -0.1))
STEERING = ((-2.0, 0, 0, -0.5, 0.3, 1.0), (0, -2.0, -0.5, -0.5, 0.3, -0.5))
# a distinct nonzero weight on every feature of both vehicles
UNEVEN = ((-1.7, -0.6, -0.9, -1.3, 0.8, 1.1), (-0.4, -1.9, -0.7, -1.2, 0.6, -0.8))
# a negative w4 rewards closing in, so its bound term is |w4|; w5 = 0 adds no slack
PROXIMITY = ((-1.7, -0.6, -0.9, -1.3, -0.8, 0.0), (-0.4, -1.9, -0.7, -1.2, -0.6, 0.0))


#: ``bilevel_plan(...).stats`` of each distinct shipped cell at horizons 1, 2 and 7, as
#: the planner counted them before its inner loop was made lean: that gain came from
#: cheaper evaluations, not fewer. A change to the bound or the search order shows here.
PINNED_STATS = {
    "lane_merge.json-00": ((31, 0, 31, 257, 704), (41, 0, 41, 1312, 0), (40, 5, 40, 706, 576)),
    "lane_merge.json-01": ((31, 0, 31, 273, 688), (32, 0, 32, 1233, 0), (32, 0, 32, 776, 297)),
    "lane_merge.json-10": ((31, 0, 31, 371, 972), (38, 0, 38, 1459, 2), (46, 3, 46, 773, 1199)),
    "lane_merge.json-20": ((27, 6, 27, 257, 796), (25, 8, 25, 970, 5), (15, 18, 15, 394, 255)),
    "lane_merge.json-21": ((27, 6, 27, 237, 816), (25, 8, 25, 875, 100), (9, 24, 9, 149, 244)),
}


@pytest.mark.parametrize("request_, pinned", [
    pytest.param(case.values[0], PINNED_STATS.get(case.id), id=case.id)
    for case in _distinct_cell_requests()
])
def test_work_counts_are_pinned(request_, pinned):
    stats = tuple(bilevel_plan(dataclasses.replace(request_, horizon=horizon)).stats
                  for horizon in (1, 2, 7))
    assert pinned is not None and stats == tuple(PlanStats(*counts) for counts in pinned)


class TestOracleParity:
    """The planner returns exactly what the plain nested search returns."""

    def _assert_parity(self, request):
        """Controls and leader cost equal the oracle's bit for bit; returns the plan's stats."""
        plan = bilevel_plan(request)
        assert (
            plan.leader_controls, plan.follower_controls, plan.leader_cost,
        ) == oracle_bilevel_plan(request)
        args = (request.follower_state, request.leader_state, plan.leader_controls,
                request.follower_weights, request.dt, request.feature_params,
                request.bicycle_params)
        assert follower_plan(*args) == oracle_follower_plan(*args)
        return plan.stats

    def _assert_pruned_parity(self, requests):
        """Parity on every request, with candidates pruned at both levels among them.

        Without pruning at a level, parity there would say nothing about its bound.
        """
        stats = [self._assert_parity(request) for request in requests]
        assert sum(s.leader_pruned for s in stats) > 0
        assert sum(s.follower_pruned for s in stats) > 0

    @pytest.mark.parametrize("request_", _scenario_requests())
    def test_shipped_scenarios_first_step(self, request_):
        self._assert_parity(request_)

    @pytest.mark.parametrize("horizon", [1, 2, 7])
    @pytest.mark.parametrize("request_", _distinct_cell_requests())
    def test_every_shipped_cell_with_pruning(self, request_, horizon):
        # 30 m apart, the lead term saturates at +-|w5|: a bound on the side
        # that term favours is tight, so both searches prune most candidates
        follower = request_.follower_state
        self._assert_pruned_parity([
            dataclasses.replace(request_, horizon=horizon,
                                follower_state=dataclasses.replace(follower, y=follower.y + gap))
            for gap in (0.0, 30.0, -30.0)
        ])

    @pytest.mark.parametrize("seed", range(3))
    def test_random_states_and_weights_with_pruning(self, seed):
        rng = random.Random(seed)

        def vehicle(x):
            return VehicleState(x + rng.uniform(-1.5, 1.5), rng.uniform(-40.0, 40.0),
                                rng.uniform(0.0, 15.0), rng.uniform(-0.2, 0.2))

        def weights():
            # w4 in [-1, 1]: a negative one rewards proximity, and its bound term is |w4|
            w0, w1, w2, w3, w4, w5 = (round(rng.uniform(-3.0, 3.0), 2) for _ in range(6))
            return (w0, w1, w2, w3, w4 / 3, w5)

        self._assert_pruned_parity([
            _request(vehicle(FP.x_left), vehicle(FP.x_right), (weights(), weights()),
                     rng.randint(1, 7))
            for _ in range(8)
        ])

    def test_exact_bound_keeps_sub_millitolerance_gains(self):
        # w4 = w5 = 0 make every bound equal its objective, so a skip test any
        # looser than best + SOLVER_TOL would drop these gains of ~1e-4
        slow = (VehicleState(2.5, 0.0, 6.0, 0.0), VehicleState(7.5, 0.0, 6.0, 0.0))
        weights = ((0, 0, -2e-4, 0, 0, 0), (0, 0, -5e-4, 0, 0, 0))
        request = _request(*slow, weights, 6)
        self._assert_parity(request)
        plan = bilevel_plan(request)
        assert plan.leader_controls[0].accel == plan.follower_controls[0].accel == BP.accel_max
        assert plan.stats.leader_pruned > 0 and plan.stats.follower_pruned > 0

    @pytest.mark.parametrize("horizon", [1, 5])
    def test_short_and_odd_horizons(self, horizon):
        self._assert_parity(_request(LEADER, FOLLOWER, MIXED_WEIGHTS, horizon))

    @pytest.mark.parametrize("horizon", [1, 5, 6])
    def test_both_vehicles_steering_back_to_their_lanes(self, horizon):
        self._assert_parity(_request(*OFF_CENTRE, STEERING, horizon))

    def test_braking_from_standstill_hits_speed_clamp(self):
        request = _request(*STANDSTILL, BRAKING, 6)
        full_brake = oracle_leader_value(request, (-BP.accel_max, 0.0, -BP.accel_max, 0.0))
        assert all(state.v == 0.0 for state in full_brake[3])
        self._assert_parity(request)

    @pytest.mark.parametrize("horizon", [1, 2, 7])
    def test_uneven_weights_on_every_feature(self, horizon):
        # horizon 1 has an empty second half; 2 and 7 split evenly and unevenly
        self._assert_parity(_request(*OFF_CENTRE, UNEVEN, horizon))

    def test_vehicles_too_far_apart_to_square_the_gap(self):
        # 1e200 m apart: the safety ellipse scores 0.0 instead of squaring the gap
        far = dataclasses.replace(FOLLOWER, y=1e200)
        self._assert_parity(_request(LEADER, far, MIXED_WEIGHTS, 2))

    def test_proximity_seeking_weights_with_pruning(self):
        self._assert_pruned_parity([_request(*OFF_CENTRE, PROXIMITY, h) for h in (1, 2, 7)])

    def test_one_follower_first_half_rollout_per_control_pair(self, monkeypatch):
        request = _scenario_requests()[0].values[0]  # lane_merge.json, first weight cell
        follower = request.follower_state
        start = (follower.x, follower.y, follower.v, follower.theta)
        first = (request.horizon + 1) // 2
        heads = []

        def counting_advance(state, accel, steer, steps, wheelbase, dt):
            if state == start and steps == first:
                heads.append((accel, steer))
            return _advance(state, accel, steer, steps, wheelbase, dt)

        monkeypatch.setattr(planner, "_advance", counting_advance)
        bilevel_plan(request)
        assert len(heads) > 1
        assert len(heads) == len(set(heads))

    def test_one_second_half_rollout_per_control_quadruple(self, monkeypatch):
        request = _scenario_requests()[0].values[0]  # lane_merge.json, first weight cell
        starts = {(s.x, s.y, s.v, s.theta) for s in (request.leader_state, request.follower_state)}
        tails = []

        def counting_advance(state, accel, steer, steps, wheelbase, dt):
            if state not in starts:  # a second half starts where its first half ends
                tails.append((state, accel, steer))
            return _advance(state, accel, steer, steps, wheelbase, dt)

        monkeypatch.setattr(planner, "_advance", counting_advance)
        bilevel_plan(request)
        assert len(tails) > 1
        assert len(tails) == len(set(tails))

    def test_follower_plan_against_uneven_leader_controls(self):
        leader_controls = tuple(Control(1.5 - k, 0.1 * (-1) ** k) for k in range(5))
        args = (FOLLOWER, LEADER, leader_controls, MIXED_WEIGHTS[1], 0.2, FP, BP)
        assert follower_plan(*args) == oracle_follower_plan(*args)


class TestRecedingHorizon:
    """The first controls of a full-horizon plan, re-planned every step."""

    def test_stationary_world_zero_weights(self):
        plan = bilevel_plan(_request(
            VehicleState(2.5, 0.0, 0.0, 0.0), VehicleState(7.5, 0.0, 0.0, 0.0), (ZERO, ZERO), 6,
        ))
        assert plan.leader_controls[0] == Control(0.0, 0.0)
        assert plan.follower_controls[0] == Control(0.0, 0.0)

    def test_plan_length_is_horizon_regardless_of_remaining_steps(self):
        plan = bilevel_plan(_request(LEADER, FOLLOWER, (ZERO, ZERO), 6))
        assert len(plan.leader_controls) == 6
        assert len(plan.follower_controls) == 6

    def test_repeated_steps_converge_to_speed_limit(self):
        leader = VehicleState(2.5, 0.0, 4.0, 0.0)
        follower = VehicleState(7.5, 300.0, 10.0, 0.0)
        weights = ((0, 0, -1.0, -0.5, 0, 0), ZERO)
        for _ in range(30):
            ctrl = bilevel_plan(_request(leader, follower, weights, 6)).leader_controls[0]
            leader = step(leader, ctrl, BP, 0.2)
            follower = step(follower, Control(0.0, 0.0), BP, 0.2)
        assert abs(leader.v - FP.v_limit) < 0.5
