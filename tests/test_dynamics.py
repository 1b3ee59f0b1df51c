"""Vehicle model and feature behaviour."""

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
    features,
    step,
)
from oracles import oracle_features

BP = BicycleParams()
FP = FeatureParams()


class TestParams:
    @pytest.mark.parametrize("field", ["wheelbase", "accel_max", "steer_max"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, 0.0, pytest.param(10**400, id="int_past_float_range")])
    def test_bicycle_params_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            BicycleParams(**{field: value})

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf,
        pytest.param(10**400, id="int_past_float_range"),
        pytest.param(Fraction(10**400), id="fraction_past_float_range"),
    ])
    def test_feature_params_must_be_finite(self, value):
        with pytest.raises(ValueError, match="lambda_x"):
            FeatureParams(lambda_x=value)

    @pytest.mark.parametrize("make, message", [
        (lambda: VehicleState(0.0, math.nan, 5.0, 0.0), "non-finite state component y"),
        (lambda: FeatureParams(length_margin=-10.0), "longitudinal ellipse axis must be positive"),
    ], ids=["state_y_nan", "length_margin"])
    def test_rejects_malformed_input(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestStep:
    def test_straight_line_motion(self):
        state = VehicleState(x=2.5, y=0.0, v=10.0, theta=0.0)
        nxt = step(state, Control(0.0, 0.0), BP, dt=0.2)
        assert nxt.y == pytest.approx(2.0)
        assert (nxt.x, nxt.v, nxt.theta) == (state.x, state.v, state.theta)

    def test_euler_velocity_update(self):
        state = VehicleState(0.0, 0.0, 10.0, 0.0)
        nxt = step(state, Control(1.0, 0.0), BP, dt=0.2)
        assert nxt.v == pytest.approx(10.2)

    def test_heading_rate_matches_model(self):
        state = VehicleState(0.0, 0.0, 8.0, 0.1)
        steer = 0.2
        nxt = step(state, Control(0.0, steer), BP, dt=0.2)
        assert abs(nxt.theta - state.theta) == pytest.approx(
            (state.v / BP.wheelbase) * math.tan(steer) * 0.2, abs=1e-12
        )

    def test_speed_clamps_at_zero(self):
        state = VehicleState(0.0, 0.0, 0.3, 0.0)
        nxt = step(state, Control(-3.0, 0.0), BP, dt=0.2)
        assert nxt.v == 0.0

    def test_zero_controls_conserve_speed_and_heading(self):
        rng = random.Random(1)
        for _ in range(50):
            state = VehicleState(
                rng.uniform(0, 10), rng.uniform(-5, 5), rng.uniform(0, 15), rng.uniform(-0.4, 0.4)
            )
            nxt = step(state, Control(0.0, 0.0), BP, dt=0.2)
            assert nxt.v == state.v
            assert nxt.theta == state.theta

    def test_overflow_names_dt_and_control(self):
        start = VehicleState(0.0, 0.0, 10.0, 0.0)
        with pytest.raises(ValueError, match=r"= \(0\.0, inf, 3e\+200, 0\.0\) from dt 1e\+200 "
                           r"and control \(accel, steer\) = \(3\.0, 0\.0\)$"):
            step(start, Control(3.0, 0.0), BP, 1e200)

    def test_rejects_out_of_limit_controls(self):
        state = VehicleState(0.0, 0.0, 5.0, 0.0)
        with pytest.raises(ValueError):
            step(state, Control(10.0, 0.0), BP, dt=0.2)
        with pytest.raises(ValueError):
            step(state, Control(0.0, 1.0), BP, dt=0.2)
        with pytest.raises(ValueError):
            step(state, Control(0.0, 0.0), BP, dt=0.0)


class TestFeatures:
    def test_zero_at_targets(self):
        own = VehicleState(x=FP.x_left, y=0.0, v=FP.v_limit, theta=FP.lane_theta)
        other = VehicleState(x=FP.x_right, y=0.0, v=10.0, theta=0.0)
        phi = features(own, other, FP)
        assert phi[0] == pytest.approx(0.0)
        assert phi[2] == pytest.approx(0.0)
        assert phi[3] == pytest.approx(0.0)
        assert phi[5] == pytest.approx(0.0)  # same longitudinal position

    def test_bounded_penalties_stay_in_unit_range(self):
        rng = random.Random(2)
        for _ in range(200):
            y = rng.uniform(-50, 50)
            own = VehicleState(rng.uniform(-5, 15), y + rng.uniform(-8, 8), rng.uniform(0, 30), rng.uniform(-1, 1))
            other = VehicleState(rng.uniform(-5, 15), y, rng.uniform(0, 30), rng.uniform(-1, 1))
            phi = features(own, other, FP)
            for k in range(4):
                assert 0.0 <= phi[k] <= 1.0  # saturates to 1.0 in float64
            assert -1.0 < phi[5] < 1.0

    def test_zero_rate_penalty_is_zero_however_far_off_target(self):
        # each offset overflows to inf, and 0 * inf would be NaN
        params = FeatureParams(lambda_x=0.0, lambda_theta=0.0, lambda_v=0.0, x_left=-1e308,
                               x_right=-1e308, v_limit=-1e308, lane_theta=-1e308)
        own = VehicleState(x=1e308, y=0.0, v=1e308, theta=1e308)
        assert features(own, own, params)[:4] == (0.0, 0.0, 0.0, 0.0)

    def test_lead_feature_antisymmetric(self):
        a = VehicleState(2.5, 4.0, 10.0, 0.0)
        b = VehicleState(7.5, 1.0, 10.0, 0.0)
        assert features(a, b, FP)[5] == pytest.approx(-features(b, a, FP)[5])

    def test_separation_is_minus_one_at_zero_offset(self):
        own = VehicleState(3.0, 5.0, 10.0, 0.2)
        other = VehicleState(3.0, 5.0, 8.0, 0.4)
        assert features(own, other, FP)[4] == pytest.approx(-1.0)

    def test_separation_symmetric_under_frame_reflection(self):
        other = VehicleState(5.0, 0.0, 10.0, 0.3)
        sin_o, cos_o = math.sin(other.theta), math.cos(other.theta)

        def state_at(lateral, longitudinal):
            return VehicleState(
                other.x + lateral * cos_o + longitudinal * sin_o,
                other.y - lateral * sin_o + longitudinal * cos_o,
                10.0,
                0.0,
            )

        for lat, lon in [(1.0, 2.0), (0.5, -3.0), (2.0, 0.0)]:
            base = features(state_at(lat, lon), other, FP)[4]
            assert features(state_at(-lat, lon), other, FP)[4] == pytest.approx(base)
            assert features(state_at(lat, -lon), other, FP)[4] == pytest.approx(base)

    def test_separation_penalty_relaxes_with_distance(self):
        other = VehicleState(5.0, 0.0, 10.0, 0.0)
        values = [
            features(VehicleState(5.0, 0.0 + gap, 10.0, 0.0), other, FP)[4]
            for gap in (0.0, 1.0, 3.0, 6.0, 12.0)
        ]
        assert values[0] == pytest.approx(-1.0)
        assert values == sorted(values)

    @pytest.mark.parametrize("offset", [1e155, 1e200, 1e308])
    def test_separation_is_zero_however_far_apart(self, offset):
        other = VehicleState(0.0, 0.0, 10.0, 0.0)
        for own in (VehicleState(offset, 0.0, 10.0, 0.0), VehicleState(0.0, offset, 10.0, 0.0),
                    VehicleState(-offset, -offset, 10.0, 0.0)):
            phi4 = features(own, other, FP)[4]
            assert phi4 == 0.0 and math.copysign(1.0, phi4) == 1.0

    def test_every_feature_matches_the_plain_formulas(self):
        """All six features equal the oracle's plain formulas bit for bit, -0.0 included."""
        lat_axis = FP.vehicle_width + FP.width_margin
        lon_axis = FP.vehicle_length + FP.length_margin
        rng = random.Random(10)
        # the centre, the ellipse's ends and the box corners; then near it and up to 1e200 away
        pairs = [(VehicleState(5.0 + sx * lat_axis * a, sy * lon_axis * b, 10.0, 0.0),
                  VehicleState(5.0, 0.0, 10.0, 0.0))
                 for sx in (-1, 1) for sy in (-1, 1) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        for k in range(3000):
            scale = 10.0 ** (rng.uniform(-3.0, 1.5) if k % 2 else rng.uniform(1.5, 200.0))
            pairs.append((VehicleState(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale,
                                       10.0, rng.uniform(-4.0, 4.0)),
                          VehicleState(rng.uniform(-10, 10), rng.uniform(-10, 10), 10.0,
                                       rng.uniform(-4.0, 4.0))))
        # a -0.0 gap, inside the ellipse and outside it
        zero_gaps = [(VehicleState(x, -0.0, 10.0, 0.0), VehicleState(5.0, 0.0, 10.0, 0.0))
                     for x in (5.0, 12.0)]
        far = inside = 0
        for own, other in pairs + zero_gaps:
            phi = features(own, other, FP)
            inside += phi[4] < 0.0
            far += max(abs(own.x), abs(own.y)) > 1e160  # squaring the offset overflows
            assert [f.hex() for f in phi] == [f.hex() for f in oracle_features(own, other, FP)], (
                own, other)
        assert far > 100 and inside > 100
        for own, other in zero_gaps:
            assert features(own, other, FP)[5].hex() == (-0.0).hex()


class TestCost:
    def _trajectories(self, n=6, gap=10.0):
        own = [VehicleState(2.5, gap + 2.0 * k, 10.0, 0.0) for k in range(n)]
        other = [VehicleState(7.5, 2.0 * k, 10.0, 0.0) for k in range(n)]
        return own, other

    def test_zero_weights_cost_nothing(self):
        own, other = self._trajectories()
        assert cost(own, other, (0.0,) * 6, FP) == 0.0

    def test_lead_only_weight_accumulates_tanh(self):
        own, other = self._trajectories(n=6, gap=10.0)
        value = cost(own, other, (0, 0, 0, 0, 0, 1.0), FP)
        assert value == pytest.approx(6 * math.tanh(10.0), abs=1e-6)

    def test_cost_is_linear_in_weights(self):
        own, other = self._trajectories()
        w = (0.3, -1.0, 0.5, -0.2, 0.1, 2.0)
        doubled = tuple(2 * x for x in w)
        assert cost(own, other, doubled, FP) == pytest.approx(2 * cost(own, other, w, FP))

    def test_length_mismatch_is_an_error(self):
        own, other = self._trajectories()
        with pytest.raises(ValueError):
            cost(own[:-1], other, (0.0,) * 6, FP)

    def test_wrong_weight_count_is_an_error(self):
        own, other = self._trajectories()
        with pytest.raises(ValueError):
            cost(own, other, (0.0,) * 5, FP)
