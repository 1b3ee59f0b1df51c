"""Belief representation and update behaviour."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altmerge.belief import (
    ENTROPY_FLOOR,
    MASS_TOL,
    POINT_WIDTH,
    BeliefContradictionError,
    IntervalBelief,
    Partition,
    bayes_update,
    entropy,
    mass_below,
    partition_domain,
)
from altmerge.game import AltruismGame


class TestPartition:
    def test_rejects_missing_endpoints(self):
        with pytest.raises(ValueError):
            Partition((0, Fraction(1, 2)))

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            Partition((0, 0.7, 0.3, 1))

    def test_refinement_inserts_and_dedupes(self):
        part = Partition((0, Fraction(1, 2), 1))
        finer = part.refined((Fraction(1, 4), Fraction(1, 2)))
        assert finer.breakpoints == (0, Fraction(1, 4), Fraction(1, 2), 1)
        assert finer.refines(part)
        assert not part.refines(finer)

    def test_rejects_breakpoints_that_round_to_one_float(self):
        # distinct exact values, one float: a cell between them would have no float width
        with pytest.raises(ValueError, match="strictly increasing as floats"):
            Partition((0, 1 / 3, Fraction(1, 3), 1))

    def test_refinement_keeps_the_exact_breakpoint_of_a_float(self):
        part = Partition((0, Fraction(1, 3), 1))
        assert part.refined((1 / 3, Fraction(1, 3))).breakpoints == part.breakpoints
        assert Partition((0, 1 / 3, 1)).refines(part) and part.refines(Partition((0, 1 / 3, 1)))
        # one float apart is two breakpoints
        apart = part.refined((math.nextafter(1 / 3, 1),))
        assert apart.breakpoints == (0, Fraction(1, 3), math.nextafter(1 / 3, 1), 1)

    def test_cell_geometry_is_computed_once(self):
        part = Partition((0, Fraction(1, 3), 0.5, 1))
        for name in ("cells", "floats", "widths", "midpoints"):
            assert getattr(part, name) is getattr(part, name)
        assert part.floats == (0.0, 1 / 3, 0.5, 1.0)

    @pytest.mark.parametrize("breakpoints, midpoints", [
        ((0, 1), (Fraction(1, 2),)),
        ((0, Fraction(1, 4), Fraction(1, 2), 0.75, 1),
         (Fraction(1, 8), Fraction(3, 8), 0.625, 0.875)),
        ((0, 0.25, 1), (0.125, 0.625)),
    ])
    def test_midpoints_are_exact_unless_a_bound_is_a_float(self, breakpoints, midpoints):
        got = Partition(breakpoints).midpoints
        assert [(m, type(m)) for m in got] == [(m, type(m)) for m in midpoints]


class TestIntervalBelief:
    @pytest.mark.parametrize("masses", [
        (math.nan, 0.5), (math.nan, 1.0), (math.inf, 0.0),
        pytest.param((10**400, 0.0), id="int_past_float_range"),
        pytest.param((0.5, -Fraction(10**400)), id="fraction_past_float_range"),
        pytest.param((-2 * MASS_TOL, 1.0), id="below_minus_mass_tol"),
    ])
    def test_rejects_non_finite_mass(self, masses):
        with pytest.raises(ValueError, match="mass"):
            IntervalBelief(Partition((0, 0.5, 1)), masses)

    @pytest.mark.parametrize("low", [-MASS_TOL / 2, -MASS_TOL, -0.0])
    def test_stores_a_mass_down_to_minus_mass_tol_as_zero(self, low):
        masses = IntervalBelief(Partition((0, 0.5, 1)), (low, 1 - low)).masses
        assert masses == (0.0, 1 - low) and math.copysign(1.0, masses[0]) == 1.0

    @pytest.mark.parametrize("call, message", [
        (lambda game: IntervalBelief(Partition((0, 0.5, 1)), (1.0,)),
         "one mass per partition cell required"),
        (lambda game: IntervalBelief.uniform_on(0.6, 0.4), "invalid support [0.6, 0.4]"),
        (lambda game: IntervalBelief.uniform_on(1 / 3, Fraction(1, 3)), "invalid support"),
        (lambda game: IntervalBelief.uniform_on(Fraction(1, 3), Fraction(10**30 + 3, 3 * 10**30)),
         "invalid support"),
        (lambda game: bayes_update(IntervalBelief.uniform(partition_domain(game)), game, 0, (1.0,)),
         "one likelihood per follower action required"),
        (lambda game: mass_below(IntervalBelief.uniform(Partition((0, 1))), 1.5),
         "threshold 1.5 outside [0, 1]"),
    ], ids=["one_mass", "reversed_support", "support_at_one_float", "fraction_support_at_one_float",
            "one_likelihood", "threshold"])
    def test_rejects_malformed_input(self, lane_merge_game, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(lane_merge_game)


class TestPartitionDomain:
    def test_lane_merge_domain(self, lane_merge_game):
        part = partition_domain(lane_merge_game)
        assert part.breakpoints == (0, Fraction(5, 18), Fraction(1, 2), 1)

    def test_sufficiency_domain(self, sufficiency_game):
        part = partition_domain(sufficiency_game)
        assert part.breakpoints == (0, Fraction(5, 12), Fraction(5, 6), 1)

    def test_constant_follower_rewards_leave_unit_interval(self):
        game = AltruismGame(("a",), ("x", "y"), (((1, 2), (0, 2)),))
        assert partition_domain(game).breakpoints == (0, 1)


class TestEntropy:
    def test_full_uniform_is_zero(self):
        assert entropy(IntervalBelief.uniform(Partition((0, 1)))) == pytest.approx(0.0)

    def test_uniform_subinterval_is_log_width(self):
        b = IntervalBelief.uniform_on(Fraction(5, 12), 1)
        assert entropy(b) == pytest.approx(math.log(7 / 12))
        narrow = IntervalBelief.uniform_on(Fraction(1, 6), Fraction(1, 3))
        assert entropy(narrow) == pytest.approx(math.log(1 / 6))

    def test_point_mass_hits_floor(self):
        sliver = IntervalBelief.uniform_on(0.5 - POINT_WIDTH / 2, 0.5 + POINT_WIDTH / 2)
        assert entropy(sliver) == pytest.approx(ENTROPY_FLOOR)

    def test_maximal_only_for_full_uniform(self):
        rng = random.Random(11)
        for _ in range(100):
            lo, hi = sorted(rng.uniform(0, 1) for _ in range(2))
            if hi - lo < 1e-3 or (lo, hi) == (0, 1):
                continue
            assert entropy(IntervalBelief.uniform_on(lo, hi)) < 0


class TestBayesUpdate:
    def test_flat_likelihood_leaves_belief_unchanged(self, lane_merge_game):
        b = IntervalBelief.uniform(partition_domain(lane_merge_game))
        updated = bayes_update(b, lane_merge_game, 0, (0.5, 0.5))
        assert updated.masses == pytest.approx(b.masses)

    def test_one_hot_equals_interval_conditioning(self, lane_merge_game):
        # give-way in the merge-ahead row is the response on (5/18, 1) only
        b = IntervalBelief.uniform(partition_domain(lane_merge_game))
        updated = bayes_update(b, lane_merge_game, 0, (1.0, 0.0))
        assert b.partition.breakpoints == (0, Fraction(5, 18), Fraction(1, 2), 1)
        assert updated.masses == pytest.approx((0.0, 4 / 13, 9 / 13))

    def test_soft_update_arithmetic(self, lane_merge_game):
        # probe row splits at 1/2; likelihood 0.8 on give-way favours the top cell
        b = IntervalBelief.uniform_on(0, 1, partition_domain(lane_merge_game))
        updated = bayes_update(b, lane_merge_game, 2, (0.8, 0.2))
        above = mass_below(updated, 1) - mass_below(updated, Fraction(1, 2))
        below = mass_below(updated, Fraction(1, 2))
        assert above == pytest.approx(0.8)
        assert below == pytest.approx(0.2)

    def test_successive_updates_equal_product_likelihood(self, lane_merge_game):
        part = partition_domain(lane_merge_game)
        rng = random.Random(5)
        for _ in range(50):
            raw = [rng.uniform(0, 1) for _ in range(part.n_cells)]
            total = sum(raw)
            b = IntervalBelief(part, tuple(x / total for x in raw))
            l1 = (rng.uniform(0.1, 1), rng.uniform(0.1, 1))
            l2 = (rng.uniform(0.1, 1), rng.uniform(0.1, 1))
            stepwise = bayes_update(bayes_update(b, lane_merge_game, 0, l1), lane_merge_game, 0, l2)
            product = bayes_update(b, lane_merge_game, 0, (l1[0] * l2[0], l1[1] * l2[1]))
            assert stepwise.masses == pytest.approx(product.masses)

    def test_zero_posterior_raises_contradiction(self, lane_merge_game):
        part = partition_domain(lane_merge_game)
        b = IntervalBelief(part, (1.0, 0.0, 0.0))  # all mass below 5/18: response is stay-ahead
        with pytest.raises(BeliefContradictionError):
            bayes_update(b, lane_merge_game, 0, (1.0, 0.0))

    def test_rejects_invalid_likelihoods(self, lane_merge_game):
        b = IntervalBelief.uniform(partition_domain(lane_merge_game))
        with pytest.raises(ValueError):
            bayes_update(b, lane_merge_game, 0, (0.0, 0.0))
        with pytest.raises(ValueError):
            bayes_update(b, lane_merge_game, 0, (-0.1, 1.0))

    @pytest.mark.parametrize("likelihoods", [
        (math.inf, 0.5), (math.nan, 0.5), (10**400, 0.5), (0.5, Fraction(10**400)),
    ], ids=["inf", "nan", "int_past_float_range", "fraction_past_float_range"])
    def test_rejects_non_finite_likelihoods(self, lane_merge_game, likelihoods):
        b = IntervalBelief.uniform(partition_domain(lane_merge_game))
        with pytest.raises(ValueError, match="likelihoods must be nonnegative and finite"):
            bayes_update(b, lane_merge_game, 0, likelihoods)

    def test_accepts_its_own_posterior_of_a_belief_with_a_negative_mass(self):
        game = AltruismGame(("a", "b"), ("x", "y"), (((1, 0), (0, 1)), ((1, 1), (0, 0))))
        belief = IntervalBelief(partition_domain(game), (-9e-10, 1 + 9e-10))
        posterior = bayes_update(belief, game, 0, (0.5, 1.0))
        assert all(m >= 0 for m in posterior.masses) and sum(posterior.masses) == 1.0

    def test_requires_refined_partition(self, lane_merge_game):
        coarse = IntervalBelief.uniform(Partition((0, 1)))
        with pytest.raises(ValueError):
            bayes_update(coarse, lane_merge_game, 0, (0.5, 0.5))


class TestMassBelow:
    def test_uniform_midpoint(self):
        b = IntervalBelief.uniform(Partition((0, 1)))
        assert mass_below(b, 0.5) == pytest.approx(0.5)

    def test_partial_interval_ratio(self):
        b = IntervalBelief.uniform_on(Fraction(5, 12), 1)
        assert mass_below(b, Fraction(5, 6)) == pytest.approx(5 / 7)

    def test_total_mass_at_one(self):
        b = IntervalBelief.uniform_on(0.3, 0.4)
        assert mass_below(b, 1) == pytest.approx(1.0)


@given(
    masses=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    likelihoods=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    row=st.integers(0, 2),
)
def test_updates_preserve_mass_property(masses, likelihoods, row):
    game = AltruismGame(
        ("merge_ahead", "merge_behind", "probe"),
        ("give_way", "stay_ahead"),
        (((3, -2), (-10, 3)), ((0, -2), (1, 3)), ((2, 0), (-1, 3))),
    )
    part = partition_domain(game)
    total = sum(masses)
    b = IntervalBelief(part, tuple(m / total for m in masses))
    updated = bayes_update(b, game, row, likelihoods)
    assert sum(updated.masses) == pytest.approx(1.0)
    assert all(m >= 0 for m in updated.masses)
    assert updated.partition.breakpoints[0] == 0
    assert updated.partition.breakpoints[-1] == 1


# ---------------------------------------------------------------------------
# References: each site's expression with float() at every use, to compare with
# the results that read the partition's floats

def _float_site_refines(part, other):
    return all(any(float(p) == float(q) for q in part.breakpoints) for p in other.breakpoints)


def _float_site_refined(part, points):
    merged = list(part.breakpoints)
    for p in points:
        if not any(float(p) == float(q) for q in merged):
            merged.append(p)
    return Partition(tuple(sorted(merged, key=float)))


def _float_site_uniform_on(lo, hi, base):
    if not (0 <= lo < hi <= 1 and float(lo) < float(hi)):
        raise ValueError(f"invalid support [{lo}, {hi}]")
    part = _float_site_refined(base, tuple(p for p in (lo, hi) if 0 < p < 1))
    total = float(hi - lo)
    masses = []
    for clo, chi in part.cells:
        overlap = max(0.0, min(float(chi), float(hi)) - max(float(clo), float(lo)))
        masses.append(overlap / total)
    return IntervalBelief(part, tuple(masses))


def _float_site_belief_refined(belief, points):
    part = _float_site_refined(belief.partition, points)
    masses = []
    old = iter(zip(belief.partition.cells, belief.masses))
    (lo, hi), mass = next(old)
    for clo, chi in part.cells:
        while not (float(lo) <= float(clo) and float(chi) <= float(hi)):
            (lo, hi), mass = next(old)
        frac = (float(chi) - float(clo)) / (float(hi) - float(lo))
        masses.append(mass * frac)
    return IntervalBelief(part, tuple(masses))


def _float_site_mass_below(belief, x):
    total = 0.0
    for (lo, hi), mass in zip(belief.partition.cells, belief.masses):
        if float(x) >= float(hi):
            total += mass
        elif float(x) > float(lo):
            total += mass * (float(x) - float(lo)) / (float(hi) - float(lo))
    return total


def _exact(make):
    """``make()``'s partition or belief with each breakpoint's type and each mass's
    bits, or the type of the exception it raises."""
    try:
        value = make()
    except Exception as error:  # the exception type is the outcome compared
        return type(error)
    if isinstance(value, Partition):
        return tuple((type(p), p) for p in value.breakpoints)
    return _exact(lambda: value.partition), tuple(m.hex() for m in value.masses)


_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=60)


@st.composite
def _mixed_geometry(draw):
    """A partition mixing Fraction and float breakpoints, some within MASS_TOL of
    each other yet distinct as floats, plus a belief on it and points at or
    near its breakpoints."""
    inner = {}
    for p in draw(st.lists(_UNIT.filter(lambda p: 0 < p < 1), max_size=5)):
        kind = draw(st.sampled_from(("fraction", "float", "twins")))
        inner.setdefault(float(p), float(p) if kind == "float" else p)
        if kind == "twins":
            twin = float(p) + draw(st.floats(-MASS_TOL, MASS_TOL).filter(lambda d: d != 0))
            inner.setdefault(twin, twin)
    part = Partition((0, *(inner[f] for f in sorted(inner)), 1))
    weights = draw(st.lists(st.integers(0, 4), min_size=part.n_cells, max_size=part.n_cells))
    weights[draw(st.integers(0, part.n_cells - 1))] += 1
    belief = IntervalBelief(part, tuple(w / sum(weights) for w in weights))
    near = st.builds(lambda anchor, offset: min(1.0, max(0.0, float(anchor) + offset)),
                     st.sampled_from(part.breakpoints), st.floats(-3 * MASS_TOL, 3 * MASS_TOL))
    points = draw(st.lists(st.one_of(_UNIT, st.floats(0, 1), near), max_size=6))
    return belief, tuple(points)


@settings(max_examples=300, deadline=None)
@given(_mixed_geometry())
def test_float_breakpoints_match_the_per_site_float_calls(geometry):
    belief, points = geometry
    part = belief.partition
    finer = _float_site_refined(part, points)
    assert _exact(lambda: part.refined(points)) == _exact(lambda: finer)
    alone = _float_site_refined(Partition((0, 1)), points)
    for a, b in ((part, finer), (finer, part), (part, alone), (alone, part)):
        assert a.refines(b) is _float_site_refines(a, b)
    assert _exact(lambda: belief.refined(points)) == _exact(
        lambda: _float_site_belief_refined(belief, points))
    for x in (*points, *part.breakpoints):
        assert mass_below(belief, x).hex() == _float_site_mass_below(belief, x).hex()
    ends = sorted({*points, *part.breakpoints})
    for lo, hi in (*zip(ends, ends[1:]), (ends[0], ends[-1])):
        assert _exact(lambda: IntervalBelief.uniform_on(lo, hi, part)) == _exact(
            lambda: _float_site_uniform_on(lo, hi, part))
