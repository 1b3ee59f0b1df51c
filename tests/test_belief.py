"""Belief representation and update behaviour."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from altmerge.belief import (
    ENTROPY_FLOOR,
    POINT_WIDTH,
    BeliefContradictionError,
    IntervalBelief,
    Partition,
    bayes_update,
    condition_on_interval,
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


class TestIntervalBelief:
    @pytest.mark.parametrize("masses", [(math.nan, 0.5), (math.nan, 1.0), (math.inf, 0.0)])
    def test_rejects_non_finite_mass(self, masses):
        with pytest.raises(ValueError, match="mass"):
            IntervalBelief(Partition((0, 0.5, 1)), masses)


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


class TestConditionOnInterval:
    def test_restricts_full_uniform(self):
        b = IntervalBelief.uniform(Partition((0, 1)))
        conditioned = condition_on_interval(b, (Fraction(5, 18), 1))
        assert conditioned.support == (Fraction(5, 18), 1)
        assert entropy(conditioned) == pytest.approx(math.log(13 / 18))

    def test_restriction_of_restriction(self):
        b = IntervalBelief.uniform_on(Fraction(5, 12), 1)
        conditioned = condition_on_interval(b, (Fraction(5, 6), 1))
        assert conditioned.support == (Fraction(5, 6), 1)
        assert entropy(conditioned) == pytest.approx(math.log(1 / 6))

    def test_disjoint_support_raises(self):
        b = IntervalBelief.uniform_on(0, 0.5)
        with pytest.raises(BeliefContradictionError):
            condition_on_interval(b, (0.6, 1))


class TestBayesUpdate:
    def test_flat_likelihood_leaves_belief_unchanged(self, lane_merge_game):
        b = IntervalBelief.uniform(partition_domain(lane_merge_game))
        updated = bayes_update(b, lane_merge_game, 0, (0.5, 0.5))
        assert updated.masses == pytest.approx(b.masses)

    def test_one_hot_equals_interval_conditioning(self, lane_merge_game):
        b = IntervalBelief.uniform(partition_domain(lane_merge_game))
        updated = bayes_update(b, lane_merge_game, 0, (1.0, 0.0))
        conditioned = condition_on_interval(b, (Fraction(5, 18), 1))
        assert updated.masses == pytest.approx(conditioned.masses)

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

    @pytest.mark.parametrize("likelihoods", [(math.inf, 0.5), (math.nan, 0.5)], ids=["inf", "nan"])
    def test_rejects_non_finite_likelihoods(self, lane_merge_game, likelihoods):
        b = IntervalBelief.uniform(partition_domain(lane_merge_game))
        with pytest.raises(ValueError, match="likelihoods must be nonnegative and finite"):
            bayes_update(b, lane_merge_game, 0, likelihoods)

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
