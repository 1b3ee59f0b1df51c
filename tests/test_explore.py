"""Action selection, exploration bonuses, and the conflict wrapper."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import altmerge.explore as explore
from altmerge.belief import POINT_WIDTH, IntervalBelief, Partition, partition_domain
from altmerge.explore import (
    ExplorationStrategy,
    StrategyKind,
    conflict_mass,
    conflict_region,
    decision_partition,
    expected_reward_gain_bonus,
    info_gain_bonus,
    is_conflicted,
    select_action,
)
from altmerge.game import AltruismGame
from altmerge.sim import load_scenario
from conftest import random_game_belief_pairs
from oracles import (
    oracle_conflict_mass,
    oracle_conflict_region,
    oracle_evaluations,
    oracle_info_gain,
    oracle_outcome_distribution,
    oracle_reward_gain,
    oracle_row_expectation,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


PASSIVE = ExplorationStrategy(StrategyKind.PASSIVE)


def uniform_for(game, lo=0, hi=1):
    return IntervalBelief.uniform_on(lo, hi, partition_domain(game))


def passive_rows(game, belief):
    """Every row's ActionEvaluation under the passive strategy."""
    return select_action(game, belief, PASSIVE)[0]


class TestExpectedLeaderReward:
    def test_probe_game_expectations(self, probe_game):
        rows = passive_rows(probe_game, uniform_for(probe_game))
        assert rows[1].expected_reward == pytest.approx(1 / 3)
        assert rows[2].expected_reward == pytest.approx(2.0)
        assert rows[0].expected_reward == pytest.approx(-11 / 15)

    def test_lane_merge_expectation(self, lane_merge_game):
        rows = passive_rows(lane_merge_game, uniform_for(lane_merge_game))
        assert rows[0].expected_reward == pytest.approx(-11 / 18)

    def test_agrees_with_grid_oracle(self, sufficiency_game):
        rows = passive_rows(sufficiency_game, uniform_for(sufficiency_game, 0.2, 0.7))
        for i in range(2):
            expected = oracle_row_expectation(sufficiency_game.rewards, i, 0.2, 0.7)
            assert rows[i].expected_reward == pytest.approx(expected, abs=1e-2)

    def test_partition_mismatch_is_an_error(self, lane_merge_game):
        coarse = IntervalBelief.uniform(Partition((0, 1)))
        with pytest.raises(ValueError):
            passive_rows(lane_merge_game, coarse)


class TestPredictedOutcomeDistribution:
    def test_sufficiency_game_split(self, sufficiency_game):
        rows = passive_rows(sufficiency_game, uniform_for(sufficiency_game))
        assert rows[0].outcome_probabilities == pytest.approx((7 / 12, 5 / 12))

    def test_dominated_row_is_certain(self, lane_merge_game):
        rows = passive_rows(lane_merge_game, uniform_for(lane_merge_game))
        assert rows[1].outcome_probabilities == pytest.approx((0.0, 1.0))

    def test_point_mass_is_one_hot(self, lane_merge_game):
        sliver = IntervalBelief.uniform_on(0.9 - POINT_WIDTH / 2, 0.9 + POINT_WIDTH / 2)
        b = sliver.refined(partition_domain(lane_merge_game).breakpoints)
        dist = passive_rows(lane_merge_game, b)[0].outcome_probabilities
        assert dist == pytest.approx((1.0, 0.0))


class TestInfoGainBonus:
    def test_sufficiency_game_full_prior(self, sufficiency_game):
        b = uniform_for(sufficiency_game)
        assert info_gain_bonus(sufficiency_game, b, 0) == pytest.approx(0.68, abs=0.01)
        assert info_gain_bonus(sufficiency_game, b, 1) == pytest.approx(0.45, abs=0.01)

    def test_sufficiency_game_after_first_observation(self, sufficiency_game):
        b = uniform_for(sufficiency_game, Fraction(5, 12), 1)
        assert info_gain_bonus(sufficiency_game, b, 0) == pytest.approx(0.0, abs=1e-9)
        assert info_gain_bonus(sufficiency_game, b, 1) == pytest.approx(0.6, abs=0.01)

    def test_zero_when_no_breakpoint_in_support(self, probe_game):
        b = uniform_for(probe_game)
        assert info_gain_bonus(probe_game, b, 2) == pytest.approx(0.0, abs=1e-12)


class TestExpectedRewardGainBonus:
    def test_sufficiency_game_full_prior(self, sufficiency_game):
        b = uniform_for(sufficiency_game)
        assert expected_reward_gain_bonus(sufficiency_game, b, 0) == pytest.approx(3.54, abs=0.01)
        assert expected_reward_gain_bonus(sufficiency_game, b, 1) == pytest.approx(1.25, abs=0.01)

    def test_sufficiency_game_after_first_observation(self, sufficiency_game):
        b = uniform_for(sufficiency_game, Fraction(5, 12), 1)
        assert expected_reward_gain_bonus(sufficiency_game, b, 0) == pytest.approx(0.0, abs=1e-9)
        assert expected_reward_gain_bonus(sufficiency_game, b, 1) == pytest.approx(0.41, abs=0.01)

    def test_uninformative_action_scores_zero(self, probe_game):
        b = uniform_for(probe_game)
        assert expected_reward_gain_bonus(probe_game, b, 2) == pytest.approx(0.0, abs=1e-12)


class TestSelectAction:
    def test_probe_game_passive_prefers_safe_row(self, probe_game):
        b = uniform_for(probe_game)
        evals, chosen = select_action(probe_game, b, ExplorationStrategy(StrategyKind.PASSIVE))
        assert chosen == 2
        rewards = [e.expected_reward for e in evals]
        assert rewards == pytest.approx([-11 / 15, 1 / 3, 2], abs=1e-9)

    def test_probe_game_info_gain_still_prefers_safe_row(self, probe_game):
        b = uniform_for(probe_game)
        evals, chosen = select_action(probe_game, b, ExplorationStrategy(StrategyKind.INFO_GAIN))
        assert chosen == 2
        assert [e.total for e in evals] == pytest.approx([-0.04, 0.97, 2.0], abs=0.01)

    def test_probe_game_reward_gain_prefers_probe_row(self, probe_game):
        b = uniform_for(probe_game)
        evals, chosen = select_action(probe_game, b, ExplorationStrategy(StrategyKind.REWARD_GAIN))
        assert chosen == 1
        assert [e.total for e in evals] == pytest.approx([3.96, 4.07, 2.0], abs=0.01)

    def test_lane_merge_info_gain_step_zero_totals(self, lane_merge_game):
        b = uniform_for(lane_merge_game)
        evals, chosen = select_action(
            lane_merge_game, b, ExplorationStrategy(StrategyKind.INFO_GAIN)
        )
        assert [e.total for e in evals] == pytest.approx([-0.02, 1.0, 1.19], abs=0.01)
        assert chosen == 2

    def test_zero_scale_reduces_to_passive(self, probe_game, lane_merge_game, sufficiency_game):
        for game in (probe_game, lane_merge_game, sufficiency_game):
            b = uniform_for(game)
            _, passive = select_action(game, b, ExplorationStrategy(StrategyKind.PASSIVE))
            for kind in (StrategyKind.INFO_GAIN, StrategyKind.REWARD_GAIN):
                _, chosen = select_action(game, b, ExplorationStrategy(kind, lam=0.0))
                assert chosen == passive

    def test_outcome_probabilities_sum_to_one(self, lane_merge_game):
        b = uniform_for(lane_merge_game)
        evals, _ = select_action(lane_merge_game, b, ExplorationStrategy(StrategyKind.REWARD_GAIN))
        for e in evals:
            assert sum(e.outcome_probabilities) == pytest.approx(1.0)
            assert e.total == pytest.approx(e.expected_reward + e.bonus)

    def test_rescaling_preserves_choice_for_passive_and_reward_gain(self):
        rng = random.Random(99)
        for _ in range(60):
            rewards = tuple(
                tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2))
                for _ in range(3)
            )
            scaled = tuple(tuple((4 * a, 4 * b) for a, b in row) for row in rewards)
            g1 = AltruismGame(("a", "b", "c"), ("x", "y"), rewards)
            g2 = AltruismGame(("a", "b", "c"), ("x", "y"), scaled)
            for kind in (StrategyKind.PASSIVE, StrategyKind.REWARD_GAIN):
                b1, b2 = uniform_for(g1), uniform_for(g2)
                _, c1 = select_action(g1, b1, ExplorationStrategy(kind))
                _, c2 = select_action(g2, b2, ExplorationStrategy(kind))
                assert c1 == c2


class TestBonusProperties:
    def test_bonuses_are_nonnegative(self):
        for game, belief in random_game_belief_pairs(150, seed=42):
            for i in range(game.n_leader):
                assert info_gain_bonus(game, belief, i) >= -1e-9
                assert expected_reward_gain_bonus(game, belief, i) >= -1e-9

    def test_bonuses_match_grid_oracle(self):
        for game, belief in random_game_belief_pairs(40, seed=7):
            lo, hi = (float(x) for x in belief.support)
            rows = passive_rows(game, belief)
            for i in range(game.n_leader):
                assert info_gain_bonus(game, belief, i) == pytest.approx(
                    oracle_info_gain(game.rewards, i, lo, hi), abs=1e-2
                )
                assert expected_reward_gain_bonus(game, belief, i) == pytest.approx(
                    oracle_reward_gain(game.rewards, i, lo, hi), abs=1e-2
                )
                assert rows[i].outcome_probabilities == pytest.approx(
                    oracle_outcome_distribution(game.rewards, i, lo, hi), abs=1e-2
                )

    def test_reward_gain_vanishes_when_no_action_can_learn(self, sufficiency_game):
        # support strictly inside the first cell of both rows
        b = uniform_for(sufficiency_game, 0.05, 0.35)
        strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN)
        evals, chosen = select_action(sufficiency_game, b, strategy)
        assert all(e.bonus == pytest.approx(0.0, abs=1e-12) for e in evals)
        _, passive = select_action(sufficiency_game, b, ExplorationStrategy(StrategyKind.PASSIVE))
        assert chosen == passive

    def test_info_gain_keeps_rewarding_resolved_value(self, sufficiency_game):
        # after learning the high row pays 5, probing the low row still looks
        # informative to the entropy bonus even though its value is settled
        b = uniform_for(sufficiency_game, Fraction(5, 12), 1)
        gain_after = info_gain_bonus(sufficiency_game, b, 1)
        gain_before = info_gain_bonus(sufficiency_game, uniform_for(sufficiency_game), 1)
        assert gain_after == pytest.approx(0.6, abs=0.01)
        assert gain_after > gain_before
        reward_after = expected_reward_gain_bonus(sufficiency_game, b, 1)
        reward_before = expected_reward_gain_bonus(sufficiency_game, uniform_for(sufficiency_game), 1)
        assert reward_after < reward_before


class TestConflict:
    def test_responsibility_game_region_is_lower_half(self, responsibility_game):
        region = conflict_region(responsibility_game)
        assert region == ((0, Fraction(1, 2)),)

    def test_breakpoint_itself_is_conflict_free(self, responsibility_game):
        assert is_conflicted(responsibility_game, Fraction(1, 2)) is False
        assert is_conflicted(responsibility_game, 0.49) is True
        assert is_conflicted(responsibility_game, 0.51) is False

    def test_agreeing_roles_give_empty_region(self):
        # follower's dominant column matches its leader preference everywhere
        game = AltruismGame(("a", "b"), ("x", "y"), (((2, 5), (0, 0)), ((1, 4), (0, 0))))
        assert conflict_region(game) == ()

    def test_conflict_mass_matches_region(self, responsibility_game):
        b = IntervalBelief.uniform(decision_partition(responsibility_game, True))
        assert conflict_mass(responsibility_game, b) == pytest.approx(0.5)

    def test_conflict_unaware_selection_commits(self, responsibility_game):
        b = IntervalBelief.uniform(decision_partition(responsibility_game, True))
        _, chosen = select_action(
            responsibility_game, b, ExplorationStrategy(StrategyKind.REWARD_GAIN)
        )
        assert chosen == 0

    def test_conflict_aware_selection_probes_first(self, responsibility_game):
        b = IntervalBelief.uniform(decision_partition(responsibility_game, True))
        strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN, conflict_aware=True)
        evals, chosen = select_action(responsibility_game, b, strategy)
        assert chosen == 2
        assert evals[2].total > evals[0].total


def _shipped_games():
    return [load_scenario(SCENARIO_DIR / f"{name}.json").game
            for name in ("lane_merge", "lane_merge_responsibility")]


def _random_masses(rng, n_cells):
    """Seeded masses on ``n_cells`` cells, about a third of them exactly zero."""
    weights = [0.0 if rng.random() < 1 / 3 else rng.expovariate(1.0) for _ in range(n_cells)]
    if not any(weights):
        weights[rng.randrange(n_cells)] = 1.0
    total = sum(weights)
    return tuple(w / total for w in weights)


class TestOracleParity:
    """The cell table against the per-call evaluation in ``oracles.py``."""

    def test_select_action_is_bit_identical_on_shipped_games(self):
        rng = random.Random(1618)
        for game in _shipped_games():
            for aware in (False, True):
                partition = decision_partition(game, aware)
                for _ in range(6):
                    belief = IntervalBelief(partition, _random_masses(rng, partition.n_cells))
                    for kind in StrategyKind:
                        strategy = ExplorationStrategy(kind, lam=0.8, conflict_aware=aware)
                        want = oracle_evaluations(game, belief, strategy)
                        best = max(range(len(want)), key=lambda i: (want[i].total, -i))
                        assert select_action(game, belief, strategy) == (want, best)

    def test_every_helper_agrees_on_the_8b_random_set(self):
        kinds = [ExplorationStrategy(kind) for kind in StrategyKind]
        hedge = ExplorationStrategy(StrategyKind.PASSIVE, conflict_aware=True)
        for number, (game, belief) in enumerate(random_game_belief_pairs(1000, seed=271828)):
            for strategy in kinds:
                got_rows = select_action(game, belief, strategy)[0]
                want_rows = oracle_evaluations(game, belief, strategy)
                assert len(got_rows) == len(want_rows) == game.n_leader
                for got, want in zip(got_rows, want_rows):
                    assert got.action_index == want.action_index
                    pairs = [(got.expected_reward, want.expected_reward),
                             (got.bonus, want.bonus), (got.total, want.total)]
                    assert len(got.outcome_probabilities) == len(want.outcome_probabilities)
                    pairs += zip(got.outcome_probabilities, want.outcome_probabilities)
                    for value, expected in pairs:
                        assert abs(value - expected) <= 1e-12
            assert conflict_region(game) == oracle_conflict_region(game)
            aware = belief.refined(decision_partition(game, True).breakpoints)
            assert abs(conflict_mass(game, aware) - oracle_conflict_mass(game, aware)) <= 1e-12
            if number % 5:
                continue  # the hedge's oracle re-derives the conflict mass per cell: slow
            hedged = zip(select_action(game, aware, hedge)[0], oracle_evaluations(game, aware, hedge))
            for got, expected in hedged:
                assert abs(got.expected_reward - expected.expected_reward) <= 1e-12


class TestChecksOnce:
    def test_partition_off_the_domain_is_rejected_everywhere(self, lane_merge_game):
        coarse = IntervalBelief.uniform(Partition((0, 1)))
        calls = [
            lambda: info_gain_bonus(lane_merge_game, coarse, 0),
            lambda: expected_reward_gain_bonus(lane_merge_game, coarse, 0),
            lambda: conflict_mass(lane_merge_game, coarse),
        ]
        for kind in StrategyKind:
            for aware in (False, True):
                strategy = ExplorationStrategy(kind, conflict_aware=aware)
                calls.append(lambda s=strategy: select_action(lane_merge_game, coarse, s))
        for call in calls:
            with pytest.raises(ValueError, match="domain partition"):
                call()

    def test_conflict_aware_selection_needs_role_swap_breakpoints(self, lane_merge_game):
        belief = uniform_for(lane_merge_game)
        assert belief.partition.n_cells < decision_partition(lane_merge_game, True).n_cells
        select_action(lane_merge_game, belief, ExplorationStrategy(StrategyKind.REWARD_GAIN))
        aware = ExplorationStrategy(StrategyKind.REWARD_GAIN, conflict_aware=True)
        with pytest.raises(ValueError, match="role-swap"):
            select_action(lane_merge_game, belief, aware)
        with pytest.raises(ValueError, match="role-swap"):
            conflict_mass(lane_merge_game, belief)

    def test_one_role_swap_preference_per_cell(self, lane_merge_game, monkeypatch):
        partition = decision_partition(lane_merge_game, True)
        assert partition.n_cells == 10
        calls = []
        original = explore.leader_preference_of_follower

        def counted(game, alpha):
            calls.append(alpha)
            return original(game, alpha)

        monkeypatch.setattr(explore, "leader_preference_of_follower", counted)
        strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN, conflict_aware=True)
        select_action(lane_merge_game, IntervalBelief.uniform(partition), strategy)
        assert 0 < len(calls) <= partition.n_cells

    def test_out_of_range_row_is_an_error(self, lane_merge_game):
        b = uniform_for(lane_merge_game)
        for bonus in (info_gain_bonus, expected_reward_gain_bonus):
            for row in (-1, 3):
                with pytest.raises(ValueError, match="out of bounds"):
                    bonus(lane_merge_game, b, row)
