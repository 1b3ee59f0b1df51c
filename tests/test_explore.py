"""Action selection, exploration bonuses, and the conflict wrapper."""

import math
import random
import sys
from fractions import Fraction

import pytest

import altmerge.belief as belief_module
import altmerge.explore as explore
from altmerge.belief import (POINT_WIDTH, IntervalBelief, Partition, bayes_update, partition_domain,
                             response_per_cell)
from altmerge.explore import (
    ExplorationStrategy,
    StrategyKind,
    conflict_mass,
    conflict_region,
    decision_partition,
    expected_reward_gain_bonus,
    info_gain_bonus,
    select_action,
)
import altmerge.game as game_module
from altmerge.game import AltruismGame
from altmerge.sim import load_scenario, run_conflict_experiment
from conftest import SCENARIO_DIR, random_game_belief_pairs, shipped_games, uniform_for
from oracles import (
    _oracle_responses,
    oracle_conflict_mass,
    oracle_conflict_region,
    oracle_evaluations,
    oracle_exact_row,
    oracle_row_expectation,
)

PASSIVE = ExplorationStrategy(StrategyKind.PASSIVE)


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
    def test_sufficiency_game_after_first_observation(self, sufficiency_game):
        b = uniform_for(sufficiency_game, Fraction(5, 12), 1)
        assert info_gain_bonus(sufficiency_game, b, 0) == pytest.approx(0.0, abs=1e-9)
        assert info_gain_bonus(sufficiency_game, b, 1) == pytest.approx(0.6, abs=0.01)

    def test_zero_when_no_breakpoint_in_support(self, probe_game):
        b = uniform_for(probe_game)
        assert info_gain_bonus(probe_game, b, 2) == pytest.approx(0.0, abs=1e-12)


class TestExpectedRewardGainBonus:
    def test_sufficiency_game_after_first_observation(self, sufficiency_game):
        b = uniform_for(sufficiency_game, Fraction(5, 12), 1)
        assert expected_reward_gain_bonus(sufficiency_game, b, 0) == pytest.approx(0.0, abs=1e-9)
        assert expected_reward_gain_bonus(sufficiency_game, b, 1) == pytest.approx(0.41, abs=0.01)

    def test_uninformative_action_scores_zero(self, probe_game):
        b = uniform_for(probe_game)
        assert expected_reward_gain_bonus(probe_game, b, 2) == pytest.approx(0.0, abs=1e-12)


class TestSelectAction:
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

    def test_overflowing_total_names_lambda(self, lane_merge_game):
        # the reward-gain bonus of row 0 is about 6, so lambda * bonus leaves the float range
        strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN, lam=1e308)
        with pytest.raises(ValueError, match="lambda 1e\\+308 times row 0"):
            select_action(lane_merge_game, uniform_for(lane_merge_game), strategy)

    @pytest.mark.parametrize("field, value", [
        ("kind", "info-gain"), ("kind", None), ("conflict_aware", "no"), ("conflict_aware", 1),
        pytest.param("lam", 10**400, id="lam_int_past_float_range"),
        pytest.param("lam", Fraction(10**400), id="lam_fraction_past_float_range"),
    ])
    def test_strategy_rejects_a_kind_or_flag_of_another_type(self, field, value):
        # a string kind used to score as passive, any truthy flag switched on the hedge, and a
        # lam that no float can hold raised OverflowError
        with pytest.raises(ValueError, match=field):
            ExplorationStrategy(**{"kind": StrategyKind.INFO_GAIN, field: value})

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


def _random_masses(rng, n_cells):
    """Seeded masses on ``n_cells`` cells, about a third of them exactly zero."""
    weights = [0.0 if rng.random() < 1 / 3 else rng.expovariate(1.0) for _ in range(n_cells)]
    if not any(weights):
        weights[rng.randrange(n_cells)] = 1.0
    total = sum(weights)
    return tuple(w / total for w in weights)


def _three_by_three_games():
    """Seeded 3x3 games: int, float and Fraction rewards, each with two kinds of leader
    altruism out of selfish, Fraction and float. In three of them a row meets all three
    responses across the cells, and four have a conflict region."""
    rng = random.Random(100)
    draws = {int: lambda: rng.randint(-5, 5), float: lambda: rng.uniform(-5, 5),
             Fraction: lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6))}
    for number, alpha in [(int, 0), (float, Fraction(1, 3)), (Fraction, 0.4), (int, 0.7),
                          (float, 0), (Fraction, Fraction(5, 12))]:
        rewards = tuple(tuple((draws[number](), draws[number]()) for _ in range(3))
                        for _ in range(3))
        yield AltruismGame(("a", "b", "c"), ("x", "y", "z"), rewards, alpha)


class TestOracleParity:
    """The cell table against the per-call evaluation in ``oracles.py``."""

    def test_select_action_is_bit_identical_on_shipped_games(self):
        rng = random.Random(1618)
        games = [(game, 6) for game in shipped_games()]
        games += [(game, 1) for game in _three_by_three_games()]  # three follower actions
        for game, n_beliefs in games:
            for aware in (False, True):
                partition = decision_partition(game, aware)
                for _ in range(n_beliefs):
                    belief = IntervalBelief(partition, _random_masses(rng, partition.n_cells))
                    for kind in StrategyKind:
                        strategy = ExplorationStrategy(kind, lam=0.8, conflict_aware=aware)
                        want = oracle_evaluations(game, belief, strategy)
                        best = max(range(len(want)), key=lambda i: (want[i].total, -i))
                        assert select_action(game, belief, strategy) == (want, best)

    @pytest.mark.parametrize("count, seed, leader_altruism", [
        (1000, 271828, False), (100, 161803, True),
    ], ids=["selfish_leader", "altruistic_leader"])
    def test_every_helper_agrees_on_the_8b_random_set(self, count, seed, leader_altruism):
        kinds = [ExplorationStrategy(kind) for kind in StrategyKind]
        hedge = ExplorationStrategy(StrategyKind.PASSIVE, conflict_aware=True)
        pairs = random_game_belief_pairs(count, seed, leader_altruism)
        for game, belief in pairs:
            for strategy in kinds:
                assert select_action(game, belief, strategy)[0] == oracle_evaluations(
                    game, belief, strategy)
            assert conflict_region(game) == oracle_conflict_region(game)
            aware = belief.refined(decision_partition(game, True).breakpoints)
            assert conflict_mass(game, aware) == oracle_conflict_mass(game, aware)
            assert select_action(game, aware, hedge)[0] == oracle_evaluations(game, aware, hedge)


def _near_coincident_game(n, k, constant=None):
    """Row 0's three follower crossings lie in [2/3 - k/(800 n), 2/3], and row 1 pays
    ``constant`` in every cell: by default, halfway between row 0's exact value and the
    value it would have if its crossings merged at 2/3."""
    row = ((0, 3 * n), (3 * n, -3 * n), (100 * n, -197 * n + k))
    if constant is None:
        constant = (Fraction(100 * n, 3) + 100 * n * Fraction(100 * n, 300 * n - k)) / 2
    return AltruismGame(("a", "b"), ("x", "y", "z"), (row, ((constant, constant),) * 3))


class TestExactCrossings:
    """Passive decisions against the exact oracle, which integrates over every crossing."""

    @staticmethod
    def _assert_exact(game):
        evaluations, best = select_action(game, IntervalBelief.uniform(partition_domain(game)),
                                          PASSIVE)
        want = [oracle_exact_row(game.rewards, i, game.alpha_leader) for i in range(game.n_leader)]
        assert best == max(range(len(want)), key=lambda i: (want[i][0], -i))
        tol = 4 * sys.float_info.epsilon
        for got, (reward, probs) in zip(evaluations, want):
            assert math.isclose(got.expected_reward, reward, rel_tol=tol)
            for p, q in zip(got.outcome_probabilities, probs, strict=True):
                assert abs(p - q) <= tol
        return evaluations, best

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [10**e for e in range(6, 13)])
    def test_near_coincident_crossings(self, n, k):
        self._assert_exact(_near_coincident_game(n, k))

    def test_crossings_under_1e_12_apart_decide_row_0(self):
        # row 0 scores about 100 n / 3 + 1/3; with its crossings merged it would score 100 n / 3
        evaluations, best = self._assert_exact(_near_coincident_game(10**10, 3, 333333333333.5))
        assert best == 0 and evaluations[0].expected_reward > 333333333333.6


@pytest.fixture
def builds(monkeypatch):
    """Every cell table built from here on, as (game, partition, conflict_aware)."""
    built = []
    init = belief_module._CellTable.__init__

    def counted(table, game, partition, conflict_aware):
        built.append((game, partition, conflict_aware))
        init(table, game, partition, conflict_aware)

    monkeypatch.setattr(belief_module._CellTable, "__init__", counted)
    return built


class TestChecksOnce:
    def test_partition_off_the_domain_is_rejected_everywhere(self, lane_merge_game):
        coarse = IntervalBelief.uniform(Partition((0, 1)))
        calls = [
            lambda: info_gain_bonus(lane_merge_game, coarse, 0),
            lambda: expected_reward_gain_bonus(lane_merge_game, coarse, 0),
            lambda: conflict_mass(lane_merge_game, coarse),
            lambda: bayes_update(coarse, lane_merge_game, 0, (1.0, 0.0)),
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

    def test_follower_values_once_per_row_and_cell(self, lane_merge_game, monkeypatch):
        game = lane_merge_game
        partition = decision_partition(game, True)
        assert partition.n_cells == 10
        calls = []
        original = game_module._follower_values

        def counted(game, i, alpha):
            calls.append((i, alpha))
            return original(game, i, alpha)

        # every binding, so the role swap is counted wherever it would solve
        for module in (game_module, belief_module, explore):
            if hasattr(module, "_follower_values"):
                monkeypatch.setattr(module, "_follower_values", counted)
        strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN, conflict_aware=True)
        belief = IntervalBelief.uniform(partition)
        select_action(game, belief, strategy)
        want = [(i, mid) for mid in partition.midpoints for i in range(game.n_leader)]
        assert sorted(calls) == sorted(want)
        # the update and the conflict region read what the decision solved, from the same table
        calls.clear()
        bayes_update(belief, game, 1, (1.0, 0.5))
        assert conflict_region(game) == oracle_conflict_region(game)
        assert calls == []

    def test_one_table_per_game_partition_and_flag_in_an_episode(self, builds):
        scenario = load_scenario(SCENARIO_DIR / "lane_merge_responsibility.json")
        episodes = run_conflict_experiment(scenario)
        game = scenario.game
        assert [len(result.records) for result in episodes.values()] == [30, 30]
        assert builds == [(game, decision_partition(game, aware), aware) for aware in (False, True)]

    def test_alternating_flags_build_one_table_per_decision(self, lane_merge_game, builds):
        # the game keeps one table, for the last partition, as interleaved streams use it
        game = lane_merge_game
        beliefs = [IntervalBelief.uniform(decision_partition(game, aware)) for aware in (False, True)]
        for t in range(6):
            aware = t % 2 == 1
            strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN, conflict_aware=aware)
            _, row = select_action(game, beliefs[aware], strategy)
            beliefs[aware] = bayes_update(beliefs[aware], game, row, (1.0, 0.5))
        assert builds == [(game, beliefs[aware].partition, aware)
                          for _ in range(3) for aware in (False, True)]

    def test_games_decided_in_turn_keep_their_own_tables(self, lane_merge_game,
                                                       responsibility_game, builds):
        # each game keeps its last table, so a decision on one does not evict the other's
        games = (lane_merge_game, responsibility_game)
        beliefs = [IntervalBelief.uniform(decision_partition(game, True)) for game in games]
        strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN, conflict_aware=True)
        for _ in range(3):
            for k, game in enumerate(games):
                _, row = select_action(game, beliefs[k], strategy)
                beliefs[k] = bayes_update(beliefs[k], game, row, (1.0, 0.5))
        assert builds == [(game, belief.partition, True) for game, belief in zip(games, beliefs)]

    def test_each_game_builds_its_partitions_once(self, lane_merge_game, monkeypatch):
        game = lane_merge_game
        for aware in (False, True):
            assert decision_partition(game, aware) is decision_partition(game, aware)
        assert partition_domain(game) is partition_domain(game) is decision_partition(game)
        solves = []

        def counted(name, original):
            def solve(*args):
                solves.append(name)
                return original(*args)
            return solve

        # every binding, so a module that imported a solver is counted too
        for module in (game_module, belief_module, explore):
            for name in ("line_crossing", "intersection_points"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        aware_belief = IntervalBelief.uniform(decision_partition(game, True))
        for belief in (uniform_for(game, 0.1, 0.8), aware_belief):
            for kind in StrategyKind:
                select_action(game, belief, ExplorationStrategy(kind))
            bayes_update(belief, game, 0, (1.0, 0.5))
        for kind in StrategyKind:
            select_action(game, aware_belief, ExplorationStrategy(kind, conflict_aware=True))
        conflict_region(game)
        conflict_mass(game, aware_belief)
        assert solves == []

    def test_partitions_follow_the_game_object_not_equality(self, lane_merge_game, monkeypatch):
        actions = lane_merge_game.leader_actions, lane_merge_game.follower_actions
        float_rewards = tuple(tuple((float(a), float(b)) for a, b in row)
                              for row in lane_merge_game.rewards)
        float_game = AltruismGame(*actions, float_rewards)
        int_again = AltruismGame(*actions, lane_merge_game.rewards)
        assert float_game == lane_merge_game and hash(float_game) == hash(lane_merge_game)
        games = (lane_merge_game, float_game, int_again)
        for aware in (False, True):
            # equal breakpoints, read exactly from the float rewards too, one object per game
            partitions = [decision_partition(game, aware) for game in games]
            assert len({id(partition) for partition in partitions}) == len(games)
            assert len({partition.breakpoints for partition in partitions}) == 1
            for game, partition in zip(games, partitions):
                assert partition.n_cells > 1
                assert all(type(p) is Fraction for p in partition.breakpoints[1:-1])
                belief = IntervalBelief.uniform(partition)
                for strategy_kind in StrategyKind:
                    strategy = ExplorationStrategy(strategy_kind, conflict_aware=aware)
                    want = oracle_evaluations(game, belief, strategy)
                    best = max(range(len(want)), key=lambda i: (want[i].total, -i))
                    assert select_action(game, belief, strategy) == (want, best)
        # right after a decision on one game, an equal but distinct game gets its own table
        solved = []
        original = game_module._follower_values

        def counted(game, i, alpha):
            solved.append(game)
            return original(game, i, alpha)

        monkeypatch.setattr(belief_module, "_follower_values", counted)
        hedge = ExplorationStrategy(StrategyKind.PASSIVE, conflict_aware=True)
        for decided in games:
            belief = IntervalBelief.uniform(decision_partition(decided, True))
            for game in games:
                if game is decided:
                    continue
                select_action(decided, belief, hedge)
                solved.clear()
                for i in range(game.n_leader):
                    assert list(response_per_cell(belief, game, i)) == _oracle_responses(
                        game, belief, i)
                assert len(solved) == game.n_leader * belief.partition.n_cells
                assert all(solver is game for solver in solved)

    def test_selection_rechecks_no_coefficient_and_builds_no_game(self, lane_merge_game,
                                                                 monkeypatch):
        # the partition is checked once; the cell table calls the unchecked kernels
        belief = IntervalBelief.uniform(decision_partition(lane_merge_game, True))
        checks, games = [], []
        check_alpha, post_init = game_module._check_alpha, AltruismGame.__post_init__

        def counted_check(alpha):
            checks.append(alpha)
            check_alpha(alpha)

        def counted_post_init(game):
            games.append(game)
            post_init(game)

        monkeypatch.setattr(game_module, "_check_alpha", counted_check)
        monkeypatch.setattr(AltruismGame, "__post_init__", counted_post_init)
        strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN, conflict_aware=True)
        evaluations, best = select_action(lane_merge_game, belief, strategy)
        assert (checks, games) == ([], [])
        assert len(evaluations) == lane_merge_game.n_leader and 0 <= best < len(evaluations)

    def test_out_of_range_row_is_an_error(self, lane_merge_game):
        b = uniform_for(lane_merge_game)
        for bonus in (info_gain_bonus, expected_reward_gain_bonus):
            for row in (-1, 3, 1.5, Fraction(1), True):
                with pytest.raises(ValueError, match="out of bounds"):
                    bonus(lane_merge_game, b, row)
