"""Game-level behaviour: altruistic rewards, responses, equilibria, crossings."""

import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from altmerge.game import (
    AltruismGame,
    OutcomeLabel,
    Partition,
    Player,
    _follower_values,
    altruistic_reward,
    build_responsibility_matrix,
    follower_best_response,
    intersection_points,
    leader_preference_of_follower,
    stackelberg_equilibrium,
)
from conftest import SCENARIO_DIR
from oracles import oracle_equilibrium, oracle_role_swap_preference


class TestAltruismGame:
    @pytest.mark.parametrize("reward", [
        math.nan, math.inf,
        pytest.param(10**400, id="int_past_float_range"),
        pytest.param(-Fraction(10**400), id="fraction_past_float_range"),
    ])
    def test_rejects_non_finite_reward(self, reward):
        with pytest.raises(ValueError, match="finite"):
            AltruismGame(("a",), ("x", "y"), (((1, reward), (0, 2)),))

    @pytest.mark.parametrize("make, message", [
        (lambda: AltruismGame(("a",), ("x", "y"), (((1, 0, 2), (0, 2)),)),
         r"every cell must hold exactly one reward pair"),
        (lambda: Partition((0, 1)).refined((1.5,)), r"breakpoint 1\.5 outside \[0, 1\]"),
        (lambda: Partition((0, 10**400, 1)), r"breakpoint 10{400} outside \[0, 1\]"),
        (lambda: Partition((0, -Fraction(10**400), 1)), r"breakpoint -10{400} outside \[0, 1\]"),
        (lambda: Partition((0, 1)).refined((10**400,)), r"breakpoint 10{400} outside \[0, 1\]"),
    ], ids=["three_number_cell", "breakpoint_outside", "breakpoint_int_past_float_range",
            "breakpoint_fraction_past_float_range", "refined_int_past_float_range"])
    def test_rejects_malformed_input(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestAltruisticReward:
    def test_selfish_returns_own_reward(self, probe_game):
        assert altruistic_reward(probe_game, (1, 0), Player.FOLLOWER, 0) == 2

    def test_fully_altruistic_returns_other_reward(self, probe_game):
        assert altruistic_reward(probe_game, (1, 0), Player.FOLLOWER, 1) == -1

    def test_interior_coefficient_blends_exactly(self, lane_merge_game):
        # (1 - 5/18)*(-2) + (5/18)*3 = 5*(5/18) - 2 = -11/18
        value = altruistic_reward(lane_merge_game, (0, 0), Player.FOLLOWER, Fraction(5, 18))
        assert value == Fraction(-11, 18)

    def test_affine_in_alpha(self, lane_merge_game):
        a, b, mid = 0.125, 0.625, 0.375
        va = altruistic_reward(lane_merge_game, (0, 1), Player.FOLLOWER, a)
        vb = altruistic_reward(lane_merge_game, (0, 1), Player.FOLLOWER, b)
        vm = altruistic_reward(lane_merge_game, (0, 1), Player.FOLLOWER, mid)
        assert vm == pytest.approx((va + vb) / 2)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_rejects_out_of_range_alpha(self, probe_game, alpha):
        with pytest.raises(ValueError):
            altruistic_reward(probe_game, (0, 0), Player.LEADER, alpha)

    def test_rejects_out_of_range_cell(self, probe_game):
        # a cell holds two int indices: a float or Fraction, even a whole one, is out of bounds
        for cell in ((3, 0), (1.5, 0), (Fraction(1), 0), (0, 1.0)):
            with pytest.raises(ValueError, match=re.escape(f"cell ({cell[0]!r}, {cell[1]!r})")):
                altruistic_reward(probe_game, cell, Player.LEADER, 0.5)


class TestFollowerBestResponse:
    def test_lane_merge_altruistic_gives_way(self, lane_merge_game):
        # give-way beats stay-ahead in the merge-ahead row once alpha > 5/18
        assert follower_best_response(lane_merge_game, 0, 0.9) == 0

    def test_lane_merge_selfish_stays_ahead(self, lane_merge_game):
        assert follower_best_response(lane_merge_game, 0, 0.2) == 1

    def test_tie_breaks_toward_leader(self):
        game = AltruismGame(
            ("only",), ("left", "right"),
            (((3, 5), (1, 5)),),
        )
        assert follower_best_response(game, 0, 0) == 0

    def test_row_out_of_range_is_an_error(self, lane_merge_game):
        for row in (-1, 3, 1.5, Fraction(1)):
            with pytest.raises(ValueError, match=re.escape(f"leader action {row!r} out of bounds")):
                follower_best_response(lane_merge_game, row, 0.5)

    def test_remaining_tie_breaks_to_lowest_index(self):
        game = AltruismGame(
            ("only",), ("left", "right"),
            (((3, 5), (3, 5)),),
        )
        assert follower_best_response(game, 0, 0.5) == 0

    def test_piecewise_constant_with_changes_at_crossings(self, sufficiency_game):
        for i in range(sufficiency_game.n_leader):
            crossings = [float(p) for p in intersection_points(sufficiency_game, i)]
            previous = follower_best_response(sufficiency_game, i, 0.0)
            for k in range(1, 400):
                alpha = k / 400
                current = follower_best_response(sufficiency_game, i, alpha)
                if current != previous:
                    assert any(alpha - 1 / 400 <= c <= alpha for c in crossings)
                previous = current


def _bits(value):
    """A float by ``float.hex``, an exact value by ``repr``: equal only when identical."""
    return value.hex() if isinstance(value, float) else repr(value)


class TestFollowerValues:
    @pytest.mark.parametrize("reward", [
        lambda rng: rng.randint(-3, 3),
        lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        lambda rng: rng.choice((rng.randint(-3, 3), rng.randint(-6, 6) / 3)),
    ], ids=["int", "fraction", "float"])
    def test_is_the_product_form_blend(self, reward):
        # the kernel may read f + a*(l - f): the same rational as (1 - a)*f + a*l when the
        # rewards and a are exact, but rounded differently in floats, where every result
        # must stay the product form's bit for bit. Small rewards make equal lines common.
        rng = random.Random(20261021)
        exact = [0, 1, Fraction(1, 2), *(Fraction(k, 7) for k in range(1, 7))]
        floats = [0.0, 1.0, 0.1, 0.3, 0.7, 1 / 3, 5 / 7]
        for _ in range(200):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            grid = [[(reward(rng), reward(rng)) for _ in range(n)] for _ in range(m)]
            game = AltruismGame(tuple(f"r{i}" for i in range(m)), tuple(f"c{j}" for j in range(n)),
                                grid, rng.choice(exact))
            is_exact = not any(isinstance(r, float) for row in grid for cell in row for r in cell)
            for alpha in exact + floats:
                for i, row in enumerate(grid):
                    values = _follower_values(game, i, alpha)
                    blends = [(1 - alpha) * follower + alpha * leader for leader, follower in row]
                    if is_exact and not isinstance(alpha, float):
                        assert values == blends and not any(isinstance(v, float) for v in values)
                    else:
                        assert list(map(_bits, values)) == list(map(_bits, blends)), (grid, alpha)


class TestStackelbergEquilibrium:
    def test_lane_merge_altruistic_equilibrium(self, lane_merge_game):
        eq = stackelberg_equilibrium(lane_merge_game, 0.9)
        assert (eq.leader_index, eq.follower_index) == (0, 0)
        assert eq.leader_reward == 3

    def test_lane_merge_selfish_equilibrium_merges_behind(self, lane_merge_game):
        eq = stackelberg_equilibrium(lane_merge_game, 0.2)
        assert (eq.leader_index, eq.follower_index) == (1, 1)
        assert eq.leader_reward == 1

    def test_single_cell_game(self):
        game = AltruismGame(("a",), ("b",), (((4, -7),),))
        eq = stackelberg_equilibrium(game, 0.3)
        assert (eq.leader_index, eq.follower_index) == (0, 0)
        assert (eq.leader_reward, eq.follower_reward) == (4, -7)

    def test_positive_rescaling_preserves_actions(self):
        rng = random.Random(7)
        for _ in range(200):
            rewards = tuple(
                tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2))
                for _ in range(3)
            )
            scaled = tuple(
                tuple((3 * a, 3 * b) for a, b in row) for row in rewards
            )
            alpha = Fraction(rng.randint(0, 20), 20)
            g1 = AltruismGame(("a", "b", "c"), ("x", "y"), rewards)
            g2 = AltruismGame(("a", "b", "c"), ("x", "y"), scaled)
            e1, e2 = stackelberg_equilibrium(g1, alpha), stackelberg_equilibrium(g2, alpha)
            assert (e1.leader_index, e1.follower_index) == (e2.leader_index, e2.follower_index)


def leader_reward_given_alpha(game, leader_action, alpha):
    """Leader's value of the row once the follower responds at ``alpha``."""
    j = follower_best_response(game, leader_action, alpha)
    return altruistic_reward(game, (leader_action, j), Player.LEADER, game.alpha_leader)


class TestLeaderRewardGivenAlpha:
    def test_probe_game_high_row_pays_three_when_altruistic(self, probe_game):
        assert leader_reward_given_alpha(probe_game, 0, 0.6) == 3

    def test_probe_game_safe_row_constant(self, probe_game):
        for alpha in (0, 0.25, 0.5, 0.75, 1):
            assert leader_reward_given_alpha(probe_game, 2, alpha) == 2

    def test_sufficiency_game_low_row_above_breakpoint(self, sufficiency_game):
        assert leader_reward_given_alpha(sufficiency_game, 1, 0.9) == 1

    def test_breakpoints_contained_in_crossings(self, probe_game):
        for i in range(probe_game.n_leader):
            crossings = [float(p) for p in intersection_points(probe_game, i)]
            previous = leader_reward_given_alpha(probe_game, i, 0.0)
            for k in range(1, 300):
                alpha = k / 300
                current = leader_reward_given_alpha(probe_game, i, alpha)
                if current != previous:
                    assert any(alpha - 1 / 300 <= c <= alpha for c in crossings)
                previous = current


class TestIntersectionPoints:
    def test_parallel_lines_contribute_nothing(self):
        game = AltruismGame(
            ("row",), ("x", "y"),
            (((0, 2), (5, 7)),),  # both lines have slope r - c = -2... parallel
        )
        assert intersection_points(game, 0) == []

    def test_float_rewards_cross_at_exact_fractions(self):
        game = AltruismGame(("row",), ("x", "y"), (((3.0, 0.0), (-5.0, 7.0)),))
        (point,) = intersection_points(game, 0)
        assert type(point) is Fraction and point == Fraction(7, 15)

    def test_row_out_of_range_is_an_error(self, lane_merge_game):
        for row in (-1, 3, 1.5, Fraction(1)):
            with pytest.raises(ValueError, match=re.escape(f"leader action {row!r} out of bounds")):
                intersection_points(lane_merge_game, row)


class TestResponsibilityMatrix:
    def test_lane_merge_labels_reproduce_trinary_matrix(self):
        document = json.loads((SCENARIO_DIR / "lane_merge_responsibility.json").read_text())
        labels = [[tuple(map(OutcomeLabel, cell)) for cell in row]
                  for row in document["game"]["outcome_labels"]]
        rewards = build_responsibility_matrix(labels)
        assert rewards == (
            ((1, 0), (-1, -1)),
            ((-1, -1), (0, 1)),
            ((1, 0), (0, 1)),
        )

    def test_all_neutral_grid_is_zero(self):
        labels = [[(OutcomeLabel.NEUTRAL, OutcomeLabel.NEUTRAL)] * 2] * 2
        assert build_responsibility_matrix(labels) == (((0, 0), (0, 0)), ((0, 0), (0, 0)))

    def test_single_cell(self):
        labels = [[(OutcomeLabel.GOAL_ACHIEVED, OutcomeLabel.ACCIDENT_RESPONSIBLE)]]
        assert build_responsibility_matrix(labels) == (((1, -1),),)


class TestLeaderPreferenceOfFollower:
    def test_selfish_follower_would_stay_ahead(self, responsibility_game):
        assert leader_preference_of_follower(responsibility_game, 0.2) == 1

    def test_altruistic_follower_would_give_way(self, responsibility_game):
        assert leader_preference_of_follower(responsibility_game, 0.9) == 0

    def test_single_column_game(self):
        game = AltruismGame(("a", "b"), ("only",), (((1, 2),), ((3, 0),)))
        assert leader_preference_of_follower(game, 0.4) == 0

    @pytest.mark.parametrize("reward", [
        lambda rng: rng.randint(-2, 2),
        lambda rng: rng.randint(-4, 4) / 2,
        lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    ], ids=["int", "float", "fraction"])
    def test_is_the_equilibrium_with_the_roles_exchanged(self, reward):
        # one commitment rule serves both roles: the follower leading at a is the leader of
        # the transposed game, each reward pair swapped, with coefficient a, answered by the
        # original leader at its own coefficient. Small rewards and coefficients on a coarse
        # grid make ties in both the answers and the commitment common.
        rng = random.Random(20261020)
        alphas = [0, 1, 0.25, 0.5, *(Fraction(k, 12) for k in range(1, 12))]
        for _ in range(300):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            grid = [[(reward(rng), reward(rng)) for _ in range(n)] for _ in range(m)]
            rows, columns = tuple(f"r{i}" for i in range(m)), tuple(f"c{j}" for j in range(n))
            game = AltruismGame(rows, columns, grid, rng.choice(alphas))
            transposed = [[grid[i][j][::-1] for i in range(m)] for j in range(n)]
            for alpha in rng.sample(alphas, 4):
                swapped = AltruismGame(columns, rows, transposed, alpha)
                equilibrium = stackelberg_equilibrium(swapped, game.alpha_leader)
                assert leader_preference_of_follower(game, alpha) == equilibrium.leader_index


@given(
    rewards=st.lists(
        st.lists(
            st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
            min_size=2, max_size=3,
        ).map(tuple),
        min_size=2, max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1).map(tuple),
    alpha_num=st.integers(0, 60),
    alpha_leader_num=st.integers(0, 60),
)
def test_equilibrium_matches_oracle_property(rewards, alpha_num, alpha_leader_num):
    alpha, alpha_leader = Fraction(alpha_num, 60), Fraction(alpha_leader_num, 60)
    game = AltruismGame(
        tuple(f"r{i}" for i in range(len(rewards))),
        tuple(f"c{j}" for j in range(len(rewards[0]))),
        rewards,
        alpha_leader,
    )
    eq = stackelberg_equilibrium(game, alpha)
    assert (eq.leader_index, eq.follower_index) == oracle_equilibrium(rewards, alpha, alpha_leader)
    assert leader_preference_of_follower(game, alpha) == oracle_role_swap_preference(
        rewards, alpha, alpha_leader)
