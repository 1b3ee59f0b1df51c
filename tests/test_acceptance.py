"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria 1-5 pin the analytical layer (exact crossing points, bonus tables,
decision totals, conflict region) with their stated tolerances and a 1 s
runtime budget each. Criteria 6-7 assert closed-loop behaviour classes of
the shipped scenarios (trajectory-exact reproduction is out of scope; the
per-cell weights are artifact defaults). Criterion 8 runs the randomized
property suites against brute-force oracles, and replays the shipped
episodes against them.
"""

import dataclasses
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from altmerge.belief import IntervalBelief
from altmerge.explore import (
    ExplorationStrategy,
    StrategyKind,
    conflict_region,
    decision_partition,
    expected_reward_gain_bonus,
    info_gain_bonus,
    select_action,
)
from altmerge.game import (AltruismGame, intersection_points, leader_preference_of_follower,
                           stackelberg_equilibrium)
from altmerge.planner import PlanRequest
from altmerge.sim import load_scenario, run_conflict_experiment, run_episode
from conftest import (
    SCENARIO_DIR,
    make_high_stakes_probe_game,
    make_lane_merge_game,
    make_responsibility_lane_game,
    make_two_row_sufficiency_game,
    random_game_belief_pairs,
    uniform_for,
)
from oracles import (
    _in_order,
    _oracle_responses,
    oracle_bilevel_plan,
    oracle_equilibrium,
    oracle_evaluations,
    oracle_info_gain,
    oracle_outcome_distribution,
    oracle_reward_gain,
)

EPISODE_BUDGET_SECONDS = 60.0

#: Leading steps of each shipped episode that criterion 8e replays; an
#: oracle plan costs about 0.13 s.
REPLAYED_STEPS = 2


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def lane_merge_episodes():
    """All six (alpha, strategy) closed-loop runs of the shipped scenario."""
    scenario = load_scenario(SCENARIO_DIR / "lane_merge.json")
    results = {}
    for alpha in (0.2, 0.9):
        for kind in StrategyKind:
            configured = dataclasses.replace(
                scenario,
                true_alpha=alpha,
                strategy=dataclasses.replace(scenario.strategy, kind=kind, lam=1.0),
            )
            started = time.perf_counter()
            results[(alpha, kind)] = run_episode(configured)
            assert time.perf_counter() - started < EPISODE_BUDGET_SECONDS
    return results


@pytest.fixture(scope="module")
def conflict_episodes():
    """Conflict-aware on/off runs of the responsibility scenario, both alphas."""
    scenario = load_scenario(SCENARIO_DIR / "lane_merge_responsibility.json")
    results = {}
    for alpha in (0.2, 0.9):
        started = time.perf_counter()
        results[alpha] = run_conflict_experiment(
            dataclasses.replace(scenario, true_alpha=alpha)
        )
        assert time.perf_counter() - started < 2 * EPISODE_BUDGET_SECONDS
    return results


def test_criterion_1_intersection_values():
    with criterion(1, "exact reward-line crossings"):
        started = time.perf_counter()
        probe = make_high_stakes_probe_game()
        assert intersection_points(probe, 0) == [Fraction(7, 15)]
        assert intersection_points(probe, 1) == [Fraction(1, 3)]
        assert intersection_points(probe, 2) == []
        sufficiency = make_two_row_sufficiency_game()
        assert intersection_points(sufficiency, 0) == [Fraction(5, 12)]
        assert intersection_points(sufficiency, 1) == [Fraction(5, 6)]
        lane = make_lane_merge_game()
        assert intersection_points(lane, 0) == [Fraction(5, 18)]
        assert intersection_points(lane, 1) == []  # crossing at 5/4 lies outside [0, 1]
        assert intersection_points(lane, 2) == [Fraction(1, 2)]
        assert time.perf_counter() - started < 1.0


def test_criterion_2_bonus_table():
    with criterion(2, "bonus table for the two-row game"):
        started = time.perf_counter()
        game = make_two_row_sufficiency_game()
        full = uniform_for(game)
        assert info_gain_bonus(game, full, 0) == pytest.approx(0.68, abs=0.01)
        assert info_gain_bonus(game, full, 1) == pytest.approx(0.45, abs=0.01)
        assert expected_reward_gain_bonus(game, full, 0) == pytest.approx(3.54, abs=0.01)
        assert expected_reward_gain_bonus(game, full, 1) == pytest.approx(1.25, abs=0.01)
        narrowed = uniform_for(game, Fraction(5, 12), 1)
        assert info_gain_bonus(game, narrowed, 0) == pytest.approx(0.0, abs=0.01)
        assert info_gain_bonus(game, narrowed, 1) == pytest.approx(0.6, abs=0.01)
        assert expected_reward_gain_bonus(game, narrowed, 0) == pytest.approx(0.0, abs=0.01)
        assert expected_reward_gain_bonus(game, narrowed, 1) == pytest.approx(0.41, abs=0.01)
        assert time.perf_counter() - started < 1.0


def test_criterion_3_strategy_argmaxes():
    with criterion(3, "strategy argmaxes on the probe game"):
        started = time.perf_counter()
        game = make_high_stakes_probe_game()
        belief = uniform_for(game)
        evals, chosen = select_action(game, belief, ExplorationStrategy(StrategyKind.PASSIVE))
        assert chosen == 2
        assert [e.expected_reward for e in evals] == pytest.approx(
            [-11 / 15, 1 / 3, 2], abs=1e-9
        )
        _, chosen = select_action(game, belief, ExplorationStrategy(StrategyKind.INFO_GAIN))
        assert chosen == 2
        _, chosen = select_action(game, belief, ExplorationStrategy(StrategyKind.REWARD_GAIN))
        assert chosen == 1
        assert time.perf_counter() - started < 1.0


def test_criterion_4_lane_merge_step_zero_totals():
    with criterion(4, "step-0 entropy-bonus totals on the lane-merge game"):
        started = time.perf_counter()
        game = make_lane_merge_game()
        belief = uniform_for(game)
        evals, _ = select_action(game, belief, ExplorationStrategy(StrategyKind.INFO_GAIN))
        assert evals[0].total == pytest.approx(-0.02, abs=0.01)
        assert evals[1].total == pytest.approx(1.00, abs=0.01)
        assert evals[2].total == pytest.approx(1.19, abs=0.01)
        assert time.perf_counter() - started < 1.0


def test_criterion_5_conflict_region():
    with criterion(5, "role-confusion region of the responsibility game"):
        started = time.perf_counter()
        game = make_responsibility_lane_game()
        region = conflict_region(game)
        assert region == ((0, Fraction(1, 2)),)
        assert region[0][1] == Fraction(1, 2)  # exact breakpoint from role swap
        assert region[0][0] < Fraction(49, 100) < region[0][1] < Fraction(51, 100)
        half = Fraction(1, 2)
        as_follower = stackelberg_equilibrium(game, half).follower_index
        assert as_follower == leader_preference_of_follower(game, half)
        assert time.perf_counter() - started < 1.0


def test_criterion_6_closed_loop_behaviour_classes(lane_merge_episodes):
    with criterion(6, "closed-loop lane-merge behaviour classes"):
        # selfish opponent: every strategy ends up behind
        for kind in StrategyKind:
            assert lane_merge_episodes[(0.2, kind)].summary.outcome == "behind"
        reward_gain_cells = [
            cell[0] for cell in lane_merge_episodes[(0.2, StrategyKind.REWARD_GAIN)].summary.chosen_cells
        ]
        assert {0, 1, 2} <= set(reward_gain_cells)  # tried merge-ahead, probe, merge-behind
        # accommodating opponent: only the value-gain explorer ends up ahead
        assert lane_merge_episodes[(0.9, StrategyKind.REWARD_GAIN)].summary.outcome == "ahead"
        assert lane_merge_episodes[(0.9, StrategyKind.INFO_GAIN)].summary.outcome == "behind"
        assert lane_merge_episodes[(0.9, StrategyKind.PASSIVE)].summary.outcome == "behind"


def test_criterion_7_conflict_experiment_classes(conflict_episodes):
    with criterion(7, "conflict-awareness behaviour classes"):
        for alpha in (0.2, 0.9):
            unaware = conflict_episodes[alpha]["unaware"]
            aware = conflict_episodes[alpha]["aware"]
            assert unaware.summary.chosen_cells[0][0] == 0  # commits to merging ahead
            assert aware.summary.chosen_cells[0][0] == 2  # probes first
        assert conflict_episodes[0.2]["aware"].summary.outcome == "behind"
        assert conflict_episodes[0.9]["aware"].summary.outcome == "ahead"


def test_criterion_8a_equilibrium_oracle_agreement():
    with criterion(8, "property suite a: equilibrium enumeration oracle"):
        rng = random.Random(314159)
        for _ in range(10_000):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rewards = tuple(
                tuple((rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(n))
                for _ in range(m)
            )
            game = AltruismGame(
                tuple(f"r{i}" for i in range(m)),
                tuple(f"c{j}" for j in range(n)),
                rewards,
            )
            alpha = Fraction(rng.randint(0, 100), 100)
            eq = stackelberg_equilibrium(game, alpha)
            assert (eq.leader_index, eq.follower_index) == oracle_equilibrium(rewards, alpha)


def test_criterion_8b_bonus_nonnegativity_and_zero_scale_reduction():
    with criterion(8, "property suite b: bonus sign and zero-scale reduction"):
        for game, belief in random_game_belief_pairs(1000, seed=271828):
            for i in range(game.n_leader):
                assert info_gain_bonus(game, belief, i) >= -1e-9
                assert expected_reward_gain_bonus(game, belief, i) >= -1e-9
            _, passive_choice = select_action(
                game, belief, ExplorationStrategy(StrategyKind.PASSIVE)
            )
            for kind in (StrategyKind.INFO_GAIN, StrategyKind.REWARD_GAIN):
                _, chosen = select_action(game, belief, ExplorationStrategy(kind, lam=0.0))
                assert chosen == passive_choice


def test_criterion_8c_monte_carlo_bonus_agreement():
    with criterion(8, "property suite c: Monte-Carlo bonus oracle within 1e-2"):
        passive = ExplorationStrategy(StrategyKind.PASSIVE)
        for game, belief in random_game_belief_pairs(50, seed=161803):
            lo, hi = (float(x) for x in belief.support)
            rows, _ = select_action(game, belief, passive)
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


def test_criterion_8d_mass_conservation_in_episodes(lane_merge_episodes, conflict_episodes):
    with criterion(8, "property suite d: belief mass conserved on every step"):
        every_result = list(lane_merge_episodes.values())
        for by_mode in conflict_episodes.values():
            every_result.extend(by_mode.values())
        for result in every_result:
            for record in result.records:
                assert sum(record.belief_masses) == pytest.approx(1.0, abs=1e-9)
                assert all(mass >= 0 for mass in record.belief_masses)


def _shipped_episodes(lane_merge_episodes, conflict_episodes):
    """(scenario as run, result) of every episode of criteria 6 and 7."""
    scenario = load_scenario(SCENARIO_DIR / "lane_merge.json")
    for (_, kind), result in lane_merge_episodes.items():
        strategy = dataclasses.replace(scenario.strategy, kind=kind, lam=1.0)
        yield dataclasses.replace(scenario, strategy=strategy), result
    scenario = load_scenario(SCENARIO_DIR / "lane_merge_responsibility.json")
    for by_mode in conflict_episodes.values():
        for mode, result in by_mode.items():
            strategy = dataclasses.replace(scenario.strategy, conflict_aware=mode == "aware")
            yield dataclasses.replace(scenario, strategy=strategy), result


def test_criterion_8e_episodes_replay_against_the_oracles(lane_merge_episodes, conflict_episodes):
    """Each step's decision, update and plan, rebuilt from the record and the oracles.

    A cache that lives across steps can go stale only from the second step
    on, where oracle tests of one call on fresh objects do not look.
    """
    with criterion(8, "property suite e: shipped episodes replay against the oracles"):
        for scenario, result in _shipped_episodes(lane_merge_episodes, conflict_episodes):
            game, strategy = scenario.game, scenario.strategy
            partition = decision_partition(game, strategy.conflict_aware)
            belief = IntervalBelief.uniform(partition)
            leader, follower = scenario.leader_start, scenario.follower_start
            for record in result.records[:REPLAYED_STEPS]:
                assert list(record.evaluations) == oracle_evaluations(game, belief, strategy)
                leader_weights, follower_weights = scenario.weights[record.chosen_cell]
                controls, _, _ = oracle_bilevel_plan(PlanRequest(
                    leader, follower, leader_weights, follower_weights, scenario.horizon,
                    scenario.dt, scenario.feature_params, scenario.bicycle_params,
                ))
                assert record.leader_control == controls[0]
                if record.warning is None:
                    responses = _oracle_responses(game, belief, record.chosen_cell[0])
                    weighted = [mass * record.likelihoods[j]
                                for mass, j in zip(belief.masses, responses)]
                    total = _in_order(weighted)
                    expected = tuple(w / total for w in weighted)
                else:
                    expected = IntervalBelief.uniform(partition).masses
                assert record.belief_breakpoints == partition.floats
                assert record.belief_masses == expected
                belief = IntervalBelief(partition, record.belief_masses)
                leader, follower = record.leader_state, record.follower_state
