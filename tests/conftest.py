"""Shared game fixtures used across the suite."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from altmerge.belief import IntervalBelief, partition_domain
from altmerge.game import AltruismGame
from altmerge.sim import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def make_high_stakes_probe_game() -> AltruismGame:
    """3x2 game with a risky high-reward row, a probing row, and a safe row.

    The safe row pays the leader 2 regardless of the coefficient; the probe
    row's response flips at 1/3; the risky row's at 7/15.
    """
    return AltruismGame(
        leader_actions=("risky", "probe", "safe"),
        follower_actions=("first", "second"),
        rewards=(
            ((3, 0), (-5, 7)),
            ((-1, 2), (1, 1)),
            ((-1, 2), (2, 2)),
        ),
    )


def make_two_row_sufficiency_game() -> AltruismGame:
    """2x2 game whose rows split the domain at 5/12 and 5/6."""
    return AltruismGame(
        leader_actions=("high", "low"),
        follower_actions=("first", "second"),
        rewards=(
            ((5, -4), (-2, 1)),
            ((1, -4), (0, 1)),
        ),
    )


def make_lane_merge_game() -> AltruismGame:
    """The shipped lane-merge game: merge ahead / merge behind / probe."""
    return load_scenario(SCENARIO_DIR / "lane_merge.json").game


def make_responsibility_lane_game() -> AltruismGame:
    """The shipped lane-merge game built from accident-responsibility labels."""
    return load_scenario(SCENARIO_DIR / "lane_merge_responsibility.json").game


def shipped_games() -> list[AltruismGame]:
    return [make_lane_merge_game(), make_responsibility_lane_game()]


def uniform_for(game, lo=0, hi=1):
    return IntervalBelief.uniform_on(lo, hi, partition_domain(game))


def random_game_belief_pairs(count, seed, leader_altruism=False):
    """Random 2- or 3-row integer games, each with a uniform belief on a random range.

    The range is at least 0.05 wide; the belief lives on the game's domain
    partition refined by the range ends. With ``leader_altruism`` each game
    also draws the leader's coefficient: a Fraction in twelfths for even
    game numbers, a float for odd ones. Without it the leader is selfish and
    the draws are those of the plain set.
    """
    rng = random.Random(seed)
    for number in range(count):
        m = rng.choice([2, 3])
        rewards = tuple(
            tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2))
            for _ in range(m)
        )
        alpha_leader = 0
        if leader_altruism:
            alpha_leader = rng.random() if number % 2 else Fraction(rng.randint(0, 12), 12)
        game = AltruismGame(tuple(f"r{i}" for i in range(m)), ("x", "y"), rewards, alpha_leader)
        lo = rng.uniform(0, 0.8)
        hi = rng.uniform(lo + 0.05, 1.0)
        yield game, IntervalBelief.uniform_on(lo, hi, partition_domain(game))


@pytest.fixture
def probe_game() -> AltruismGame:
    return make_high_stakes_probe_game()


@pytest.fixture
def sufficiency_game() -> AltruismGame:
    return make_two_row_sufficiency_game()


@pytest.fixture
def lane_merge_game() -> AltruismGame:
    return make_lane_merge_game()


@pytest.fixture
def responsibility_game() -> AltruismGame:
    return make_responsibility_lane_game()
