"""Leader action selection under an uncertain altruism coefficient.

The leader scores each row by its expected value under the current belief
plus an optional exploration bonus. Two bonuses are provided: expected
entropy reduction of the belief, and expected absolute change of the total
attainable leader value. A conflict-aware variant hedges the expected value
against the chance that the opponent also believes itself the leader.

Every one of these quantities is constant on each cell of the belief's
partition. So ``select_action`` reads the one cell table of the game,
partition and flag and scores every row from it; ``ActionEvaluation``
carries each row's expected reward, bonus and predicted response
distribution. The two bonus helpers read their row from ``select_action``.
Every score is a float sum over the cell masses, in cell order, and each
row costs one pass over the cells: a cell adds its share of a bonus to the
running total of the response it predicts. No best response is solved
again and no posterior is built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .belief import (IntervalBelief, _cell_table, _entropy, _sum_in_order, decision_partition,
                     mass_below)
from .game import AltruismGame, Number, _check_row, _finite


class StrategyKind(enum.Enum):
    PASSIVE = "passive"
    INFO_GAIN = "info-gain"
    REWARD_GAIN = "reward-gain"


@dataclass(frozen=True)
class ExplorationStrategy:
    """How the leader trades immediate value against learning.

    ``lam`` scales the exploration bonus (unused by PASSIVE).
    ``conflict_aware`` switches the expected-value term to the
    conflict-hedged reward.
    """

    kind: StrategyKind
    lam: float = 1.0
    conflict_aware: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.kind, StrategyKind):
            raise ValueError(f"kind must be a StrategyKind, got {self.kind!r}")
        if not isinstance(self.conflict_aware, bool):
            raise ValueError(f"conflict_aware must be a bool, got {self.conflict_aware!r}")
        if not (_finite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be nonnegative and finite, got {self.lam}")


@dataclass(frozen=True)
class ActionEvaluation:
    """Decision-time quantities for one leader row."""

    action_index: int
    expected_reward: float
    bonus: float
    total: float
    outcome_probabilities: tuple[float, ...]


def _conflict_mass(belief: IntervalBelief, region: list[tuple[Number, Number]]) -> float:
    return _sum_in_order(mass_below(belief, hi) - mass_below(belief, lo) for lo, hi in region)


def _bonus(kind: StrategyKind, game: AltruismGame, belief: IntervalBelief, i: int) -> float:
    _check_row(game, i)
    return select_action(game, belief, ExplorationStrategy(kind))[0][i].bonus


def info_gain_bonus(game: AltruismGame, belief: IntervalBelief, leader_action: int) -> float:
    """Expected entropy drop of the belief after observing the response."""
    return _bonus(StrategyKind.INFO_GAIN, game, belief, leader_action)


def expected_reward_gain_bonus(
    game: AltruismGame, belief: IntervalBelief, leader_action: int
) -> float:
    """Expected absolute change in total attainable leader value after the response."""
    return _bonus(StrategyKind.REWARD_GAIN, game, belief, leader_action)


def conflict_region(game: AltruismGame) -> tuple[tuple[Number, Number], ...]:
    """Maximal intervals of coefficients where role confusion breaks coordination.

    Cells of the conflict-aware decision partition are classified at their
    midpoint; adjacent conflicted cells merge. Breakpoints are exact when
    the game is rational, so e.g. a region ending at 1/2 is reported exactly.
    """
    return tuple(_cell_table(game, decision_partition(game, True), True).region)


def conflict_mass(game: AltruismGame, belief: IntervalBelief) -> float:
    """Belief probability of the conflict region.

    The belief's partition must carry the role-swap breakpoints.
    """
    return _conflict_mass(belief, _cell_table(game, belief.partition, True).region)


def select_action(
    game: AltruismGame, belief: IntervalBelief, strategy: ExplorationStrategy
) -> tuple[list[ActionEvaluation], int]:
    """Score every row from one cell table; return them and the argmax (ties to lowest row).

    A finite ``lam`` can still push a row's total out of the float range;
    that raises ``ValueError`` naming lambda rather than comparing infinities.
    """
    table = _cell_table(game, belief.partition, strategy.conflict_aware)
    masses, kind = belief.masses, strategy.kind
    p = _conflict_mass(belief, table.region) if strategy.conflict_aware else None
    rows = [table.row(masses, i, p) for i in range(game.n_leader)]
    if kind is StrategyKind.INFO_GAIN:
        prior_entropy = _entropy(masses, table.widths)
    elif kind is StrategyKind.REWARD_GAIN:
        base = _sum_in_order(expected for _, expected, _ in rows)
    evaluations = []
    for i, (probs, _, reward) in enumerate(rows):
        if kind is StrategyKind.INFO_GAIN:
            bonus = table.info_gain(masses, i, probs, prior_entropy)
        elif kind is StrategyKind.REWARD_GAIN:
            bonus = table.reward_gain(masses, i, probs, base)
        else:
            bonus = 0.0
        total = reward + strategy.lam * bonus
        if not math.isfinite(total):
            raise ValueError(f"lambda {strategy.lam!r} times row {i}'s bonus {bonus!r} overflows")
        evaluations.append(ActionEvaluation(i, reward, bonus, total, probs))
    best = max(range(len(evaluations)), key=lambda i: (evaluations[i].total, -i))
    return evaluations, best
