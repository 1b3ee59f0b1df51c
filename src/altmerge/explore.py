"""Leader action selection under an uncertain altruism coefficient.

The leader scores each row by its expected value under the current belief
plus an optional exploration bonus. Two bonuses are provided: expected
entropy reduction of the belief, and expected absolute change of the total
attainable leader value. A conflict-aware variant hedges the expected value
against the chance that the opponent also believes itself the leader.

Every one of these quantities is constant on each cell of the belief's
partition. So ``select_action`` builds one cell table from the game and
the partition and scores every row from it; ``ActionEvaluation`` carries
each row's expected reward, bonus and predicted response distribution.
The two bonus helpers read their row from ``select_action``. The table
holds the follower's best response and the leader's value per row and
cell and, when conflict-aware, the follower's role-swap preference per
cell and the conflict region. Building it runs the one partition check
that serves every public entry; a checked partition's midpoints all lie in
[0, 1], so the table calls ``game``'s unchecked ``_follower_values`` once
per row and cell and reads every response and the role swap from them.
Exact rationals end at the table: crossings, breakpoints, midpoints and
best responses are exact, and every score is a float sum over the cell
masses, in cell order. The posterior after a hypothetical response keeps
the masses of the cells predicting it, renormalized; no best response is
solved again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .belief import (POINT_WIDTH, IntervalBelief, Partition, _check_partition, _entropy,
                     _sum_in_order, mass_below)
from .game import AltruismGame, Number, _argmax, _check_row, _follower_values, _role_swap


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
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be nonnegative and finite, got {self.lam}")


@dataclass(frozen=True)
class ActionEvaluation:
    """Decision-time quantities for one leader row."""

    action_index: int
    expected_reward: float
    bonus: float
    total: float
    outcome_probabilities: tuple[float, ...]


class _CellTable:
    """Per-row, per-cell decision data of one game on one belief partition.

    The constructor checks that the partition refines the game's decision
    partition, which carries the role-swap breakpoints when conflict-aware.
    ``responses[i][k]`` is the follower's best response to row i on cell k
    and ``values[i][k]`` the leader's value of it, as a float. ``widths``
    are the cell widths floored at POINT_WIDTH. When conflict-aware, the
    same follower values give one role-swap preference per cell, and it
    gives both ``swapped[i][k]``, the leader's value of row i if the
    follower plays that preference, and whether the cell is conflicted;
    adjacent conflicted cells merge into ``region``. The methods take the
    belief's masses.
    """

    def __init__(self, game: AltruismGame, partition: Partition, conflict_aware: bool) -> None:
        _check_partition(game, partition, conflict_aware)
        rows, leader = range(game.n_leader), game._leader_values
        self.n_follower = game.n_follower
        self.responses: list[list[int]] = [[] for _ in rows]
        self.values: list[list[float]] = [[] for _ in rows]
        self.widths = tuple(max(width, POINT_WIDTH) for width in partition.widths)
        self.swapped: list[list[float]] = [[] for _ in rows]
        self.region: list[tuple[Number, Number]] = []
        for (lo, hi), mid in zip(partition.cells, partition.midpoints):
            follower = [_follower_values(game, i, mid) for i in rows]
            responses = [_argmax(follower[i], leader[i]) for i in rows]
            for i, j in enumerate(responses):
                self.responses[i].append(j)
                self.values[i].append(float(leader[i][j]))
            if not conflict_aware:
                continue
            as_leader = _role_swap(leader, follower)
            for i in rows:
                self.swapped[i].append(float(leader[i][as_leader]))
            equilibrium_row = max(rows, key=lambda i: (leader[i][responses[i]], -i))
            if responses[equilibrium_row] == as_leader:
                continue
            if self.region and self.region[-1][1] == lo:
                lo = self.region.pop()[0]
            self.region.append((lo, hi))

    def expectation(self, masses: tuple[float, ...], i: int) -> float:
        return _sum_in_order(mass * value for mass, value in zip(masses, self.values[i]))

    def attainable(self, masses: tuple[float, ...]) -> float:
        """Sum over rows of the belief-weighted leader value."""
        return _sum_in_order(self.expectation(masses, i) for i in range(len(self.values)))

    def probabilities(self, masses: tuple[float, ...], i: int) -> tuple[float, ...]:
        probs = [0.0] * self.n_follower
        for mass, j in zip(masses, self.responses[i]):
            probs[j] += mass
        return tuple(probs)

    def posteriors(self, masses: tuple[float, ...], i: int, probs: tuple[float, ...]):
        """(probability, posterior masses) of each response the belief predicts.

        The posterior keeps the masses of the cells predicting the response
        and divides them by their sum, as a one-hot ``bayes_update`` does.
        """
        for j, p in enumerate(probs):
            if p <= 0:
                continue
            kept = [mass if r == j else 0.0 for mass, r in zip(masses, self.responses[i])]
            total = _sum_in_order(kept)
            yield p, tuple(mass / total for mass in kept)

    def info_gain(
        self, masses: tuple[float, ...], i: int, probs: tuple[float, ...], prior_entropy: float
    ) -> float:
        expected_posterior_entropy = 0.0
        for p, posterior in self.posteriors(masses, i, probs):
            expected_posterior_entropy += p * _entropy(posterior, self.widths)
        return prior_entropy - expected_posterior_entropy

    def reward_gain(
        self, masses: tuple[float, ...], i: int, probs: tuple[float, ...], base: float
    ) -> float:
        bonus = 0.0
        for p, posterior in self.posteriors(masses, i, probs):
            bonus += p * abs(self.attainable(posterior) - base)
        return bonus

    def hedged(self, masses: tuple[float, ...], i: int, p: float) -> float:
        """Belief-weighted conflict-hedged value of row i, conflict mass ``p``."""
        total = 0.0
        for mass, nominal, conflicted in zip(masses, self.values[i], self.swapped[i]):
            if mass <= 0:
                continue
            total += mass * ((1 - p) * nominal + p * conflicted)
        return total


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


def decision_partition(game: AltruismGame, conflict_aware: bool = False) -> Partition:
    """Partition on which every decision-time quantity is cellwise constant; built once per game."""
    return game._role_swap_partition if conflict_aware else game._domain_partition


def conflict_region(game: AltruismGame) -> tuple[tuple[Number, Number], ...]:
    """Maximal intervals of coefficients where role confusion breaks coordination.

    Cells of the conflict-aware decision partition are classified at their
    midpoint; adjacent conflicted cells merge. Breakpoints are exact when
    the game is rational, so e.g. a region ending at 1/2 is reported exactly.
    """
    return tuple(_CellTable(game, decision_partition(game, conflict_aware=True), True).region)


def conflict_mass(game: AltruismGame, belief: IntervalBelief) -> float:
    """Belief probability of the conflict region.

    The belief's partition must carry the role-swap breakpoints.
    """
    return _conflict_mass(belief, _CellTable(game, belief.partition, True).region)


def select_action(
    game: AltruismGame, belief: IntervalBelief, strategy: ExplorationStrategy
) -> tuple[list[ActionEvaluation], int]:
    """Score every row from one cell table; return them and the argmax (ties to lowest row).

    A finite ``lam`` can still push a row's total out of the float range;
    that raises ``ValueError`` naming lambda rather than comparing infinities.
    """
    table = _CellTable(game, belief.partition, strategy.conflict_aware)
    masses, kind = belief.masses, strategy.kind
    if kind is StrategyKind.INFO_GAIN:
        prior_entropy = _entropy(masses, table.widths)
    elif kind is StrategyKind.REWARD_GAIN:
        base = table.attainable(masses)
    aware = strategy.conflict_aware
    if aware:
        p = _conflict_mass(belief, table.region)
    evaluations = []
    for i in range(game.n_leader):
        probs = table.probabilities(masses, i)
        reward = table.hedged(masses, i, p) if aware else table.expectation(masses, i)
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
