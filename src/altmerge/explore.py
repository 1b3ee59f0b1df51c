"""Leader action selection under an uncertain altruism coefficient.

The leader scores each row by its expected value under the current belief
plus an optional exploration bonus. Two bonuses are provided: expected
entropy reduction of the belief, and expected absolute change of the total
attainable leader value. A conflict-aware variant hedges the expected value
against the chance that the opponent also believes itself the leader.

Every one of these quantities is constant on each cell of the belief's
partition. So ``select_action`` builds one cell table from the game and
the partition, checks the partition once while doing so, and scores every
row from it; ``ActionEvaluation`` carries each row's expected reward,
bonus and predicted response distribution. The two bonus helpers read
their row from ``select_action``. The table holds the follower's best
response and the leader's value per row and cell and, when conflict-aware,
the follower's role-swap preference per cell and the conflict region.
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

from .belief import (POINT_WIDTH, IntervalBelief, Partition, _entropy, _sum_in_order, mass_below,
                     partition_domain)
from .game import (
    AltruismGame,
    Number,
    _check_row,
    _leader_value,
    follower_best_response,
    leader_preference_of_follower,
    line_crossing,
    stackelberg_equilibrium,
)


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

    The constructor checks that the partition refines the game's domain
    partition and, when conflict-aware, the role-swap breakpoints.
    ``responses[i][k]`` is the follower's best response to row i on cell k
    and ``values[i][k]`` the leader's value of it, as a float. ``widths``
    are the cell widths floored at POINT_WIDTH. When conflict-aware, one
    role-swap preference per cell gives both ``swapped[i][k]``, the
    leader's value of row i if the follower plays that preference, and
    whether the cell is conflicted; adjacent conflicted cells merge into
    ``region``. The methods take the belief's masses.
    """

    def __init__(self, game: AltruismGame, partition: Partition, conflict_aware: bool) -> None:
        domain = partition_domain(game)
        if not partition.refines(domain):
            raise ValueError("belief partition must refine the game's domain partition")
        if conflict_aware and not partition.refines(domain.refined(_role_swap_points(game))):
            raise ValueError("conflict-aware selection needs the role-swap breakpoints refined in")
        rows = range(game.n_leader)
        midpoints = partition.midpoints
        self.n_follower = game.n_follower
        self.responses = [[follower_best_response(game, i, mid) for mid in midpoints] for i in rows]
        exact = [[_leader_value(game, i, j) for j in self.responses[i]] for i in rows]
        self.values = [[float(value) for value in row] for row in exact]
        self.widths = tuple(max(width, POINT_WIDTH) for width in partition.widths)
        self.swapped: list[list[float]] = [[] for _ in rows]
        self.region: list[tuple[Number, Number]] = []
        if not conflict_aware:
            return
        for k, ((lo, hi), mid) in enumerate(zip(partition.cells, midpoints)):
            as_leader = leader_preference_of_follower(game, mid)
            for i in rows:
                self.swapped[i].append(float(_leader_value(game, i, as_leader)))
            equilibrium_row = max(rows, key=lambda i: (exact[i][k], -i))
            if self.responses[equilibrium_row][k] == as_leader:
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


def info_gain_bonus(game: AltruismGame, belief: IntervalBelief, leader_action: int) -> float:
    """Expected entropy drop of the belief after observing the response."""
    _check_row(game, leader_action)
    strategy = ExplorationStrategy(StrategyKind.INFO_GAIN)
    return select_action(game, belief, strategy)[0][leader_action].bonus


def expected_reward_gain_bonus(
    game: AltruismGame, belief: IntervalBelief, leader_action: int
) -> float:
    """Expected absolute change in total attainable leader value after the response."""
    _check_row(game, leader_action)
    strategy = ExplorationStrategy(StrategyKind.REWARD_GAIN)
    return select_action(game, belief, strategy)[0][leader_action].bonus


def is_conflicted(game: AltruismGame, alpha: Number) -> bool:
    """True when role confusion at ``alpha`` breaks coordination.

    Compares the follower's rational response to the leader's equilibrium
    action with the action the follower would commit to as leader.
    """
    as_follower = stackelberg_equilibrium(game, alpha).follower_index
    return as_follower != leader_preference_of_follower(game, alpha)


def _role_swap_points(game: AltruismGame) -> tuple[Number, ...]:
    """Coefficients in (0, 1) where any two cells' follower-altruistic values cross.

    Superset of every point where the follower-as-leader preference or its
    tie-breaking can change; used to bound conflict-region cells. Raw, with
    repeats: ``Partition.refined`` deduplicates and sorts them.
    """
    cells = [(cell[1], cell[0]) for row in game.rewards for cell in row]
    crossings = (line_crossing(*a, *b) for k, a in enumerate(cells) for b in cells[k + 1:])
    return tuple(alpha for alpha in crossings if alpha is not None and 0 < alpha < 1)


def decision_partition(game: AltruismGame, conflict_aware: bool = False) -> Partition:
    """Partition on which every decision-time quantity is cellwise constant."""
    base = partition_domain(game)
    return base.refined(_role_swap_points(game)) if conflict_aware else base


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
    """Score every row from one cell table; return them and the argmax (ties to lowest row)."""
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
        evaluations.append(ActionEvaluation(i, reward, bonus, reward + strategy.lam * bonus, probs))
    best = max(range(len(evaluations)), key=lambda i: (evaluations[i].total, -i))
    return evaluations, best
