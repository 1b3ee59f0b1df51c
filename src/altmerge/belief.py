"""Piecewise-uniform beliefs over the opponent's altruism coefficient.

The coefficient lives in [0, 1]. A belief assigns a probability mass to
each cell of an interval partition and is uniform inside every cell, so
all updates stay exact and grid-free. The partition is normally the one
induced by the game's reward-line crossings: the follower's best response
is then constant on each cell interior, which is what makes Bayes
updates well defined. The game builds that partition once.

The cell table lives here. It checks a partition against the game's
decision partition and holds each row's follower best response and leader
value per cell and, when conflict-aware, the role swap and the conflict
region. Per cell it calls ``game``'s unchecked ``_follower_values`` once per
row, and ``game._commit`` gives the responses, the equilibrium row and the
role swap. It never reads the masses, so a game keeps the last table built for
it, and each step of an episode, its ``bayes_update`` included, reads it.

``IntervalBelief`` checks a caller's masses. ``bayes_update`` checks a
caller's likelihoods, and its posterior, like ``uniform`` and ``refined``, is
built by ``game._made`` without that check: each stores a mass the check would
store, 0.0 for -0.0 included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .game import (MASS_TOL, AltruismGame, Number, Partition, _check_number, _check_row, _commit,
                   _finite, _follower_values, _made, _sum_in_order)

#: Effective width assigned to a point-mass interval so entropy stays finite.
POINT_WIDTH = 1e-6

#: Differential entropy floor, reached by a point-mass belief.
ENTROPY_FLOOR = math.log(POINT_WIDTH)


class BeliefContradictionError(ValueError):
    """An observation assigned zero probability to every surviving cell."""


def partition_domain(game: AltruismGame) -> Partition:
    """Partition of [0, 1] at every reward-line crossing of every row; the game builds it once."""
    return game._domain_partition


def decision_partition(game: AltruismGame, conflict_aware: bool = False) -> Partition:
    """Partition on which every decision-time quantity is cellwise constant; built once per game."""
    return game._role_swap_partition if conflict_aware else game._domain_partition


@dataclass(frozen=True)
class IntervalBelief:
    """Probability mass per partition cell, uniform density inside each cell.

    A mass down to -MASS_TOL is accepted as rounding and stored as 0.0.
    """

    partition: Partition
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            masses = tuple(float(m) for m in self.masses)
        except OverflowError:
            raise ValueError(f"masses must be nonnegative and finite, got {self.masses}") from None
        if len(masses) != self.partition.n_cells:
            raise ValueError("one mass per partition cell required")
        if any(not m >= -MASS_TOL for m in masses):
            raise ValueError(f"masses must be nonnegative and finite, got {masses}")
        total = _sum_in_order(masses)
        if not abs(total - 1.0) <= 1e-6:
            raise ValueError(f"masses must sum to 1, got {total}")
        object.__setattr__(self, "masses", tuple(m if m > 0 else 0.0 for m in masses))

    @classmethod
    def uniform(cls, partition: Partition) -> "IntervalBelief":
        return _made(cls, partition, partition.widths)

    @classmethod
    def uniform_on(
        cls, lo: Number, hi: Number, partition: Partition | None = None
    ) -> "IntervalBelief":
        """Uniform belief on [lo, hi], bounds apart as floats, optionally on a refined partition."""
        for bound in (lo, hi):
            _check_number("support bound", bound)
        if not (0 <= lo < hi <= 1 and float(lo) < float(hi)):
            raise ValueError(f"invalid support [{lo}, {hi}]")
        base = Partition((0, 1)) if partition is None else partition
        part = base.refined(tuple(p for p in (lo, hi) if 0 < p < 1))
        total = float(hi - lo)
        overlaps = (max(0.0, min(chi, float(hi)) - max(clo, float(lo)))
                    for clo, chi in zip(part.floats, part.floats[1:]))
        return cls(part, tuple(overlap / total for overlap in overlaps))

    @property
    def support(self) -> tuple[Number, Number]:
        """Smallest interval covering every cell with positive mass."""
        cells = self.partition.cells
        positive = [k for k, m in enumerate(self.masses) if m > MASS_TOL]
        if not positive:
            raise ValueError("belief has no positive-mass cell")
        return cells[positive[0]][0], cells[positive[-1]][1]

    def refined(self, points: tuple[Number, ...]) -> "IntervalBelief":
        """Same density on a finer partition; cell mass splits by width."""
        part = self.partition.refined(points)
        masses = []
        old = iter(zip(self.partition.floats, self.partition.floats[1:], self.masses))
        lo, hi, mass = next(old)
        for clo, chi in zip(part.floats, part.floats[1:]):
            while chi > hi:
                lo, hi, mass = next(old)
            masses.append(mass * ((chi - clo) / (hi - lo)))
        return _made(IntervalBelief, part, tuple(masses))


def entropy(belief: IntervalBelief) -> float:
    """Differential entropy of the piecewise-uniform density.

    Zero-width slivers (point-mass collapse) are floored at ENTROPY_FLOOR
    so exploration bonuses stay finite. A uniform belief on [c, d] gives
    log(d - c); the maximum 0 is attained only by the full uniform.
    """
    widths = tuple(max(width, POINT_WIDTH) for width in belief.partition.widths)
    return _entropy(belief.masses, widths)


def _entropy(masses: tuple[float, ...], widths: tuple[float, ...]) -> float:
    """Entropy kernel on cell widths already floored at POINT_WIDTH."""
    total = 0.0
    for mass, width in zip(masses, widths):
        if mass <= 0:
            continue
        total -= mass * math.log(mass / width)
    return max(total, ENTROPY_FLOOR)


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
    adjacent conflicted cells merge into ``region``.

    Each method scores row i in one pass over the belief's masses, adding
    from 0.0 in cell order and skipping the cells without mass. The bonuses
    read the posterior after response j as the masses of the cells
    predicting j over ``probs[j]``, as a one-hot ``bayes_update`` does, and
    add each cell's term to the running total of its response.
    """

    def __init__(self, game: AltruismGame, partition: Partition, conflict_aware: bool) -> None:
        if not partition.refines(decision_partition(game, conflict_aware)):
            if not conflict_aware or not partition.refines(game._domain_partition):
                raise ValueError("belief partition must refine the game's domain partition")
            raise ValueError("conflict-aware selection needs the role-swap breakpoints refined in")
        rows, leader = range(game.n_leader), game._leader_values
        self.n_follower = game.n_follower
        self.responses: list[list[int]] = [[] for _ in rows]
        self.values: list[list[float]] = [[] for _ in rows]
        self.widths = tuple(max(width, POINT_WIDTH) for width in partition.widths)
        self.swapped: list[list[float]] = [[] for _ in rows]
        self.region: list[tuple[Number, Number]] = []
        for (lo, hi), mid in zip(partition.cells, partition.midpoints):
            follower = [_follower_values(game, i, mid) for i in rows]
            responses, equilibrium_row = _commit(leader, follower)
            for i, j in enumerate(responses):
                self.responses[i].append(j)
                self.values[i].append(float(leader[i][j]))
            if not conflict_aware:
                continue
            as_leader = _commit(list(zip(*follower)), list(zip(*leader)))[1]
            for i in rows:
                self.swapped[i].append(float(leader[i][as_leader]))
            if responses[equilibrium_row] == as_leader:
                continue
            if self.region and self.region[-1][1] == lo:
                lo = self.region.pop()[0]
            self.region.append((lo, hi))

    def row(
        self, masses: tuple[float, ...], i: int, p: float | None
    ) -> tuple[tuple[float, ...], float, float]:
        """Outcome probabilities, expected value, and value hedged by conflict mass ``p``;
        ``p`` is None unless conflict-aware, and the hedged value is then the expected one."""
        probs = [0.0] * self.n_follower
        expected = hedged = 0.0
        swapped = self.values[i] if p is None else self.swapped[i]
        for mass, j, nominal, conflicted in zip(masses, self.responses[i], self.values[i], swapped):
            if mass > 0:
                probs[j] += mass
                expected += mass * nominal
                if p is not None:
                    hedged += mass * ((1 - p) * nominal + p * conflicted)
        return tuple(probs), expected, expected if p is None else hedged

    def info_gain(
        self, masses: tuple[float, ...], i: int, probs: tuple[float, ...], prior_entropy: float
    ) -> float:
        """Prior entropy less the expected entropy after row i's response."""
        totals = [0.0] * len(probs)
        for mass, j, width in zip(masses, self.responses[i], self.widths):
            if mass > 0:
                posterior = mass / probs[j]
                totals[j] -= posterior * math.log(posterior / width)
        return prior_entropy - _sum_in_order(
            p * max(total, ENTROPY_FLOOR) for p, total in zip(probs, totals) if p > 0)

    def reward_gain(
        self, masses: tuple[float, ...], i: int, probs: tuple[float, ...], base: float
    ) -> float:
        """Expected absolute change of the summed row values, ``base`` under the prior."""
        sums = [[0.0] * len(self.values) for _ in probs]
        for k, (mass, j) in enumerate(zip(masses, self.responses[i])):
            if mass > 0:
                posterior, row_sums = mass / probs[j], sums[j]
                for r, values in enumerate(self.values):
                    row_sums[r] += posterior * values[k]
        return _sum_in_order(
            p * abs(_sum_in_order(row_sums) - base) for p, row_sums in zip(probs, sums) if p > 0)


def _cell_table(game: AltruismGame, partition: Partition, conflict_aware: bool) -> _CellTable:
    """One table per game, partition and flag, built and checked only here; aware serves unaware.
    The game keeps the last table built for it in its instance dict, beside its first-use values."""
    kept, aware, table = vars(game).get("_last_table", (None, False, None))
    if kept is partition and aware >= conflict_aware:
        return table
    table = _CellTable(game, partition, conflict_aware)
    vars(game)["_last_table"] = (partition, conflict_aware, table)
    return table


def response_per_cell(
    belief: IntervalBelief, game: AltruismGame, leader_action: int
) -> tuple[int, ...]:
    """Follower best response for each belief cell (constant on interiors)."""
    _check_row(game, leader_action)
    return tuple(_cell_table(game, belief.partition, False).responses[leader_action])


def bayes_update(
    belief: IntervalBelief,
    game: AltruismGame,
    leader_action: int,
    observation_likelihoods: tuple[float, ...],
) -> IntervalBelief:
    """Posterior after observing the follower react to ``leader_action``.

    ``observation_likelihoods[j]`` scores how well the observation matches
    follower action j. Each cell's mass is reweighted by the likelihood of
    the response that cell predicts; a one-hot vector conditions exactly
    on the cells predicting that response.
    """
    if len(observation_likelihoods) != game.n_follower:
        raise ValueError("one likelihood per follower action required")
    if not all(0 <= l and _finite(l) for l in observation_likelihoods):
        raise ValueError(
            f"likelihoods must be nonnegative and finite, got {tuple(observation_likelihoods)}"
        )
    if not any(l > 0 for l in observation_likelihoods):
        raise ValueError("at least one likelihood must be positive")
    responses = response_per_cell(belief, game, leader_action)
    weighted = [
        mass * observation_likelihoods[j] for mass, j in zip(belief.masses, responses)
    ]
    total = _sum_in_order(weighted)
    if total <= 0:
        raise BeliefContradictionError(
            "observation is inconsistent with every cell of positive mass"
        )
    if not math.isfinite(total):
        raise ValueError(f"likelihoods {tuple(observation_likelihoods)} overflow the normalizer")
    return _made(IntervalBelief, belief.partition,
                 tuple(w / total if w > 0 else 0.0 for w in weighted))


def mass_below(belief: IntervalBelief, x: Number) -> float:
    """P(coefficient < x), integrating partial cells linearly."""
    _check_number("threshold", x)
    if not 0 <= x <= 1:
        raise ValueError(f"threshold {x} outside [0, 1]")
    total, fx, floats = 0.0, float(x), belief.partition.floats
    for lo, hi, mass in zip(floats, floats[1:], belief.masses):
        if fx >= hi:
            total += mass
        elif fx > lo:
            total += mass * (fx - lo) / (hi - lo)
    return total
