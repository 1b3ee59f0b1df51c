"""Piecewise-uniform beliefs over the opponent's altruism coefficient.

The coefficient lives in [0, 1]. A belief assigns a probability mass to
each cell of an interval partition and is uniform inside every cell, so
all updates stay exact and grid-free. The partition is normally the one
induced by the game's reward-line crossings: the follower's best response
is then constant on each cell interior, which is what makes interval
conditioning and Bayes updates well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .game import AltruismGame, Number, follower_best_response, intersection_points

#: Mass bookkeeping tolerance.
MASS_TOL = 1e-9

#: Effective width assigned to a point-mass interval so entropy stays finite.
POINT_WIDTH = 1e-6

#: Differential entropy floor, reached by a point-mass belief.
ENTROPY_FLOOR = math.log(POINT_WIDTH)


class BeliefContradictionError(ValueError):
    """An observation assigned zero probability to every surviving cell."""


@dataclass(frozen=True)
class Partition:
    """Ordered breakpoints 0 = t0 < t1 < ... < tK = 1 defining K cells."""

    breakpoints: tuple[Number, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2 or pts[0] != 0 or pts[-1] != 1:
            raise ValueError("partition must start at 0 and end at 1")
        for lo, hi in zip(pts, pts[1:]):
            if not lo < hi:
                raise ValueError("partition breakpoints must be strictly increasing")

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def cells(self) -> tuple[tuple[Number, Number], ...]:
        return tuple(zip(self.breakpoints, self.breakpoints[1:]))

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(float(hi - lo) for lo, hi in self.cells)

    @property
    def midpoints(self) -> tuple[Number, ...]:
        return tuple(
            Fraction(lo + hi, 2) if isinstance(lo + hi, (int, Fraction)) else (lo + hi) / 2
            for lo, hi in self.cells
        )

    def refines(self, other: "Partition") -> bool:
        """True if every breakpoint of ``other`` appears here (within tolerance)."""
        return all(
            any(abs(float(p) - float(q)) <= MASS_TOL for q in self.breakpoints)
            for p in other.breakpoints
        )

    def refined(self, points: tuple[Number, ...]) -> "Partition":
        """Partition with the extra breakpoints inserted (duplicates dropped)."""
        merged = list(self.breakpoints)
        for p in points:
            if not 0 <= p <= 1:
                raise ValueError(f"breakpoint {p} outside [0, 1]")
            if not any(abs(float(p) - float(q)) <= MASS_TOL for q in merged):
                merged.append(p)
        return Partition(tuple(sorted(merged, key=float)))


def partition_domain(game: AltruismGame) -> Partition:
    """Partition of [0, 1] at every reward-line crossing of every leader row."""
    return Partition((0, 1)).refined(
        tuple(alpha for i in range(game.n_leader) for alpha in intersection_points(game, i))
    )


def _sum_in_order(values) -> float:
    """Float sum from 0.0, left to right: ``sum`` compensates rounding from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class IntervalBelief:
    """Probability mass per partition cell, uniform density inside each cell."""

    partition: Partition
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        masses = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "masses", masses)
        if len(masses) != self.partition.n_cells:
            raise ValueError("one mass per partition cell required")
        if any(not m >= -MASS_TOL for m in masses):
            raise ValueError(f"masses must be nonnegative and finite, got {masses}")
        total = _sum_in_order(masses)
        if not abs(total - 1.0) <= 1e-6:
            raise ValueError(f"masses must sum to 1, got {total}")

    @classmethod
    def uniform(cls, partition: Partition) -> "IntervalBelief":
        return cls(partition, partition.widths)

    @classmethod
    def uniform_on(
        cls, lo: Number, hi: Number, partition: Partition | None = None
    ) -> "IntervalBelief":
        """Uniform belief supported on [lo, hi], optionally on a refined partition."""
        if not 0 <= lo < hi <= 1:
            raise ValueError(f"invalid support [{lo}, {hi}]")
        base = Partition((0, 1)) if partition is None else partition
        part = base.refined(tuple(p for p in (lo, hi) if 0 < p < 1))
        total = float(hi - lo)
        masses = []
        for clo, chi in part.cells:
            overlap = max(0.0, min(float(chi), float(hi)) - max(float(clo), float(lo)))
            masses.append(overlap / total)
        return cls(part, tuple(masses))

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
        old = iter(zip(self.partition.cells, self.masses))
        (lo, hi), mass = next(old)
        for clo, chi in part.cells:
            while not (float(lo) - MASS_TOL <= float(clo) and float(chi) <= float(hi) + MASS_TOL):
                (lo, hi), mass = next(old)
            frac = (float(chi) - float(clo)) / (float(hi) - float(lo))
            masses.append(mass * frac)
        return IntervalBelief(part, tuple(masses))


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


def condition_on_interval(
    belief: IntervalBelief, interval: tuple[Number, Number]
) -> IntervalBelief:
    """Renormalized restriction of the belief to ``interval``.

    Raises BeliefContradictionError when the interval carries no mass.
    """
    lo, hi = interval
    if not 0 <= lo < hi <= 1:
        raise ValueError(f"invalid conditioning interval [{lo}, {hi}]")
    refined = belief.refined(tuple(p for p in (lo, hi) if 0 < p < 1))
    masses = []
    for (clo, chi), mass in zip(refined.partition.cells, refined.masses):
        inside = float(lo) - MASS_TOL <= float(clo) and float(chi) <= float(hi) + MASS_TOL
        masses.append(mass if inside else 0.0)
    total = _sum_in_order(masses)
    if total <= MASS_TOL:
        raise BeliefContradictionError(
            f"conditioning interval [{lo}, {hi}] has zero probability"
        )
    return IntervalBelief(refined.partition, tuple(m / total for m in masses))


def response_per_cell(
    belief: IntervalBelief, game: AltruismGame, leader_action: int
) -> tuple[int, ...]:
    """Follower best response for each belief cell (constant on interiors)."""
    if not belief.partition.refines(partition_domain(game)):
        raise ValueError("belief partition must refine the game's domain partition")
    return tuple(
        follower_best_response(game, leader_action, mid)
        for mid in belief.partition.midpoints
    )


def bayes_update(
    belief: IntervalBelief,
    game: AltruismGame,
    leader_action: int,
    observation_likelihoods: tuple[float, ...],
) -> IntervalBelief:
    """Posterior after observing the follower react to ``leader_action``.

    ``observation_likelihoods[j]`` scores how well the observation matches
    follower action j. Each cell's mass is reweighted by the likelihood of
    the response that cell predicts; a one-hot vector reduces to interval
    conditioning on the compatible cells.
    """
    if len(observation_likelihoods) != game.n_follower:
        raise ValueError("one likelihood per follower action required")
    if not all(0 <= l < math.inf for l in observation_likelihoods):
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
    return IntervalBelief(belief.partition, tuple(w / total for w in weighted))


def mass_below(belief: IntervalBelief, x: Number) -> float:
    """P(coefficient < x), integrating partial cells linearly."""
    if not 0 <= x <= 1:
        raise ValueError(f"threshold {x} outside [0, 1]")
    total = 0.0
    for (lo, hi), mass in zip(belief.partition.cells, belief.masses):
        if float(x) >= float(hi):
            total += mass
        elif float(x) > float(lo):
            total += mass * (float(x) - float(lo)) / (float(hi) - float(lo))
    return total
