"""Bimatrix leader-follower games with altruism reweighting.

A game holds one reward pair per action cell. Each player blends its own
cell reward with the opponent's through an altruism coefficient in [0, 1]:
0 is fully selfish, 1 fully altruistic. ``_commit`` is the one Stackelberg
commitment rule: the answer to each action maximizes the answering player's
value, ties to the leader's, then to the lowest index, and the leader commits
to the first action whose answer it values most. The equilibrium applies it to
the game's grids, the role swap, where the follower leads, to the transposed
grids. ``_first_max`` is the one lowest-index tie-break, ``_sum_in_order`` the
one float sum, ``_crossings`` the one pairwise reward-line crossing enumerator.

Reward crossings are solved in exact rational arithmetic, a float reward
read as the exact rational it stores. Two breakpoints are one exactly when
they are the same float, so distinct rationals less than one float apart
become one breakpoint. A ``Partition`` of [0, 1] computes its floats,
cells, widths and midpoints once. Each game owns its two decision
partitions, the domain partition at every row's crossings and its
refinement at the role-swap crossings, and builds each once, on first use.

Checks live at the public entry: ``AltruismGame`` checks its grid and the
leader's coefficient once, each public function its own coefficient and row
or cell, and every layer a caller's number with ``_finite`` and
``_positive``, the two number rules. A value the package made is not checked
again: ``_made`` builds a frozen dataclass from it without ``__post_init__``,
the only object built that way. The game computes the leader's value of
every cell once, on first use. One unchecked kernel, ``_follower_values``,
blends the follower's values of one row at a coefficient; every best
response and the role swap are read from these two grids. When every reward
and the coefficient are ints or Fractions, the kernel reads each cell's
follower line, intercept f and slope l − f, built once per game, as
f + α·(l − f): the exact rational of (1 − α)·f + α·l with one multiply. A
float reward or coefficient keeps the product form, whose rounding the float
results are pinned to; the leader's values keep it too. ``belief``'s cell
table calls the kernel and ``_commit`` after its own partition check.
"""

from __future__ import annotations

import enum
import functools
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

Number = int | float | Fraction

#: Mass bookkeeping tolerance.
MASS_TOL = 1e-9


def _finite(value: Number) -> bool:
    """In the float range: False for NaN, an infinity, and an int or Fraction past it."""
    return -sys.float_info.max <= value <= sys.float_info.max


def _positive(value: Number) -> bool:
    """Positive and finite as the float the kernels use: ``Fraction(1, 10**400)`` is not."""
    return _finite(value) and float(value) > 0


def _first_max(values: Sequence[Number]) -> int:
    """Index of the largest value, ties to the lowest: the package's one tie-break."""
    return values.index(max(values))


def _sum_in_order(values) -> float:
    """Float sum from 0.0, left to right: ``sum`` compensates rounding from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def _made(cls, *values):
    """A frozen dataclass ``cls(*values)`` from values the package made, built without
    running its ``__post_init__``: nothing is checked or converted again."""
    made = object.__new__(cls)
    vars(made).update(zip(cls.__dataclass_fields__, values))
    return made


class Player(enum.Enum):
    """Role in the game: the row player leads, the column player follows."""

    LEADER = "leader"
    FOLLOWER = "follower"


class OutcomeLabel(enum.Enum):
    """Per-cell, per-player tag used to build responsibility rewards."""

    ACCIDENT_RESPONSIBLE = "accident_responsible"
    GOAL_ACHIEVED = "goal_achieved"
    NEUTRAL = "neutral"


#: Reward assigned to each outcome label.
RESPONSIBILITY_REWARDS = {
    OutcomeLabel.ACCIDENT_RESPONSIBLE: -1,
    OutcomeLabel.GOAL_ACHIEVED: 1,
    OutcomeLabel.NEUTRAL: 0,
}


@dataclass(frozen=True)
class AltruismGame:
    """Leader/follower bimatrix with one (leader, follower) reward pair per cell.

    ``rewards[i][j]`` is the raw pair received when the leader plays row i
    and the follower plays column j. ``alpha_leader`` is the leader's own
    altruism coefficient (0 by default: the leader values only its raw
    reward); the follower's coefficient is supplied per call because it is
    the unknown being inferred.
    """

    leader_actions: tuple[str, ...]
    follower_actions: tuple[str, ...]
    rewards: tuple[tuple[tuple[Number, Number], ...], ...]
    alpha_leader: Number = 0

    def __post_init__(self) -> None:
        if not self.leader_actions or not self.follower_actions:
            raise ValueError("game needs at least one action per player")
        object.__setattr__(self, "leader_actions", tuple(self.leader_actions))
        object.__setattr__(self, "follower_actions", tuple(self.follower_actions))
        rows = tuple(tuple(tuple(cell) for cell in row) for row in self.rewards)
        object.__setattr__(self, "rewards", rows)
        if len(rows) != len(self.leader_actions):
            raise ValueError("reward grid row count does not match leader actions")
        for row in rows:
            if len(row) != len(self.follower_actions):
                raise ValueError("reward grid column count does not match follower actions")
            for cell in row:
                if len(cell) != 2:
                    raise ValueError("every cell must hold exactly one reward pair")
                if not all(map(_finite, cell)):
                    raise ValueError(f"rewards must be finite, got {cell}")
        _check_alpha(self.alpha_leader)

    @property
    def n_leader(self) -> int:
        return len(self.leader_actions)

    @property
    def n_follower(self) -> int:
        return len(self.follower_actions)

    @functools.cached_property
    def _leader_values(self) -> tuple[tuple[Number, ...], ...]:
        """The leader's blend of every cell at its own coefficient: ``[i][j]``, exact."""
        alpha = self.alpha_leader
        return tuple(tuple((1 - alpha) * leader + alpha * follower for leader, follower in row)
                     for row in self.rewards)

    @functools.cached_property
    def _follower_lines(self) -> tuple[tuple[tuple[Number, Number], ...], ...] | None:
        """Each cell's follower reward line, ``[i][j]`` = (intercept f, slope l − f); None
        unless every reward is an int or Fraction, where ``f + α·(l − f)`` is exact."""
        if not all(isinstance(r, (int, Fraction)) for row in self.rewards for c in row for r in c):
            return None
        return tuple(tuple((follower, leader - follower) for leader, follower in row)
                     for row in self.rewards)

    @functools.cached_property
    def _domain_partition(self) -> Partition:
        """Partition of [0, 1] at every reward-line crossing of every leader row."""
        return Partition((0, 1)).refined(
            tuple(alpha for i in range(self.n_leader) for alpha in intersection_points(self, i))
        )

    @functools.cached_property
    def _role_swap_partition(self) -> Partition:
        """The domain partition with the role-swap crossings refined in."""
        return self._domain_partition.refined(_role_swap_points(self))


@dataclass(frozen=True)
class Equilibrium:
    """Committed leader row, follower response, and the cell's raw rewards."""

    leader_index: int
    follower_index: int
    leader_reward: Number
    follower_reward: Number


def _check_alpha(alpha: Number) -> None:
    if not 0 <= alpha <= 1:
        raise ValueError(f"altruism coefficient must lie in [0, 1], got {alpha}")


def altruistic_reward(
    game: AltruismGame, cell: tuple[int, int], player: Player, alpha: Number
) -> Number:
    """Blend of own and opponent reward at ``cell``: (1-alpha)*own + alpha*other."""
    _check_alpha(alpha)
    i, j = cell
    if not (_index(i, game.n_leader) and _index(j, game.n_follower)):
        raise ValueError(f"cell ({i!r}, {j!r}) out of bounds")
    r_leader, r_follower = game.rewards[i][j]
    own, other = (r_leader, r_follower) if player is Player.LEADER else (r_follower, r_leader)
    return (1 - alpha) * own + alpha * other


def _index(k: int, n: int) -> bool:
    """The one index rule for rows and columns: an ``int`` in ``range(n)``; 1.0 is not one."""
    return isinstance(k, int) and 0 <= k < n


def _check_row(game: AltruismGame, leader_action: int) -> None:
    if not _index(leader_action, game.n_leader):
        raise ValueError(f"leader action {leader_action!r} out of bounds")


def _follower_values(game: AltruismGame, i: int, alpha: Number) -> list[Number]:
    """The follower's blend of each cell of row i at ``alpha``; the one unchecked kernel.
    Exact inputs read the game's lines, one multiply per cell; a float keeps the product
    form, whose rounding every float result is pinned to."""
    lines = game._follower_lines
    if lines is None or not isinstance(alpha, (int, Fraction)):
        beta = 1 - alpha
        return [beta * follower + alpha * leader for leader, follower in game.rewards[i]]
    return [intercept + alpha * slope for intercept, slope in lines[i]]


def _argmax(values: Sequence[Number], ties: Sequence[Number]) -> int:
    """Index of the largest value; ties go to the largest ``ties[k]``, then the lowest k."""
    best = max(values)
    tied = [k for k, value in enumerate(values) if value == best]
    return tied[_first_max([ties[k] for k in tied])] if len(tied) > 1 else tied[0]


def _commit(own: Sequence[Sequence[Number]], other: Sequence[Sequence[Number]]) -> tuple:
    """Every answer and the committed action, the leader valuing i answered by j at
    ``own[i][j]`` and the answering player at ``other[i][j]``: the answer to i is the
    ``_argmax`` of ``other[i]`` with ties to ``own[i]``; the leader commits to the first
    action whose answer it values most."""
    answers = [_argmax(answer, lead) for lead, answer in zip(own, other)]
    return answers, _first_max([lead[j] for lead, j in zip(own, answers)])


def follower_best_response(game: AltruismGame, leader_action: int, alpha: Number) -> int:
    """Follower's optimal column in the given row at coefficient ``alpha``.

    Ties go to the column the leader values most, remaining ties to the
    lowest column index.
    """
    _check_alpha(alpha)
    _check_row(game, leader_action)
    return _argmax(_follower_values(game, leader_action, alpha), game._leader_values[leader_action])


def stackelberg_equilibrium(game: AltruismGame, alpha_follower: Number) -> Equilibrium:
    """Backward-induction equilibrium; leader ties break to the lowest row."""
    _check_alpha(alpha_follower)
    follower = [_follower_values(game, i, alpha_follower) for i in range(game.n_leader)]
    responses, i = _commit(game._leader_values, follower)
    return Equilibrium(i, responses[i], *game.rewards[i][responses[i]])


def line_crossing(
    own_j: Number, other_j: Number, own_k: Number, other_k: Number
) -> Fraction | None:
    """Coefficient where (1-a)*own_j + a*other_j meets (1-a)*own_k + a*other_k.

    Returns None for parallel or identical lines, else an exact Fraction; a
    float input is read as the exact rational it stores.
    """
    own_j, other_j, own_k, other_k = (
        Fraction(v) if isinstance(v, float) else v for v in (own_j, other_j, own_k, other_k))
    num = own_j - own_k
    den = num + (other_k - other_j)
    return None if den == 0 else Fraction(num, den)


def intersection_points(game: AltruismGame, leader_action: int) -> list[Fraction]:
    """Coefficients strictly inside (0, 1) where the row's best response can flip.

    Every exact crossing of two follower reward lines in the row is
    returned once, sorted. Parallel lines contribute nothing.
    """
    _check_row(game, leader_action)
    return sorted(set(_crossings(game.rewards[leader_action])))


def _role_swap_points(game: AltruismGame) -> tuple[Fraction, ...]:
    """Every crossing in (0, 1) of two cells' follower values, with repeats: a superset of
    the points where the follower-as-leader preference or its tie-breaking can change."""
    return _crossings([cell for row in game.rewards for cell in row])


def _crossings(cells: Sequence[tuple[Number, Number]]) -> tuple[Fraction, ...]:
    """Every coefficient in (0, 1) where the follower's values of two cells cross, with repeats."""
    lines = [(follower, leader) for leader, follower in cells]
    crossings = (line_crossing(*a, *b) for k, a in enumerate(lines) for b in lines[k + 1:])
    return tuple(alpha for alpha in crossings if alpha is not None and 0 < alpha < 1)


@dataclass(frozen=True)
class Partition:
    """Breakpoints 0 = t0 < t1 < ... < tK = 1, strictly increasing as floats, defining K cells."""

    breakpoints: tuple[Number, ...]
    #: The breakpoints as floats, converted once at construction.
    floats: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        for p in pts:
            if not 0 <= p <= 1:
                raise ValueError(f"breakpoint {p} outside [0, 1]")
        if len(pts) < 2 or pts[0] != 0 or pts[-1] != 1:
            raise ValueError("partition must start at 0 and end at 1")
        floats = tuple(float(p) for p in pts)
        for lo, hi in zip(floats, floats[1:]):
            if not lo < hi:
                raise ValueError("partition breakpoints must be strictly increasing as floats")
        object.__setattr__(self, "floats", floats)

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) - 1

    @functools.cached_property
    def cells(self) -> tuple[tuple[Number, Number], ...]:
        return tuple(zip(self.breakpoints, self.breakpoints[1:]))

    @functools.cached_property
    def widths(self) -> tuple[float, ...]:
        return tuple(float(hi - lo) for lo, hi in self.cells)

    @functools.cached_property
    def midpoints(self) -> tuple[Number, ...]:
        sums = [lo + hi for lo, hi in self.cells]
        return tuple(Fraction(s, 2) if isinstance(s, int) else s / 2 for s in sums)

    def refines(self, other: "Partition") -> bool:
        """True if every breakpoint of ``other`` is, as a float, a breakpoint here."""
        return set(other.floats) <= set(self.floats)

    def refined(self, points: tuple[Number, ...]) -> "Partition":
        """Partition with the extra points inserted; a point that is the same float as a
        breakpoint, or as an earlier point, is dropped, so no float replaces an exact one. A
        point no float can hold keys itself, and the new partition rejects it."""
        merged = dict(zip(self.floats, self.breakpoints))
        for p in points:
            merged.setdefault(float(p) if _finite(p) else p, p)
        return Partition(tuple(merged[f] for f in sorted(merged)))


def build_responsibility_matrix(
    labels: list[list[tuple[OutcomeLabel, OutcomeLabel]]],
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Map per-cell (leader, follower) outcome labels to trinary reward pairs.

    Responsibility for an accident scores -1, achieving the player's goal
    scores 1, anything else 0.
    """
    score = RESPONSIBILITY_REWARDS
    return tuple(tuple((score[lead], score[follow]) for lead, follow in row) for row in labels)


def leader_preference_of_follower(game: AltruismGame, alpha_follower: Number) -> int:
    """Column the follower would commit to if it led at ``alpha_follower``.

    The original leader then best-responds with its own fixed coefficient.
    """
    _check_alpha(alpha_follower)
    follower = [_follower_values(game, i, alpha_follower) for i in range(game.n_leader)]
    return _commit(list(zip(*follower)), list(zip(*game._leader_values)))[1]
