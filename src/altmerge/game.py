"""Bimatrix leader-follower games with altruism reweighting.

A game holds one reward pair per action cell. Each player blends its own
cell reward with the opponent's through an altruism coefficient in [0, 1]:
0 is fully selfish, 1 fully altruistic. The leader commits first; the
follower best-responds under its coefficient, breaking ties in the
leader's favour and then by lowest column index so runs are reproducible.

Reward crossings are solved in exact rational arithmetic whenever the
rewards are ints or Fractions, falling back to floats (deduplicated at
1e-9) otherwise.

Checks live at the public entry: ``AltruismGame`` checks its grid and the
leader's coefficient once, and each public function checks its own
coefficient and row or cell once, then calls an unchecked kernel:
``_best_response`` for the follower's answer to a row and
``_role_swap_preference`` for the column the follower would commit to as
leader, read straight from the grid. ``explore``'s cell table and
``belief.response_per_cell`` call the kernels after their own checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

Number = int | float | Fraction

#: Dedup tolerance for reward-line crossings computed in floating point.
CROSSING_TOL = 1e-9


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
                if not (-math.inf < cell[0] < math.inf and -math.inf < cell[1] < math.inf):
                    raise ValueError(f"rewards must be finite, got {cell}")
        _check_alpha(self.alpha_leader)

    @property
    def n_leader(self) -> int:
        return len(self.leader_actions)

    @property
    def n_follower(self) -> int:
        return len(self.follower_actions)


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
    if not (0 <= i < game.n_leader and 0 <= j < game.n_follower):
        raise ValueError(f"cell ({i}, {j}) out of bounds")
    r_leader, r_follower = game.rewards[i][j]
    own, other = (r_leader, r_follower) if player is Player.LEADER else (r_follower, r_leader)
    return (1 - alpha) * own + alpha * other


def _check_row(game: AltruismGame, leader_action: int) -> None:
    if not 0 <= leader_action < game.n_leader:
        raise ValueError(f"leader action {leader_action} out of bounds")


def _leader_value(game: AltruismGame, i: int, j: int) -> Number:
    r_leader, r_follower = game.rewards[i][j]
    return (1 - game.alpha_leader) * r_leader + game.alpha_leader * r_follower


def _follower_value(game: AltruismGame, i: int, j: int, alpha: Number) -> Number:
    r_leader, r_follower = game.rewards[i][j]
    return (1 - alpha) * r_follower + alpha * r_leader


def _argmax(values: list[Number], tiebreak) -> int:
    """Index of the largest value; ties go to the largest ``tiebreak(k)``, then the lowest k."""
    best = max(values)
    tied = [k for k, value in enumerate(values) if value == best]
    if len(tied) == 1:
        return tied[0]
    return max(tied, key=lambda k: (tiebreak(k), -k))


def _best_response(game: AltruismGame, i: int, alpha: Number) -> int:
    """Unchecked kernel of ``follower_best_response``."""
    beta = 1 - alpha
    values = [beta * follower + alpha * leader for leader, follower in game.rewards[i]]
    return _argmax(values, lambda j: _leader_value(game, i, j))


def _role_swap_preference(game: AltruismGame, alpha: Number) -> int:
    """Unchecked kernel of ``leader_preference_of_follower``.

    The leader answers column j with the row it values most, ties to the
    follower's value at ``alpha``, then to the lowest row. The follower
    commits to the column whose answer it values most, ties to the lowest.
    """
    rows = range(game.n_leader)
    values = []
    for j in range(game.n_follower):
        i = _argmax([_leader_value(game, i, j) for i in rows],
                    lambda i: _follower_value(game, i, j, alpha))
        values.append(_follower_value(game, i, j, alpha))
    return values.index(max(values))


def follower_best_response(game: AltruismGame, leader_action: int, alpha: Number) -> int:
    """Follower's optimal column in the given row at coefficient ``alpha``.

    Ties go to the column the leader values most, remaining ties to the
    lowest column index.
    """
    _check_alpha(alpha)
    _check_row(game, leader_action)
    return _best_response(game, leader_action, alpha)


def stackelberg_equilibrium(game: AltruismGame, alpha_follower: Number) -> Equilibrium:
    """Backward-induction equilibrium; leader ties break to the lowest row."""
    _check_alpha(alpha_follower)
    best = None
    for i in range(game.n_leader):
        j = _best_response(game, i, alpha_follower)
        value = _leader_value(game, i, j)
        if best is None or value > best[0]:
            best = (value, i, j)
    _, i, j = best
    return Equilibrium(i, j, *game.rewards[i][j])


def line_crossing(
    own_j: Number, other_j: Number, own_k: Number, other_k: Number
) -> Number | None:
    """Coefficient where (1-a)*own_j + a*other_j meets (1-a)*own_k + a*other_k.

    Returns None for parallel or identical lines. Exact Fraction when all
    inputs are rational.
    """
    num = own_j - own_k
    den = (own_j - own_k) + (other_k - other_j)
    if den == 0:
        return None
    if all(isinstance(v, (int, Fraction)) for v in (own_j, other_j, own_k, other_k)):
        return Fraction(num, den)
    return num / den


def intersection_points(game: AltruismGame, leader_action: int) -> list[Number]:
    """Coefficients strictly inside (0, 1) where the row's best response can flip.

    Every crossing of two follower reward lines in the row is returned,
    deduplicated and sorted. Parallel lines contribute nothing.
    """
    _check_row(game, leader_action)
    points: list[Number] = []
    row = game.rewards[leader_action]
    for j in range(len(row)):
        for k in range(j + 1, len(row)):
            alpha = line_crossing(row[j][1], row[j][0], row[k][1], row[k][0])
            if alpha is None or not 0 < alpha < 1:
                continue
            if not any(abs(alpha - p) <= CROSSING_TOL for p in points):
                points.append(alpha)
    return sorted(points)


def build_responsibility_matrix(
    labels: list[list[tuple[OutcomeLabel, OutcomeLabel]]],
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Map per-cell (leader, follower) outcome labels to trinary reward pairs.

    Responsibility for an accident scores -1, achieving the player's goal
    scores 1, anything else 0.
    """
    grid = []
    for row in labels:
        cells = []
        for leader_label, follower_label in row:
            cells.append(
                (RESPONSIBILITY_REWARDS[leader_label], RESPONSIBILITY_REWARDS[follower_label])
            )
        grid.append(tuple(cells))
    return tuple(grid)


def leader_preference_of_follower(game: AltruismGame, alpha_follower: Number) -> int:
    """Column the follower would commit to if it led at ``alpha_follower``.

    The original leader then best-responds with its own fixed coefficient.
    """
    _check_alpha(alpha_follower)
    return _role_swap_preference(game, alpha_follower)
