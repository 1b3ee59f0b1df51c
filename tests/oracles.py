"""Independent brute-force oracles the implementation is checked against.

The grid oracles re-derive results from the raw reward grid with plain
enumeration or dense coefficient grids, deliberately avoiding the library's
own game and belief machinery. They share one solved grid, each row's
response and leader value at every point, solved once per
``(rewards, lo, hi, n)``; each oracle sums it in grid order. The exact row
oracle integrates over every pairwise crossing in Fractions, with no
tolerance. The planner oracle is
the plain nested search, built only from the validated ``dynamics.step``
and its own plain formula for each feature, not the package's cost
kernels: it re-solves the follower for every leader candidate and caches
nothing. The decision oracle is the per-call evaluation on the
belief's cells: every helper re-solves its own best responses, by
``oracle_best_response`` at each cell midpoint, and writes out its own
one-hot posteriors, nothing shared. Its conflict test and role swap come
from the grid oracles too, so no follower response comes from the package's
solver. Both import the package inside their functions, so this file loads
without the package on the path, as ``perfbench`` loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def oracle_best_response(rewards, i, alpha, alpha_leader=0):
    """Follower argmax by enumeration: follower value, leader value, lowest index."""
    n = len(rewards[i])

    def follower_value(j):
        return (1 - alpha) * rewards[i][j][1] + alpha * rewards[i][j][0]

    def leader_value(j):
        return (1 - alpha_leader) * rewards[i][j][0] + alpha_leader * rewards[i][j][1]

    best = None
    for j in range(n):
        key = (follower_value(j), leader_value(j), -j)
        if best is None or key > best[0]:
            best = (key, j)
    return best[1]


def oracle_equilibrium(rewards, alpha, alpha_leader=0):
    """Leader argmax over rows given the oracle follower response."""
    def leader_value(i, j):
        return (1 - alpha_leader) * rewards[i][j][0] + alpha_leader * rewards[i][j][1]

    best = None
    for i in range(len(rewards)):
        j = oracle_best_response(rewards, i, alpha, alpha_leader)
        key = (leader_value(i, j), -i)
        if best is None or key > best[0]:
            best = (key, (i, j))
    return best[1]


def oracle_role_swap_preference(rewards, alpha, alpha_leader=0):
    """Column the follower commits to as leader: the equilibrium of the transposed grid.

    On the transposed grid the pairs swap, the follower leads at ``alpha``
    and the leader answers at ``alpha_leader``.
    """
    swapped = [[(row[i][1], row[i][0]) for row in rewards] for i in range(len(rewards[0]))]
    return oracle_equilibrium(swapped, alpha_leader, alpha)[0]


def _grid(lo, hi, n):
    step = (hi - lo) / n
    return [lo + (k + 0.5) * step for k in range(n)]


def _leader_value(rewards, i, j, alpha_leader=0):
    return (1 - alpha_leader) * rewards[i][j][0] + alpha_leader * rewards[i][j][1]


def oracle_leader_row_value(rewards, i, alpha, alpha_leader=0):
    return _leader_value(rewards, i, oracle_best_response(rewards, i, alpha, alpha_leader),
                         alpha_leader)


#: The last grid solved, by the repr of its arguments, so an int reward and an equal float
#: stay apart. One grid is enough: callers ask for every row of one game in turn.
_SOLVED: dict = {}


def _solved_grid(rewards, lo, hi, n):
    """Every row's response and leader value at each point of the grid, solved once a grid."""
    key = repr((rewards, lo, hi, n))
    if key not in _SOLVED:
        samples = _grid(lo, hi, n)
        responses = [[oracle_best_response(rewards, i, a) for a in samples]
                     for i in range(len(rewards))]
        values = [[_leader_value(rewards, i, j) for j in row] for i, row in enumerate(responses)]
        _SOLVED.clear()
        _SOLVED[key] = responses, values
    return _SOLVED[key]


def oracle_row_expectation(rewards, i, lo, hi, n=10_000):
    """Grid-average of the leader's row value under a uniform belief on [lo, hi]."""
    values = _solved_grid(rewards, lo, hi, n)[1][i]
    return sum(values) / len(values)


def oracle_outcome_distribution(rewards, i, lo, hi, n=10_000):
    """Fraction of the uniform belief predicting each follower response."""
    counts = [0] * len(rewards[i])
    for j in _solved_grid(rewards, lo, hi, n)[0][i]:
        counts[j] += 1
    return [c / n for c in counts]


def _attainable(values, ks):
    """Sum over rows of the row's mean value at the samples indexed by ``ks``."""
    total = 0.0
    for row in values:
        total += sum(row[k] for k in ks) / len(ks)
    return total


def oracle_info_gain(rewards, i, lo, hi, n=10_000):
    """Entropy-drop bonus for a uniform belief on [lo, hi].

    Conditioning a uniform belief on a predicted response keeps it uniform
    on the compatible coefficient set, whose entropy is log of its measure.
    """
    by_response: dict[int, int] = {}
    for j in _solved_grid(rewards, lo, hi, n)[0][i]:
        by_response[j] = by_response.get(j, 0) + 1
    h_prior = math.log(hi - lo)
    expected = 0.0
    for count in by_response.values():
        p = count / n
        expected += p * math.log(p * (hi - lo))
    return h_prior - expected


def oracle_reward_gain(rewards, i, lo, hi, n=10_000):
    """Expected absolute change of total attainable value, grid approximation."""
    responses, values = _solved_grid(rewards, lo, hi, n)
    base = _attainable(values, range(n))
    groups: dict[int, list[int]] = {}
    for k, j in enumerate(responses[i]):
        groups.setdefault(j, []).append(k)
    bonus = 0.0
    for subset in groups.values():
        p = len(subset) / n
        bonus += p * abs(_attainable(values, subset) - base)
    return bonus


def oracle_exact_row(rewards, i, alpha_leader=0):
    """Row i's expected leader value and response distribution, exact, under the uniform
    belief on [0, 1].

    Every pairwise crossing of the row's follower lines is taken in
    Fractions, with no tolerance. The response is constant between two
    neighbouring crossings, so each elementary interval adds its width
    times the value of its midpoint's response. Returns Fractions.
    """
    exact = [[(Fraction(lead), Fraction(follow)) for lead, follow in row] for row in rewards]
    alpha_leader = Fraction(alpha_leader)
    row = exact[i]
    ends = {Fraction(0), Fraction(1)}
    for k, (lead_k, follow_k) in enumerate(row):
        for lead_m, follow_m in row[k + 1:]:
            # (1 - a) * follow_k + a * lead_k = (1 - a) * follow_m + a * lead_m
            num, den = follow_k - follow_m, (follow_k - follow_m) - (lead_k - lead_m)
            if den != 0 and 0 < num / den < 1:
                ends.add(num / den)
    ends = sorted(ends)
    reward, probs = Fraction(0), [Fraction(0)] * len(row)
    for lo, hi in zip(ends, ends[1:]):
        j = oracle_best_response(exact, i, (lo + hi) / 2, alpha_leader)
        reward += (hi - lo) * ((1 - alpha_leader) * row[j][0] + alpha_leader * row[j][1])
        probs[j] += hi - lo
    return reward, probs


# ---------------------------------------------------------------------------
# Planner: the plain nested coordinate search

_SOLVER_TOL = 1e-6
_SEARCH_ROUNDS = 3


def oracle_features(own, other, params):
    """The six features of the (own, other) state pair, each formula written out.

    0-3 are 1 - exp(-rate * err * err) for the offsets from the left and right
    lane centres, the speed limit and the lane heading, and 0.0 at rate 0.
    4 is the squared offset in the other vehicle's frame over the safety
    ellipse's axes, minus 1 and clamped at 0, and 0.0 where squaring
    overflows. 5 is tanh of the longitudinal gap.
    """
    def penalty(rate, err):
        return 1.0 - math.exp(-rate * err * err) if rate else 0.0

    sin_o, cos_o = math.sin(other.theta), math.cos(other.theta)
    dx, dy = own.x - other.x, own.y - other.y
    lateral = dx * cos_o - dy * sin_o
    longitudinal = dx * sin_o + dy * cos_o
    try:
        separation = min(0.0, (lateral / (params.vehicle_width + params.width_margin)) ** 2
                         + (longitudinal / (params.vehicle_length + params.length_margin)) ** 2
                         - 1.0)
    except OverflowError:
        separation = 0.0
    return (penalty(params.lambda_x, own.x - params.x_left),
            penalty(params.lambda_x, own.x - params.x_right),
            penalty(params.lambda_v, own.v - params.v_limit),
            penalty(params.lambda_theta, own.theta - params.lane_theta),
            separation,
            math.tanh(own.y - other.y))


def oracle_cost(trajectory, other_trajectory, weights, params):
    """Weighted features of each aligned state pair summed from 0.0 in feature order,
    the own terms first, then ``+ w4 * f4 + w5 * f5``; the pairs' sums added from
    0.0 in order."""
    total = 0.0
    for own, other in zip(trajectory, other_trajectory):
        value = 0.0
        for w, f in zip(weights, oracle_features(own, other, params)):
            value += w * f
        total += value
    return total


def replay(state, controls, params, dt):
    """Post-step states of the controls applied in order, one validated step each."""
    from altmerge.dynamics import step

    states = []
    for control in controls:
        state = step(state, control, params, dt)
        states.append(state)
    return states


def _halves(params4, horizon):
    from altmerge.dynamics import Control

    first = (horizon + 1) // 2
    a1, s1, a2, s2 = params4
    return tuple(Control(a1, s1) if k < first else Control(a2, s2) for k in range(horizon))


def _grid_values(center, span, limit):
    values = []
    for v in (center - span, center - span / 2, center, center + span / 2, center + span):
        clamped = max(-limit, min(limit, v))
        if not any(abs(clamped - u) < 1e-12 for u in values):
            values.append(clamped)
    return values


def _search(objective, params):
    """Shrinking-grid cyclic coordinate ascent; every candidate is evaluated afresh."""
    limits = (params.accel_max, params.steer_max, params.accel_max, params.steer_max)
    current = [0.0, 0.0, 0.0, 0.0]
    best = objective(tuple(current))
    spans = list(limits)
    for _ in range(_SEARCH_ROUNDS):
        for coord in range(4):
            for value in _grid_values(current[coord], spans[coord], limits[coord]):
                if abs(value - current[coord]) < 1e-12:
                    continue
                candidate = list(current)
                candidate[coord] = value
                score = objective(tuple(candidate))
                if score > best + _SOLVER_TOL:
                    best = score
                    current = candidate
        spans = [s / 2 for s in spans]
    return tuple(current)


def oracle_follower_plan(follower_state, leader_state, leader_controls, weights,
                         dt, feature_params, bicycle_params):
    """Follower best response to a fixed leader control sequence."""
    leader_traj = replay(leader_state, leader_controls, bicycle_params, dt)
    horizon = len(leader_controls)

    def objective(params4):
        controls = _halves(params4, horizon)
        traj = replay(follower_state, controls, bicycle_params, dt)
        return oracle_cost(traj, leader_traj, weights, feature_params)

    return _halves(_search(objective, bicycle_params), horizon)


def oracle_leader_value(request, params4):
    """Leader value of one candidate with the follower solved afresh.

    Returns (value, leader controls, follower controls, leader trajectory,
    follower trajectory).
    """
    leader_controls = _halves(params4, request.horizon)
    follower_controls = oracle_follower_plan(
        request.follower_state, request.leader_state, leader_controls,
        request.follower_weights, request.dt, request.feature_params, request.bicycle_params,
    )
    leader_traj = replay(request.leader_state, leader_controls, request.bicycle_params, request.dt)
    follower_traj = replay(request.follower_state, follower_controls,
                           request.bicycle_params, request.dt)
    value = oracle_cost(leader_traj, follower_traj, request.leader_weights,
                        request.feature_params)
    return value, leader_controls, follower_controls, leader_traj, follower_traj


def oracle_bilevel_plan(request):
    """(leader controls, follower controls, leader cost)."""
    params4 = _search(lambda p: oracle_leader_value(request, p)[0], request.bicycle_params)
    value, leader_controls, follower_controls, _, _ = oracle_leader_value(request, params4)
    return leader_controls, follower_controls, value


# ---------------------------------------------------------------------------
# Decision layer: every helper recomputes its cell quantities on its own
#
# The per-call code the decision layer ran before its cell table. Each
# helper re-checks the partition, re-solves the best response at every
# belief midpoint by enumeration and conditions every hypothetical
# posterior on its own; the conflict mass is re-derived for every row and cell.


def _in_order(values):
    """Float sum from 0.0, left to right, as the decision layer adds on every CPython."""
    total = 0.0
    for value in values:
        total += value
    return total


def leader_reward_given_alpha(game, leader_action, alpha):
    """Leader's value of the row once the follower responds at ``alpha``."""
    from altmerge.game import Player, altruistic_reward, follower_best_response

    j = follower_best_response(game, leader_action, alpha)
    return altruistic_reward(game, (leader_action, j), Player.LEADER, game.alpha_leader)


def _oracle_responses(game, belief, leader_action):
    """The enumerated best response at each belief cell's midpoint."""
    return [oracle_best_response(game.rewards, leader_action, mid, game.alpha_leader)
            for mid in belief.partition.midpoints]


def _oracle_row_reward(game, belief, leader_action):
    from altmerge.belief import partition_domain

    if not belief.partition.refines(partition_domain(game)):
        raise ValueError("belief partition must refine the game's domain partition")
    return _in_order(
        mass * float(oracle_leader_row_value(game.rewards, leader_action, mid, game.alpha_leader))
        for mass, mid in zip(belief.masses, belief.partition.midpoints)
    )


def _oracle_outcome_distribution(game, belief, leader_action):
    probs = [0.0] * game.n_follower
    for mass, j in zip(belief.masses, _oracle_responses(game, belief, leader_action)):
        probs[j] += mass
    return tuple(probs)


def _oracle_posterior(game, belief, leader_action, outcome):
    """The belief conditioned on ``outcome``: a one-hot Bayes update, written out."""
    from altmerge.belief import IntervalBelief

    responses = _oracle_responses(game, belief, leader_action)
    weighted = [mass * (1.0 if j == outcome else 0.0) for mass, j in zip(belief.masses, responses)]
    total = _in_order(weighted)
    return IntervalBelief(belief.partition, tuple(w / total for w in weighted))


def _oracle_info_gain(game, belief, leader_action):
    from altmerge.belief import entropy

    probs = _oracle_outcome_distribution(game, belief, leader_action)
    expected_posterior_entropy = 0.0
    for j, p in enumerate(probs):
        if p <= 0:
            continue
        posterior = _oracle_posterior(game, belief, leader_action, j)
        expected_posterior_entropy += p * entropy(posterior)
    return entropy(belief) - expected_posterior_entropy


def _oracle_attainable(game, belief):
    return _in_order(_oracle_row_reward(game, belief, i) for i in range(game.n_leader))


def _oracle_reward_gain(game, belief, leader_action):
    probs = _oracle_outcome_distribution(game, belief, leader_action)
    base = _oracle_attainable(game, belief)
    bonus = 0.0
    for j, p in enumerate(probs):
        if p <= 0:
            continue
        posterior = _oracle_posterior(game, belief, leader_action, j)
        bonus += p * abs(_oracle_attainable(game, posterior) - base)
    return bonus


def _oracle_is_conflicted(game, alpha):
    _, as_follower = oracle_equilibrium(game.rewards, alpha, game.alpha_leader)
    return as_follower != oracle_role_swap_preference(game.rewards, alpha, game.alpha_leader)


def oracle_conflict_region(game):
    """Conflicted cells of the conflict-aware decision partition, merged."""
    from altmerge.explore import decision_partition

    partition = decision_partition(game, conflict_aware=True)
    intervals = []
    for (lo, hi), mid in zip(partition.cells, partition.midpoints):
        if not _oracle_is_conflicted(game, mid):
            continue
        if intervals and intervals[-1][1] == lo:
            intervals[-1][1] = hi
        else:
            intervals.append([lo, hi])
    return tuple((lo, hi) for lo, hi in intervals)


def oracle_conflict_mass(game, belief):
    """Belief probability of the conflict region."""
    from altmerge.belief import mass_below

    return _in_order(
        mass_below(belief, hi) - mass_below(belief, lo)
        for lo, hi in oracle_conflict_region(game)
    )


def oracle_conflict_adjusted_reward(game, belief, cell, alpha):
    """Cell value mixed with the role-swap cell by the conflict mass."""
    from altmerge.game import Player, altruistic_reward

    i, j = cell
    p = oracle_conflict_mass(game, belief)
    j_leader = oracle_role_swap_preference(game.rewards, alpha, game.alpha_leader)
    nominal = float(altruistic_reward(game, (i, j), Player.LEADER, game.alpha_leader))
    conflicted = float(altruistic_reward(game, (i, j_leader), Player.LEADER, game.alpha_leader))
    return (1 - p) * nominal + p * conflicted


def _oracle_conflict_aware_reward(game, belief, leader_action):
    responses = _oracle_responses(game, belief, leader_action)
    total = 0.0
    for mass, mid, j in zip(belief.masses, belief.partition.midpoints, responses):
        if mass <= 0:
            continue
        total += mass * oracle_conflict_adjusted_reward(game, belief, (leader_action, j), mid)
    return total


def oracle_evaluations(game, belief, strategy):
    """Every row's ActionEvaluation, each quantity recomputed on its own."""
    from altmerge.belief import partition_domain
    from altmerge.explore import ActionEvaluation, StrategyKind, decision_partition

    if not belief.partition.refines(partition_domain(game)):
        raise ValueError("belief partition must refine the game's domain partition")
    if strategy.conflict_aware and not belief.partition.refines(
        decision_partition(game, conflict_aware=True)
    ):
        raise ValueError("conflict-aware selection needs the role-swap breakpoints refined in")
    evaluations = []
    for i in range(game.n_leader):
        if strategy.conflict_aware:
            reward = _oracle_conflict_aware_reward(game, belief, i)
        else:
            reward = _oracle_row_reward(game, belief, i)
        if strategy.kind is StrategyKind.INFO_GAIN:
            bonus = _oracle_info_gain(game, belief, i)
        elif strategy.kind is StrategyKind.REWARD_GAIN:
            bonus = _oracle_reward_gain(game, belief, i)
        else:
            bonus = 0.0
        evaluations.append(
            ActionEvaluation(
                action_index=i,
                expected_reward=reward,
                bonus=bonus,
                total=reward + strategy.lam * bonus,
                outcome_probabilities=_oracle_outcome_distribution(game, belief, i),
            )
        )
    return evaluations
