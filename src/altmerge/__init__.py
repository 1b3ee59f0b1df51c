"""Active altruism learning for two-vehicle Stackelberg lane merges.

The library infers how accommodating an opposing driver is from how they
react to the ego vehicle's moves. Decision-making happens on a small
leader-follower reward matrix; an interval belief over the opponent's
altruism coefficient is updated from trajectory observations, and
exploration bonuses decide when probing the opponent is worth more than
committing. A closed-loop lane-merge simulation with bi-level MPC planning
ties the pieces together.
"""

from .belief import (
    BeliefContradictionError,
    IntervalBelief,
    Partition,
    bayes_update,
    entropy,
    mass_below,
    partition_domain,
)
from .explore import (
    ActionEvaluation,
    ExplorationStrategy,
    StrategyKind,
    conflict_region,
    expected_reward_gain_bonus,
    info_gain_bonus,
    select_action,
)
from .dynamics import BicycleParams, Control, FeatureParams, VehicleState
from .game import (
    AltruismGame,
    Equilibrium,
    OutcomeLabel,
    Player,
    altruistic_reward,
    build_responsibility_matrix,
    follower_best_response,
    intersection_points,
    leader_preference_of_follower,
    stackelberg_equilibrium,
)
from .planner import Plan, PlanRequest, PlanStats, bilevel_plan, follower_plan
from .sim import (
    EpisodeResult,
    Scenario,
    ScenarioError,
    load_scenario,
    observation_likelihoods,
    run_conflict_experiment,
    run_episode,
)

__all__ = [
    "ActionEvaluation",
    "AltruismGame",
    "BeliefContradictionError",
    "BicycleParams",
    "Control",
    "EpisodeResult",
    "Equilibrium",
    "ExplorationStrategy",
    "FeatureParams",
    "IntervalBelief",
    "OutcomeLabel",
    "Partition",
    "Plan",
    "PlanRequest",
    "PlanStats",
    "Player",
    "Scenario",
    "ScenarioError",
    "StrategyKind",
    "VehicleState",
    "altruistic_reward",
    "bayes_update",
    "bilevel_plan",
    "build_responsibility_matrix",
    "conflict_region",
    "entropy",
    "expected_reward_gain_bonus",
    "follower_best_response",
    "follower_plan",
    "info_gain_bonus",
    "intersection_points",
    "leader_preference_of_follower",
    "load_scenario",
    "mass_below",
    "observation_likelihoods",
    "partition_domain",
    "run_conflict_experiment",
    "run_episode",
    "select_action",
    "stackelberg_equilibrium",
]

__version__ = "0.1.0"
