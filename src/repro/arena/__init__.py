"""The scheduler policy arena.

Registry of raceable policies over the :class:`~repro.schedulers.base.
Scheduler` ABC, a tournament harness producing empirical
competitive-ratio leaderboards against the paper's certified lower
bounds, and an observation/action policy adapter so any
:class:`~repro.arena.env.RolloutPolicy` can enter.  See ``docs/ARENA.md``.
"""

from repro.arena.env import (
    GreedyRolloutPolicy,
    Observation,
    PolicyScheduler,
    RolloutPolicy,
    clip_action,
)
from repro.arena.leaderboard import (
    Leaderboard,
    LeaderboardCell,
    compare_leaderboards,
    load_leaderboard,
)
from repro.arena.registry import (
    ARENA_POLICIES,
    ArenaPolicy,
    arena_policies_for,
    arena_policy_names,
    get_policy,
    register_policy,
)
from repro.arena.tournament import (
    certified_scenario_names,
    run_cross_engine_tournament,
    run_tournament,
)

__all__ = [
    "ARENA_POLICIES",
    "ArenaPolicy",
    "GreedyRolloutPolicy",
    "Leaderboard",
    "LeaderboardCell",
    "Observation",
    "PolicyScheduler",
    "RolloutPolicy",
    "arena_policies_for",
    "arena_policy_names",
    "certified_scenario_names",
    "clip_action",
    "compare_leaderboards",
    "get_policy",
    "load_leaderboard",
    "register_policy",
    "run_cross_engine_tournament",
    "run_tournament",
]
