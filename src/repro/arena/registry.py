"""The arena's policy registry: who is allowed into the tournament.

A thin, *curated* layer over :meth:`Scheduler.from_name`: the scheduler
package registers every class that exists, the arena registers every
policy that makes sense to race on scenario traces.  Each entry is an
:class:`ArenaPolicy` — a name, a zero-argument factory producing a
**fresh** scheduler instance per tournament cell (stateful policies
must never share state across cells), and a ``supports(capacities)``
predicate for policies with structural preconditions (RAD is defined
for K = 1 only, so it sits out multi-category grids instead of
erroring them).

Observation/action policies enter through the same door: ``env-greedy``
is a :class:`~repro.arena.env.PolicyScheduler` wrapping
:class:`~repro.arena.env.GreedyRolloutPolicy`, proving that path into
the tournament.  ``register_policy`` admits external
entries — a learned policy wrapped in ``PolicyScheduler`` registers in
one line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.arena.env import GreedyRolloutPolicy, PolicyScheduler
from repro.errors import ReproError
from repro.schedulers.base import Scheduler

__all__ = [
    "ArenaPolicy",
    "ARENA_POLICIES",
    "arena_policy_names",
    "arena_policies_for",
    "get_policy",
    "register_policy",
]


def _always(capacities: Sequence[int]) -> bool:
    return True


def _single_category(capacities: Sequence[int]) -> bool:
    return len(capacities) == 1


@dataclass(frozen=True)
class ArenaPolicy:
    """One tournament entry."""

    name: str
    factory: Callable[[], Scheduler]
    #: structural precondition on the machine (capacity vector)
    supports: Callable[[Sequence[int]], bool] = _always
    notes: str = ""
    #: extra metadata surfaced in the leaderboard (e.g. "clairvoyant")
    tags: tuple[str, ...] = field(default_factory=tuple)

    def make(self) -> Scheduler:
        """Produce a fresh scheduler and sanity-check its name."""
        sched = self.factory()
        if sched.name != self.name:
            raise ReproError(
                f"arena policy {self.name!r} built a scheduler named "
                f"{sched.name!r}; leaderboard rows would lie"
            )
        return sched


def _named(name: str, **kwargs) -> ArenaPolicy:
    return ArenaPolicy(
        name=name, factory=lambda name=name: Scheduler.from_name(name),
        **kwargs,
    )


ARENA_POLICIES: dict[str, ArenaPolicy] = {
    p.name: p
    for p in (
        _named("k-rad", notes="the paper's scheduler (Theorem 3 optimal)"),
        _named(
            "rad",
            supports=_single_category,
            notes="K = 1 ancestor; sits out multi-category grids",
        ),
        _named("k-deq", notes="DEQ in every category, no RR mode"),
        _named("k-rr", notes="round-robin in every category, no DEQ mode"),
        _named("equi", notes="equipartition (Edmonds et al.)"),
        _named("greedy-fcfs", notes="first-come-first-served max grant"),
        _named("setf", notes="smallest elapsed time first"),
        _named(
            "k-rad-random",
            notes="K-RAD with seeded random tie-breaking",
        ),
        _named(
            "static-partition",
            notes="fixed per-job quotas, reassigned on completion",
        ),
        _named("gang", notes="one job at a time, full machine"),
        _named(
            "list-sched",
            notes="multi-resource list scheduling "
            "(Perotin/Sun/Raghavan, adapted)",
        ),
        ArenaPolicy(
            name="env-greedy",
            factory=lambda: PolicyScheduler(GreedyRolloutPolicy()),
            notes="greedy rollout policy through the PolicyScheduler adapter",
            tags=("env",),
        ),
    )
}


def arena_policy_names() -> list[str]:
    """Sorted names of every registered tournament entry."""
    return sorted(ARENA_POLICIES)


def arena_policies_for(
    capacities: Sequence[int],
) -> list[ArenaPolicy]:
    """The entries that support this machine, in registration order."""
    return [
        p for p in ARENA_POLICIES.values() if p.supports(capacities)
    ]


def get_policy(name: str) -> ArenaPolicy:
    try:
        return ARENA_POLICIES[name]
    except KeyError:
        raise ReproError(
            f"unknown arena policy {name!r}; choose from "
            f"{arena_policy_names()}"
        ) from None


def register_policy(policy: ArenaPolicy, *, replace: bool = False) -> None:
    """Admit an external entry (e.g. a learned ``PolicyScheduler``)."""
    if policy.name in ARENA_POLICIES and not replace:
        raise ReproError(
            f"arena policy {policy.name!r} already registered; "
            "pass replace=True to override"
        )
    ARENA_POLICIES[policy.name] = policy
