"""Observation/action policies over the desire/allotment scheduling loop.

Framing follows the CRM task-scheduling environments (PAPERS.md): the
scheduling problem becomes a sequential decision process whose state is
the released-but-unfinished job set and whose action is this step's
allotment matrix.  A :class:`RolloutPolicy` maps an :class:`Observation`
to an action, and :class:`PolicyScheduler` adapts any such policy into
the repo's :class:`~repro.schedulers.base.Scheduler` ABC, so it enters
the tournament and runs on either engine, with speeds, churn, faults
and journals, like any hand-written scheduler.  There is no separate
environment step loop: an episode is a :func:`~repro.sim.simulate` run.

* **Observation** (:class:`Observation`): the current step, the
  released jobs' ids and desire matrix (row per job, column per
  category, arrival order), the remaining-work backlog vector, and the
  machine capacities.
* **Action**: an ``n x K`` integer allotment matrix aligned with
  ``obs.job_ids``.  Invalid actions are not rejected but *clipped*
  (:func:`clip_action`): entries are clamped into ``[0, desire]`` and
  per-category totals reduced to capacity (later rows yield first, so
  earlier arrivals keep their grant — FIFO tie-breaking), then the
  result is asserted feasible via
  :func:`~repro.schedulers.base.check_allotments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleError
from repro.machine.machine import KResourceMachine
from repro.schedulers.base import Scheduler, check_allotments

__all__ = [
    "Observation",
    "clip_action",
    "RolloutPolicy",
    "GreedyRolloutPolicy",
    "PolicyScheduler",
]


@dataclass(frozen=True)
class Observation:
    """What a policy sees each step (non-clairvoyant by construction)."""

    #: current step (1-based, matching the engines)
    t: int
    #: released, unfinished job ids in arrival order
    job_ids: tuple[int, ...]
    #: ``len(job_ids) x K`` desire matrix, rows aligned with ``job_ids``
    desires: np.ndarray
    #: per-category remaining work over the released jobs
    backlog: np.ndarray
    #: machine capacities ``P_alpha``
    capacities: tuple[int, ...]

    @property
    def num_jobs(self) -> int:
        return len(self.job_ids)


def clip_action(
    machine: KResourceMachine,
    desires: dict[int, np.ndarray],
    action: np.ndarray | dict[int, np.ndarray],
) -> dict[int, np.ndarray]:
    """Project an arbitrary action onto the feasible allotment polytope.

    Accepts either an ``n x K`` matrix aligned with the desire order or
    a sparse ``job_id -> vector`` mapping.  Each entry is clamped into
    ``[0, desire]``; where a category's total still exceeds ``P_alpha``,
    later jobs yield first (earlier arrivals keep their grant).  The
    result always passes :func:`check_allotments` — asserted here, so a
    clipping bug can never leak an infeasible schedule into the engine.
    """
    k = machine.num_categories
    ids = list(desires)
    if isinstance(action, dict):
        rows = {int(j): np.asarray(v) for j, v in action.items()}
        unknown = set(rows) - set(ids)
        if unknown:
            raise ScheduleError(
                f"action names unknown job ids {sorted(unknown)}"
            )
    else:
        mat = np.asarray(action)
        if mat.shape != (len(ids), k):
            raise ScheduleError(
                f"action shape {mat.shape} != ({len(ids)}, {k})"
            )
        rows = {jid: mat[i] for i, jid in enumerate(ids)}
    remaining = [int(machine.capacity(a)) for a in range(k)]
    out: dict[int, np.ndarray] = {}
    for jid in ids:  # arrival order: earlier jobs claim capacity first
        row = rows.get(jid)
        if row is None:
            continue
        row_list = row.tolist() if hasattr(row, "tolist") else list(row)
        if len(row_list) != k:
            raise ScheduleError(
                f"job {jid}: action row length {len(row_list)}, "
                f"expected {k}"
            )
        d = desires[jid]
        d_list = d.tolist() if hasattr(d, "tolist") else list(d)
        clipped = np.zeros(k, dtype=np.int64)
        nonzero = False
        for alpha in range(k):
            a = min(max(int(row_list[alpha]), 0), int(d_list[alpha]))
            a = min(a, remaining[alpha])
            if a:
                clipped[alpha] = a
                remaining[alpha] -= a
                nonzero = True
        if nonzero:
            out[jid] = clipped
    check_allotments(machine, desires, out)
    return out


class RolloutPolicy:
    """Protocol for arena policies: a name and ``act(obs) -> action``.

    ``act`` may return any ``n x K`` matrix (or sparse mapping);
    :class:`PolicyScheduler` clips it to feasibility.  Policies must
    be deterministic functions of the observation (plus any internal
    seeded state) so tournament cells stay reproducible.
    """

    name = "abstract"

    def act(
        self, obs: Observation
    ) -> np.ndarray | dict[int, np.ndarray]:  # pragma: no cover
        raise NotImplementedError


class GreedyRolloutPolicy(RolloutPolicy):
    """The proof-of-entry baseline: ask for every desire, let the clip
    resolve contention FIFO-first.

    Trivial on purpose — it demonstrates that anything implementing
    :class:`RolloutPolicy` enters the tournament unchanged.  Because the
    first listed job is always granted its (capacity-clamped) desire,
    the induced scheduler is work-conserving.
    """

    name = "greedy"

    def act(self, obs: Observation) -> np.ndarray:
        return obs.desires


class PolicyScheduler(Scheduler):
    """Adapter: any :class:`RolloutPolicy` becomes a tournament entry.

    Builds the step's :class:`Observation` (the
    backlog vector needs remaining work, hence ``clairvoyant = True`` —
    the policy itself still only sees desires + backlog), asks the
    policy to act, and clips the action to feasibility.  Stateless as a
    Scheduler (checkpointable for free) as long as the wrapped policy
    is; the scheduler ``name`` is ``env-<policy.name>``.
    """

    clairvoyant = True

    def __init__(self, policy: RolloutPolicy) -> None:
        super().__init__()
        self.policy = policy
        self.name = f"env-{policy.name}"

    def allocate(self, t, desires, jobs=None):
        machine = self.machine
        k = machine.num_categories
        ids = tuple(desires)
        mat = np.zeros((len(ids), k), dtype=np.int64)
        for i, jid in enumerate(ids):
            mat[i] = np.asarray(desires[jid])
        backlog = np.zeros(k, dtype=np.int64)
        if jobs:
            for job in jobs.values():
                backlog += job.remaining_work_vector()
        obs = Observation(
            t=int(t),
            job_ids=ids,
            desires=mat,
            backlog=backlog,
            capacities=tuple(machine.capacities),
        )
        action = self.policy.act(obs)
        return clip_action(machine, dict(desires), action)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolicyScheduler({self.policy.name!r})"
