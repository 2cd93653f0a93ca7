"""Dynamic equi-partitioning (DEQ) — the space-sharing half of RAD.

``deq_allocate`` implements the recursive procedure of Figure 2 with integer
processors:

1. every job desiring at most the fair share ``P / |Q|`` is *satisfied*
   (gets exactly its desire);
2. the freed capacity is re-partitioned among the remaining (*deprived*)
   jobs, recursively;
3. when no job is below the fair share, the deprived jobs split the capacity
   equally — the *mean deprived allotment* — with the integer remainder
   going to the earliest jobs in queue order (allotments differ by <= 1).

The function is also well-defined when ``|Q| > P`` (fair share 0): the first
``P`` jobs in queue order get one processor each, which is what the DEQ-only
baseline degenerates to under heavy load.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.machine.machine import KResourceMachine
from repro.schedulers.base import Scheduler

__all__ = ["deq_allocate", "KDeq"]


def deq_allocate(
    queue: Sequence[int], desires: Mapping[int, int], capacity: int
) -> dict[int, int]:
    """Partition ``capacity`` processors among ``queue`` by DEQ.

    Parameters
    ----------
    queue:
        Job ids in queue order (earliest first); order decides who receives
        the integer remainder.
    desires:
        ``job_id -> desire`` for this category; every queued job must have a
        strictly positive desire (it is *active* by definition).
    capacity:
        ``P_alpha`` processors to distribute.

    Returns
    -------
    dict
        ``job_id -> allotment`` with ``0 <= allotment <= desire`` and total
        at most ``capacity``.
    """
    if capacity < 0:
        raise ScheduleError(f"capacity must be >= 0, got {capacity}")
    alloc: dict[int, int] = {}
    remaining = list(queue)
    for jid in remaining:
        if desires[jid] <= 0:
            raise ScheduleError(
                f"job {jid} queued for DEQ with non-positive desire "
                f"{desires[jid]}"
            )
    cap = int(capacity)
    while remaining and cap > 0:
        fair = cap // len(remaining)
        satisfied = [j for j in remaining if desires[j] <= fair]
        if not satisfied:
            # Everyone is deprived: equal split, remainder to queue front.
            extra = cap - fair * len(remaining)
            for idx, jid in enumerate(remaining):
                alloc[jid] = fair + (1 if idx < extra else 0)
            return alloc
        for jid in satisfied:
            alloc[jid] = desires[jid]
            cap -= desires[jid]
        satisfied_set = set(satisfied)
        remaining = [j for j in remaining if j not in satisfied_set]
    for jid in remaining:  # capacity exhausted by satisfied jobs
        alloc[jid] = 0
    return alloc


class KDeq(Scheduler):
    """DEQ-only baseline: equi-partition every category, every step.

    This is Deng & Dymond's DEQ lifted to K resources — the space-sharing
    half of K-RAD without the round-robin cycle.  Under light workload it is
    identical to K-RAD; under heavy workload (more active jobs than
    processors) it degenerates to serving the queue front, so we rotate
    served jobs to the back whenever somebody received nothing, which keeps
    it starvation-free (a plain static order would starve late jobs
    entirely and make the comparison meaningless).
    """

    name = "k-deq"

    def __init__(self) -> None:
        super().__init__()
        self._order: list[list[int]] = []
        self._seen: list[set[int]] = []

    def reset(self, machine: KResourceMachine) -> None:
        super().reset(machine)
        self._order = [[] for _ in range(machine.num_categories)]
        self._seen = [set() for _ in range(machine.num_categories)]

    def state_dict(self) -> dict:
        return {"order": [list(o) for o in self._order]}

    def load_state_dict(self, state: dict) -> None:
        self._order = [[int(j) for j in o] for o in state["order"]]
        self._seen = [set(o) for o in self._order]

    def allocate(self, t, desires, jobs=None):
        k = self.machine.num_categories
        caps = self.machine.capacities
        out: dict[int, np.ndarray] = {}  # sparse: zero rows omitted
        for alpha in range(k):
            order = self._order[alpha]
            seen = self._seen[alpha]
            for jid in desires:  # register newcomers in arrival order
                if jid not in seen:
                    seen.add(jid)
                    order.append(jid)
            # prune completed jobs (absent from the desire map)
            if len(order) > len(desires):
                order[:] = [j for j in order if j in desires]
                seen.intersection_update(desires.keys())
            active = [j for j in order if desires[j][alpha] > 0]
            if not active:
                continue
            cat_desires = {j: int(desires[j][alpha]) for j in active}
            alloc = deq_allocate(active, cat_desires, caps[alpha])
            starving = any(a == 0 for a in alloc.values())
            for jid, a in alloc.items():
                if a:
                    row = out.get(jid)
                    if row is None:
                        row = out[jid] = np.zeros(k, dtype=np.int64)
                    row[alpha] = a
            if starving:
                served = {j for j, a in alloc.items() if a > 0}
                order[:] = [j for j in order if j not in served] + [
                    j for j in order if j in served
                ]
        return out
