"""Clairvoyant baselines — the "optimal scheduler S" stand-ins.

The true offline optimum is NP-hard, but the paper's proofs only ever need
two concrete clairvoyant behaviours, both implemented here:

* :class:`ClairvoyantCriticalPath` — serve jobs by *largest remaining
  critical path* first, full desire, greedy per category.  Paired with the
  ``CriticalPathFirst`` execution policy this realises the optimal schedule
  the Theorem-1 proof describes for the Figure-3 instance (it unblocks every
  level of the special job immediately and perfectly overlaps the chain with
  the residual level-K work), and is a strong T* stand-in elsewhere.

* :class:`ClairvoyantSrpt` — smallest *remaining total work* first, the
  classic mean-response-time heuristic (SRPT is optimal for sequential jobs
  on one machine); used as the clairvoyant reference in the response-time
  benches.

* :class:`SpeedAwareClairvoyant` — largest *weighted* remaining critical
  path first (each task costing ``1/s_category`` on a machine built with
  ``KResourceMachine(caps, speeds=...)``).  The SPEED experiment races it
  against the speed-oblivious critical-path baseline to measure what
  knowing the speeds is worth.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.jobs.dag_job import DagJob
from repro.schedulers.base import Scheduler

__all__ = [
    "ClairvoyantCriticalPath",
    "ClairvoyantSrpt",
    "SpeedAwareClairvoyant",
]


class _PriorityGreedy(Scheduler):
    """Greedy full-desire allocation in a clairvoyant priority order."""

    clairvoyant = True

    def _priority(self, jid: int, job) -> tuple:
        raise NotImplementedError

    def allocate(self, t, desires, jobs=None):
        if jobs is None:
            raise ScheduleError(
                f"{type(self).__name__} is clairvoyant and needs job objects"
            )
        machine = self.machine
        k = machine.num_categories
        out = {jid: np.zeros(k, dtype=np.int64) for jid in desires}
        order = sorted(desires, key=lambda jid: self._priority(jid, jobs[jid]))
        remaining = list(machine.capacities)
        for jid in order:
            d = desires[jid]
            for alpha in range(k):
                a = min(int(d[alpha]), remaining[alpha])
                if a > 0:
                    out[jid][alpha] = a
                    remaining[alpha] -= a
        return out


class ClairvoyantCriticalPath(_PriorityGreedy):
    """Longest-remaining-critical-path-first, full desire."""

    name = "cv-critical-path"

    def _priority(self, jid, job):
        return (-job.remaining_span(), jid)


class ClairvoyantSrpt(_PriorityGreedy):
    """Smallest-remaining-total-work-first, full desire."""

    name = "cv-srpt"

    def _priority(self, jid, job):
        return (int(job.remaining_work_vector().sum()), jid)


class SpeedAwareClairvoyant(_PriorityGreedy):
    """Longest *weighted* remaining critical path first, full desire.

    The weights are the bound machine's ``speeds``.  K-RAD needs no such
    change: RAD is per-category, so speeds never alter its decisions.
    """

    name = "cv-weighted-cp"

    def _priority(self, jid, job):
        return (-self._weighted_remaining_span(job), jid)

    def _weighted_remaining_span(self, job) -> float:
        speeds = self.machine.speeds
        if not isinstance(job, DagJob):
            return job.remaining_span() / max(speeds)
        # weighted depth over the unexecuted frontier (mirrors
        # DagJob.remaining_span, with 1/s_cat task costs)
        dag = job.dag
        inv = [1.0 / s for s in speeds]
        executed = job.executed_mask()
        depth = np.zeros(dag.num_vertices, dtype=np.float64)
        for v in range(dag.num_vertices - 1, -1, -1):
            if executed[v]:
                continue
            best = 0.0
            for w in dag.successors(v):
                if not executed[w] and depth[w] > best:
                    best = depth[w]
            depth[v] = best + inv[dag.category(v)]
        return max(
            (
                float(depth[v])
                for alpha in range(dag.num_categories)
                for v in job.ready_tasks(alpha)
            ),
            default=0.0,
        )
