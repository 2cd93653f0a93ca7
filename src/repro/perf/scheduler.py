"""A speed-aware clairvoyant baseline for the performance extension.

K-RAD needs no change on a machine with speeds — RAD is per-category, so
speeds never alter its decisions — but a *clairvoyant* scheduler can do
better by prioritising jobs by their **weighted** remaining critical path
(each task costing ``1/s_category``), the quantity that actually bounds a
job's remaining time on heterogeneous-speed hardware.

:class:`SpeedAwareClairvoyant` is that baseline: greedy full-desire
allocation in descending weighted-remaining-span order.  The SPEED
experiment compares it against the speed-*oblivious* clairvoyant
(plain remaining span) to measure what speed knowledge is worth — a first
empirical datum for the paper's concluding open problem.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.jobs.dag_job import DagJob
from repro.schedulers.base import Scheduler

__all__ = ["SpeedAwareClairvoyant"]


class SpeedAwareClairvoyant(Scheduler):
    """Longest *weighted* remaining critical path first, full desire.

    The weights are the bound machine's ``speeds``
    (``KResourceMachine(caps, speeds=...)``).
    """

    name = "cv-weighted-cp"
    clairvoyant = True

    def _weighted_remaining_span(self, job) -> float:
        speeds = self.machine.speeds
        if isinstance(job, DagJob):
            # weighted depth over the unexecuted frontier (mirrors
            # DagJob.remaining_span, with 1/s_cat task costs)
            dag = job.dag
            inv = [1.0 / s for s in speeds]
            n = dag.num_vertices
            executed = job.executed_mask()
            depth = np.zeros(n, dtype=np.float64)
            for v in range(n - 1, -1, -1):
                if executed[v]:
                    continue
                best = 0.0
                for w in dag.successors(v):
                    if not executed[w] and depth[w] > best:
                        best = depth[w]
                depth[v] = best + inv[dag.category(v)]
            best = 0.0
            for alpha in range(dag.num_categories):
                for v in job.ready_tasks(alpha):
                    if depth[v] > best:
                        best = float(depth[v])
            return best
        return job.remaining_span() / max(speeds)

    def allocate(self, t, desires, jobs=None):
        if jobs is None:
            raise ScheduleError(
                "SpeedAwareClairvoyant needs job objects (clairvoyant)"
            )
        k = self.machine.num_categories
        order = sorted(
            desires,
            key=lambda jid: (-self._weighted_remaining_span(jobs[jid]), jid),
        )
        remaining = list(self.machine.capacities)
        out: dict[int, np.ndarray] = {}
        for jid in order:
            d = desires[jid]
            row = None
            for alpha in range(k):
                a = min(int(d[alpha]), remaining[alpha])
                if a > 0:
                    if row is None:
                        row = out[jid] = np.zeros(k, dtype=np.int64)
                    row[alpha] = a
                    remaining[alpha] -= a
        return out
