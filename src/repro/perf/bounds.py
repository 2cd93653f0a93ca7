"""Speed-aware lower bounds for the performance-heterogeneity extension.

Both Section-4 bounds generalise:

* work: category ``alpha`` delivers at most ``P_alpha * s_alpha`` units per
  step, so ``T* >= max_alpha T1(J, alpha) / (P_alpha * s_alpha)``;
* span: a chain must run its tasks one micro-round after another, and an
  alpha-task may only occupy micro-rounds ``0 .. s_alpha - 1`` of a macro
  step, so ``T* >= max_i (r_i + weighted_span(J_i))`` where the *weighted
  span* counts the macro steps a fully dedicated machine needs for the
  critical path under that round structure.

Note the span term is deliberately **not** ``sum 1/s_cat(v)`` over paths:
the engine's micro-rounds (:class:`~repro.sim.engine.Simulator` on a
machine with speeds) let a task enabled in an early micro-round feed a
successor in a *later* micro-round of the same macro step, so a
mixed-category chain (e.g. categories ``0, 1`` at speeds ``(1, 2)``)
finishes in one step even though ``1/1 + 1/2 > 1``.  The
slot-walk DP below is exact for a dedicated chain and therefore a valid
lower bound; the naive sum is not.

These reduce to the paper's bounds at unit speeds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dag.kdag import KDag
from repro.errors import ReproError
from repro.jobs.base import Job
from repro.jobs.dag_job import DagJob
from repro.jobs.jobset import JobSet
from repro.machine.machine import KResourceMachine

__all__ = ["weighted_span", "job_weighted_span", "speed_makespan_lower_bound"]


def weighted_span(dag: KDag, speeds: Sequence[int]) -> float:
    """Macro steps a dedicated machine needs for the critical path.

    Models the engine's micro-round structure exactly: a macro step has
    ``max(speeds)`` micro-rounds, a category-``alpha`` task may occupy any
    round ``< s_alpha``, and a successor must occupy a strictly later
    round (possibly in a later step) than its predecessor.  The DP walks
    each vertex to its earliest ``(step, round)`` completion slot in one
    topological pass (insertion order is topological for :class:`KDag`).
    Empty DAG -> 0.  Reduces to ``dag.span()`` at unit speeds.
    """
    if len(speeds) != dag.num_categories:
        raise ReproError(
            f"{len(speeds)} speeds for a K={dag.num_categories} DAG"
        )
    n = dag.num_vertices
    if n == 0:
        return 0.0
    steps = np.zeros(n, dtype=np.int64)
    rounds = np.zeros(n, dtype=np.int64)
    for v in range(n):
        # latest predecessor slot; sources act as if a phantom predecessor
        # finished in round -1 of step 1, i.e. they start in round 0.
        ps, pr = 1, -1
        for u in dag.predecessors(v):
            if (steps[u], rounds[u]) > (ps, pr):
                ps, pr = int(steps[u]), int(rounds[u])
        s = int(speeds[dag.category(v)])
        if pr + 1 < s:
            steps[v], rounds[v] = ps, pr + 1
        else:
            steps[v], rounds[v] = ps + 1, 0
    return float(steps.max())


def job_weighted_span(job: Job, speeds: Sequence[int]) -> float:
    """Weighted span of a job: exact for DAG jobs, conservative otherwise.

    For :class:`PhaseJob` (no explicit DAG) we use the safe generalisation
    ``span / max_speed`` — every chain step costs at least ``1/max_s``.
    """
    if isinstance(job, DagJob):
        return weighted_span(job.dag, speeds)
    return job.span() / float(max(speeds))


def speed_makespan_lower_bound(
    jobset: JobSet, machine: KResourceMachine
) -> float:
    """The generalised Section-4 certificate on a machine with speeds."""
    if jobset.num_categories != machine.num_categories:
        raise ReproError(
            f"job set K={jobset.num_categories} != machine "
            f"K={machine.num_categories}"
        )
    work = jobset.total_work_vector().astype(np.float64)
    throughput = machine.throughput_vector().astype(np.float64)
    work_bound = float(np.max(work / throughput))
    span_bound = max(
        job.release_time + job_weighted_span(job, machine.speeds)
        for job in jobset
    )
    return max(work_bound, span_bound)
