"""DAG-backed jobs: the faithful runtime of the paper's K-DAG model.

A :class:`DagJob` wraps an immutable :class:`~repro.dag.kdag.KDag` and tracks
the dynamically unfolding frontier of *ready* tasks.  The job model
guarantees:

* a task becomes ready the step after its last predecessor executes;
* ``desire(alpha)`` is exactly the number of ready ``alpha``-tasks
  (instantaneous ``alpha``-parallelism);
* executing the full desire in every category for one step reduces the
  remaining span by one (the fact Lemma 2 and Theorem 5 rest on).
"""

from __future__ import annotations

import numpy as np

from repro.dag.kdag import KDag
from repro.errors import ScheduleError
from repro.jobs.base import Job
from repro.jobs.policies import ExecutionPolicy

__all__ = ["DagJob"]


class DagJob(Job):
    """A job executing an explicit K-DAG of unit-time tasks.

    Parameters
    ----------
    dag:
        The static task graph.  It is shared, never mutated; several
        ``DagJob`` instances (e.g. across scheduler comparisons) may wrap the
        same ``KDag``.
    job_id, release_time:
        Identity and arrival step (0-based; the job is schedulable at every
        step ``t >= release_time``).
    """

    __slots__ = (
        "_dag",
        "_ready",
        "_indeg",
        "_executed",
        "_done_count",
        "_remaining_work",
        "_depth_cache",
    )

    def __init__(self, dag: KDag, job_id: int = 0, release_time: int = 0) -> None:
        super().__init__(job_id, release_time)
        self._dag = dag
        k = dag.num_categories
        self._indeg = dag.in_degrees()
        self._ready: list[list[int]] = [[] for _ in range(k)]
        for v in dag.sources():
            self._ready[dag.category(v)].append(v)
        self._executed = np.zeros(dag.num_vertices, dtype=bool)
        self._done_count = 0
        self._remaining_work = dag.work_vector()
        self._depth_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def dag(self) -> KDag:
        """The underlying static task graph (analysis use only)."""
        return self._dag

    @property
    def depth_to_sink(self) -> np.ndarray:
        """Per-vertex remaining critical path, computed once and cached."""
        if self._depth_cache is None:
            self._depth_cache = self._dag.depth_to_sink()
        return self._depth_cache

    # ------------------------------------------------------------------
    # non-clairvoyant surface
    # ------------------------------------------------------------------
    def desire_vector(self) -> np.ndarray:
        return np.asarray([len(r) for r in self._ready], dtype=np.int64)

    def desire(self, category: int) -> int:
        return len(self._ready[category])

    @property
    def is_complete(self) -> bool:
        return self._done_count == self._dag.num_vertices

    # ------------------------------------------------------------------
    # executor surface
    # ------------------------------------------------------------------
    def execute(
        self,
        allotment: np.ndarray,
        policy: ExecutionPolicy,
        rng: np.random.Generator | None = None,
    ) -> list[list[int]]:
        allotment = self._check_allotment_fast(allotment)
        dag = self._dag
        executed_per_cat: list[list[int]] = []
        newly_ready: list[int] = []
        for alpha, count in enumerate(allotment):
            count = int(count)
            if count == 0:
                executed_per_cat.append([])
                continue
            if policy.needs_priority:
                priority = self.depth_to_sink  # computed once, then cached
            else:
                priority = self._depth_cache  # pass if available, else None
            chosen, remaining = policy.select(
                self._ready[alpha], count, priority, rng
            )
            self._ready[alpha] = remaining
            executed_per_cat.append(chosen)
            for v in chosen:
                self._executed[v] = True
                for w in dag.successors(v):
                    self._indeg[w] -= 1
                    if self._indeg[w] == 0:
                        newly_ready.append(w)
            self._done_count += count
            self._remaining_work[alpha] -= count
        # Successors of this step's tasks become ready for the *next* step;
        # appending after the per-category loop guarantees a task never
        # executes in the same step as its predecessor even across
        # categories.
        for w in sorted(newly_ready):
            self._ready[dag.category(w)].append(w)
        return executed_per_cat

    def fail_tasks(self, failed: list[list[int]]) -> None:
        """Roll back this step's execution of the given tasks.

        Each failed task returns to the back of its category's ready list
        (deterministic re-queue position); successors that became ready
        through it are retracted.  Valid only for tasks executed in the
        step just finished — by then no successor can have executed, so
        the rollback is always consistent.
        """
        dag = self._dag
        for alpha, tasks in enumerate(failed):
            for v in tasks:
                if not self._executed[v]:
                    raise ScheduleError(
                        f"job {self.job_id}: cannot fail task {v} — not "
                        "executed"
                    )
                if dag.category(v) != alpha:
                    raise ScheduleError(
                        f"job {self.job_id}: task {v} is category "
                        f"{dag.category(v)}, failed as {alpha}"
                    )
                self._executed[v] = False
                self._done_count -= 1
                self._remaining_work[alpha] += 1
                for w in dag.successors(v):
                    if self._indeg[w] == 0:
                        # w became ready when v executed; retract it
                        self._ready[dag.category(w)].remove(w)
                    self._indeg[w] += 1
                self._ready[alpha].append(v)

    # ------------------------------------------------------------------
    # checkpoint surface
    # ------------------------------------------------------------------
    def runtime_state(self) -> dict:
        return {
            "ready": [list(r) for r in self._ready],
            "indeg": self._indeg.tolist(),
            "executed": np.flatnonzero(self._executed).tolist(),
            "completion_time": self.completion_time,
        }

    def restore_runtime_state(self, state: dict) -> None:
        self._ready = [[int(v) for v in r] for r in state["ready"]]
        self._indeg = np.asarray(state["indeg"], dtype=np.int64)
        self._executed = np.zeros(self._dag.num_vertices, dtype=bool)
        self._executed[np.asarray(state["executed"], dtype=np.int64)] = True
        self._done_count = int(self._executed.sum())
        work = self._dag.work_vector()
        done = np.zeros_like(work)
        cats = self._dag.categories()
        for v in np.flatnonzero(self._executed):
            done[cats[v]] += 1
        self._remaining_work = work - done
        self.completion_time = int(state["completion_time"])

    def _check_allotment_fast(self, allotment: np.ndarray) -> np.ndarray:
        allotment = np.asarray(allotment, dtype=np.int64)
        if len(allotment) != self._dag.num_categories:
            raise ScheduleError(
                f"allotment length {len(allotment)} != K={self._dag.num_categories}"
            )
        for alpha, a in enumerate(allotment):
            if a < 0 or a > len(self._ready[alpha]):
                raise ScheduleError(
                    f"job {self.job_id}: allotment {int(a)} invalid for "
                    f"category {alpha} with desire {len(self._ready[alpha])}"
                )
        return allotment

    # ------------------------------------------------------------------
    # clairvoyant / analysis surface
    # ------------------------------------------------------------------
    def work_vector(self) -> np.ndarray:
        return self._dag.work_vector()

    def span(self) -> int:
        return int(self.depth_to_sink.max(initial=0))

    def remaining_work_vector(self) -> np.ndarray:
        return self._remaining_work.copy()

    def remaining_span(self) -> int:
        """Longest chain among unexecuted vertices.

        Because execution respects precedence, every unexecuted vertex lies
        below some ready vertex, so the remaining span is the maximum
        depth-to-sink over the ready frontier.
        """
        depth = self.depth_to_sink
        best = 0
        for ready in self._ready:
            for v in ready:
                d = int(depth[v])
                if d > best:
                    best = d
        return best

    def executed_mask(self) -> np.ndarray:
        """Boolean mask over vertex ids of executed tasks (trace/validation)."""
        return self._executed.copy()

    def ready_tasks(self, category: int) -> tuple[int, ...]:
        """Current ready frontier of one category (read-only view)."""
        return tuple(self._ready[category])

    def fresh_copy(self) -> "DagJob":
        job = DagJob(self._dag, self.job_id, self.release_time)
        job._depth_cache = self._depth_cache  # cache is state-independent
        return job
