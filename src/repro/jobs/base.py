"""The job runtime protocol.

A *job* is the stateful, executing view of a parallel program.  It exposes
two disjoint surfaces:

* the **non-clairvoyant surface** — instantaneous desires
  (:meth:`Job.desire_vector`), completion status — which is all a scheduler
  may see;
* the **executor/analysis surface** — work, span, explicit execution — used
  by the simulation engine, clairvoyant baselines and bound computations.

Two concrete backends implement it: :class:`~repro.jobs.dag_job.DagJob`
(explicit K-DAG, faithful to the paper's model) and
:class:`~repro.jobs.phase_job.PhaseJob` (phase-parallel profiles for
large-scale sweeps).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ScheduleError

__all__ = ["Job", "UNRELEASED"]

UNRELEASED = -1
"""Sentinel completion time for a job that has not finished."""


class Job(ABC):
    """Abstract base for executable jobs (see module docstring).

    Subclasses must call ``super().__init__`` and implement the abstract
    methods.  All per-step quantities follow the paper's conventions:
    ``desire(alpha) = d(Ji, alpha, t)`` is the number of ready
    ``alpha``-tasks, and an allotment never exceeds the desire.  Both
    engines poll :meth:`desire_vector` once per live job per step, so a
    backend's desires may depend on anything it tracks (e.g. a warm-up
    window); only the fast engine's lean kernel, reserved for exact
    :class:`~repro.jobs.phase_job.PhaseJob` runs, derives desires from
    its own state arrays instead.
    """

    __slots__ = ("job_id", "release_time", "completion_time")

    def __init__(self, job_id: int, release_time: int = 0) -> None:
        if release_time < 0:
            raise ScheduleError(f"release_time must be >= 0, got {release_time}")
        self.job_id = int(job_id)
        self.release_time = int(release_time)
        #: set by the engine when the job finishes (time step, 1-based)
        self.completion_time: int = UNRELEASED

    # ------------------------------------------------------------------
    # non-clairvoyant surface
    # ------------------------------------------------------------------
    @abstractmethod
    def desire_vector(self) -> np.ndarray:
        """``d(Ji, alpha, t)`` for every ``alpha`` — a length-K int array.

        The instantaneous ``alpha``-parallelism: how many ready
        ``alpha``-tasks the job could execute this step.
        """

    def desire(self, category: int) -> int:
        """``d(Ji, alpha, t)`` for a single category."""
        return int(self.desire_vector()[category])

    @property
    @abstractmethod
    def is_complete(self) -> bool:
        """True once every task has executed."""

    def is_active(self, category: int) -> bool:
        """Paper: a job is *alpha-active* iff its alpha-desire is non-zero."""
        return self.desire(category) > 0

    # ------------------------------------------------------------------
    # executor surface
    # ------------------------------------------------------------------
    @abstractmethod
    def execute(
        self,
        allotment: np.ndarray,
        policy,
        rng: np.random.Generator | None = None,
    ) -> list[list[int]]:
        """Run one unit-time step with ``allotment[alpha]`` processors.

        ``policy`` is an :class:`~repro.jobs.policies.ExecutionPolicy`
        choosing *which* ready tasks run when the allotment is below the
        desire.  Returns, per category, the list of executed task identifiers
        (DAG vertex ids for :class:`DagJob`; synthetic ids for
        :class:`PhaseJob`) for trace recording.

        Raises :class:`ScheduleError` if any ``allotment[alpha]`` exceeds the
        current desire — by the paper's model every allotted processor does
        useful work, so over-allotment is a scheduler bug.
        """

    def fail_tasks(self, failed: list[list[int]]) -> None:
        """Undo this step's execution of the given tasks (fault injection).

        ``failed`` lists, per category, task ids that were *executed this
        step* but whose work is now wasted: the tasks return to the ready
        frontier (the DAG vertex stays ready) and the job is incomplete
        until they re-execute.  Must be called before any later step
        executes.  Backends that cannot re-enqueue work raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support task-level faults"
        )

    # ------------------------------------------------------------------
    # checkpoint surface
    # ------------------------------------------------------------------
    def runtime_state(self) -> dict:
        """JSON-serialisable snapshot of the mutable execution state.

        Together with the static definition (``repro.io.serialize``) this
        reconstructs the job mid-run for checkpoint/resume.  Backends that
        cannot snapshot raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def restore_runtime_state(self, state: dict) -> None:
        """Inverse of :meth:`runtime_state`, applied to a fresh copy."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    # ------------------------------------------------------------------
    # clairvoyant / analysis surface
    # ------------------------------------------------------------------
    @abstractmethod
    def work_vector(self) -> np.ndarray:
        """Static total work ``T1(Ji, alpha)`` per category (length K)."""

    @abstractmethod
    def span(self) -> int:
        """Static critical-path length ``T_inf(Ji)`` in unit tasks."""

    @abstractmethod
    def remaining_work_vector(self) -> np.ndarray:
        """Unexecuted work per category at the current instant."""

    @abstractmethod
    def remaining_span(self) -> int:
        """Critical-path length of the unexecuted portion (clairvoyant)."""

    @abstractmethod
    def fresh_copy(self) -> "Job":
        """A reset clone with identical static structure and release time.

        Simulations mutate jobs, so comparing schedulers on the same workload
        requires a fresh copy per run.
        """

    @property
    def num_categories(self) -> int:
        return len(self.work_vector())

    def work(self, category: int) -> int:
        """``T1(Ji, alpha)`` for one category."""
        return int(self.work_vector()[category])

    def total_work(self) -> int:
        return int(self.work_vector().sum())

    def response_time(self) -> int:
        """``R(Ji) = T(Ji) - r(Ji)`` (Definition 2); raises if unfinished."""
        if self.completion_time == UNRELEASED:
            raise ScheduleError(
                f"job {self.job_id} has not completed; no response time yet"
            )
        return self.completion_time - self.release_time

    def _check_allotment(self, allotment: np.ndarray) -> np.ndarray:
        """Shared validation for :meth:`execute` implementations."""
        allotment = np.asarray(allotment, dtype=np.int64)
        desires = self.desire_vector()
        if allotment.shape != desires.shape:
            raise ScheduleError(
                f"allotment shape {allotment.shape} != K={desires.shape}"
            )
        if (allotment < 0).any():
            raise ScheduleError(f"negative allotment {allotment.tolist()}")
        if (allotment > desires).any():
            raise ScheduleError(
                f"job {self.job_id}: allotment {allotment.tolist()} exceeds "
                f"desire {desires.tolist()} — allotted processors must do work"
            )
        return allotment

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "done" if self.is_complete else "running"
        return (
            f"{type(self).__name__}(id={self.job_id}, r={self.release_time}, "
            f"work={self.work_vector().tolist()}, span={self.span()}, {status})"
        )
