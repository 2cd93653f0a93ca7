"""Phase-parallel synthetic jobs.

A :class:`PhaseJob` is a sequence of *phases*; phase ``i`` carries, per
category ``alpha``, a work amount ``w[alpha]`` and a parallelism cap
``p[alpha]``.  Within a phase every category proceeds concurrently with
desire ``min(p[alpha], remaining[alpha])``; the phase completes when all its
work is done, and only then does the next phase start.

This is the phase-parallel profile model used throughout the adaptive
scheduling literature (Edmonds et al., Deng & Dymond) lifted to K resources.
It corresponds to a K-DAG built from per-category parallel slabs joined by
barriers, so every theorem of the paper applies, while simulation cost is
O(K) per job per step — thousands of jobs are cheap.

Span bookkeeping: a phase's span is ``max_alpha ceil(w[alpha]/p[alpha])``
(0 when the phase is empty), and a fully satisfied step decreases the
remaining span by exactly one — the invariant the proofs rely on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.jobs.base import Job

__all__ = ["Phase", "PhaseJob"]


class Phase:
    """One phase: per-category ``(work, parallelism)``, validated.

    ``parallelism[alpha]`` must be >= 1 wherever ``work[alpha] > 0``; it is
    ignored (normalised to 1) where work is zero.
    """

    __slots__ = ("work", "parallelism")

    def __init__(self, work: Sequence[int], parallelism: Sequence[int]) -> None:
        w = np.asarray(work, dtype=np.int64)
        p = np.asarray(parallelism, dtype=np.int64)
        if w.shape != p.shape or w.ndim != 1:
            raise WorkloadError(
                f"work {w.shape} and parallelism {p.shape} must be equal-length 1-D"
            )
        if (w < 0).any():
            raise WorkloadError(f"negative work: {w.tolist()}")
        if ((w > 0) & (p < 1)).any():
            raise WorkloadError(
                f"parallelism must be >= 1 where work > 0: w={w.tolist()}, "
                f"p={p.tolist()}"
            )
        if w.sum() == 0:
            raise WorkloadError("a phase must have positive work in some category")
        self.work = w
        self.parallelism = np.where(w > 0, p, 1)

    @property
    def num_categories(self) -> int:
        return len(self.work)

    def span(self) -> int:
        """``max_alpha ceil(w/p)`` — steps under full allotment."""
        return int(np.max(-(-self.work // self.parallelism)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Phase(work={self.work.tolist()}, par={self.parallelism.tolist()})"


class PhaseJob(Job):
    """A job executing a fixed sequence of phase-parallel profiles."""

    __slots__ = (
        "_phases",
        "_phase_idx",
        "_remaining",
        "_work_vector",
        "_span",
        "_suffix_span",
        "_suffix_work",
        "_executed_counter",
        "_last_phase_idx",
    )

    def __init__(
        self, phases: Sequence[Phase], job_id: int = 0, release_time: int = 0
    ) -> None:
        super().__init__(job_id, release_time)
        if not phases:
            raise WorkloadError("a PhaseJob needs at least one phase")
        k = phases[0].num_categories
        if any(ph.num_categories != k for ph in phases):
            raise WorkloadError("all phases must use the same K")
        self._phases = tuple(phases)
        self._phase_idx = 0
        self._remaining = self._phases[0].work.copy()
        # suffix_work[i] = total work of phases i.. (row m is zeros), so
        # remaining_work_vector is one addition
        suffix_work = np.zeros((len(self._phases) + 1, k), dtype=np.int64)
        suffix_work[-2::-1] = np.cumsum(
            [ph.work for ph in reversed(self._phases)], axis=0
        )
        self._suffix_work = suffix_work
        self._work_vector = suffix_work[0]
        # suffix_span[i] = total span of phases i.. (for remaining_span)
        spans = [ph.span() for ph in self._phases]
        suffix = np.zeros(len(spans) + 1, dtype=np.int64)
        for i in range(len(spans) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + spans[i]
        self._suffix_span = suffix
        self._span = int(suffix[0])
        self._executed_counter = 0  # synthetic task ids for the trace
        self._last_phase_idx = 0  # phase executing in the latest step

    # ------------------------------------------------------------------
    @property
    def phases(self) -> tuple[Phase, ...]:
        return self._phases

    @property
    def current_phase_index(self) -> int:
        return self._phase_idx

    # ------------------------------------------------------------------
    # non-clairvoyant surface
    # ------------------------------------------------------------------
    def desire_vector(self) -> np.ndarray:
        if self.is_complete:
            return np.zeros(self._work_vector.shape, dtype=np.int64)
        phase = self._phases[self._phase_idx]
        return np.minimum(phase.parallelism, self._remaining)

    @property
    def is_complete(self) -> bool:
        return self._phase_idx >= len(self._phases)

    # ------------------------------------------------------------------
    # executor surface
    # ------------------------------------------------------------------
    def execute(
        self,
        allotment: np.ndarray,
        policy=None,
        rng: np.random.Generator | None = None,
    ) -> list[list[int]]:
        """Advance one step.  ``policy`` is accepted and ignored.

        Within a phase all work units of a category are interchangeable, so
        execution order is immaterial; synthetic task ids are generated for
        the trace so that validation and Gantt rendering still work.
        """
        allotment = self._check_allotment(allotment)
        self._last_phase_idx = self._phase_idx
        executed: list[list[int]] = []
        for a in allotment:
            ids = list(
                range(self._executed_counter, self._executed_counter + int(a))
            )
            self._executed_counter += int(a)
            executed.append(ids)
        if not self.is_complete:
            self._remaining -= allotment
            if not self._remaining.any():
                self._phase_idx += 1
                if self._phase_idx < len(self._phases):
                    self._remaining = self._phases[self._phase_idx].work.copy()
        return executed

    @property
    def phase_remaining(self) -> np.ndarray:
        """Unexecuted work of the *current* phase (copy; diagnostics)."""
        return self._remaining.copy()

    def fail_tasks(self, failed: list[list[int]]) -> None:
        """Return the given units to the phase that executed them.

        Within a phase all units of a category are interchangeable, so
        only the counts matter.  If finishing those units had advanced
        (or completed) the job this step, the phase pointer is rolled
        back — the job must re-earn the barrier.
        """
        counts = np.asarray([len(tasks) for tasks in failed], dtype=np.int64)
        if not counts.any():
            return
        if self._phase_idx != self._last_phase_idx:
            # the executing phase appeared complete; the failed units are
            # exactly what remains of it
            self._phase_idx = self._last_phase_idx
            self._remaining = counts.copy()
        else:
            self._remaining = self._remaining + counts
        phase = self._phases[self._phase_idx]
        if (counts > phase.work).any() or (
            self._remaining > phase.work
        ).any():
            raise WorkloadError(
                f"job {self.job_id}: failed units {counts.tolist()} exceed "
                f"phase work {phase.work.tolist()}"
            )

    # ------------------------------------------------------------------
    # checkpoint surface
    # ------------------------------------------------------------------
    def runtime_state(self) -> dict:
        return {
            "phase_idx": self._phase_idx,
            "last_phase_idx": self._last_phase_idx,
            "remaining": self._remaining.tolist(),
            "executed_counter": self._executed_counter,
            "completion_time": self.completion_time,
        }

    def restore_runtime_state(self, state: dict) -> None:
        self._phase_idx = int(state["phase_idx"])
        self._last_phase_idx = int(state["last_phase_idx"])
        self._remaining = np.asarray(state["remaining"], dtype=np.int64)
        self._executed_counter = int(state["executed_counter"])
        self.completion_time = int(state["completion_time"])

    # ------------------------------------------------------------------
    # clairvoyant / analysis surface
    # ------------------------------------------------------------------
    def work_vector(self) -> np.ndarray:
        return self._work_vector.copy()

    def span(self) -> int:
        return self._span

    def remaining_work_vector(self) -> np.ndarray:
        if self.is_complete:
            return np.zeros_like(self._work_vector)
        return self._remaining + self._suffix_work[self._phase_idx + 1]

    def remaining_span(self) -> int:
        if self.is_complete:
            return 0
        phase = self._phases[self._phase_idx]
        cur = int(np.max(-(-self._remaining // phase.parallelism)))
        return cur + int(self._suffix_span[self._phase_idx + 1])

    def fresh_copy(self) -> "PhaseJob":
        return PhaseJob(self._phases, self.job_id, self.release_time)
