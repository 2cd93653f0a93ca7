"""Execution traces: the recorded schedule ``chi = (tau, pi_1, ..., pi_K)``.

A trace holds, per time step, the desires the scheduler saw, the allotments
it granted, and the task ids each job executed.  From it the Section-2
mappings are reconstructed: ``tau`` (task -> step) and ``pi_alpha`` (task ->
processor index), the latter by packing each step's executed tasks onto
processors ``0..P_alpha-1`` in job order.  Traces feed the validity checker
(:mod:`repro.sim.validate`) and the ASCII Gantt renderer (:mod:`repro.viz`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["StepRecord", "Trace", "PlacedTask"]


@dataclass(frozen=True)
class StepRecord:
    """Everything that happened in one time step.

    Attributes
    ----------
    t:
        The step number (1-based).
    desires:
        ``job_id -> desire vector`` as seen by the scheduler.
    allotments:
        ``job_id -> allotment vector`` as granted (zero vectors omitted).
    executed:
        ``job_id -> [per-category list of executed task ids]``.
    arrivals / completions:
        Job ids released into / completed at this step.
    failed:
        ``job_id -> [per-category list of failed task ids]`` — tasks that
        executed this step but whose work was wasted by fault injection
        (subsets of ``executed``; empty for healthy runs).
    killed:
        Job ids killed at this step (their whole attempt is wasted).
    """

    t: int
    desires: dict[int, np.ndarray]
    allotments: dict[int, np.ndarray]
    executed: dict[int, list[list[int]]]
    arrivals: tuple[int, ...] = ()
    completions: tuple[int, ...] = ()
    failed: dict[int, list[list[int]]] = field(default_factory=dict)
    killed: tuple[int, ...] = ()

    def executed_count(self, category: int) -> int:
        """Units of ``category``-work occupying processors this step (all
        jobs, wasted executions included)."""
        return sum(len(tasks[category]) for tasks in self.executed.values())

    def content(self) -> dict:
        """Canonical JSON-able form of the record, key order included.

        Dict iteration order is part of the recorded schedule (it is the
        order the scheduler saw and served jobs), so it is preserved as
        explicit ``[key, value]`` pair lists rather than JSON objects —
        two records with the same mappings in different orders digest
        differently, which is exactly what differential conformance
        needs to detect.
        """
        return {
            "t": self.t,
            "desires": [
                [jid, d.tolist()] for jid, d in self.desires.items()
            ],
            "allotments": [
                [jid, np.asarray(a).tolist()]
                for jid, a in self.allotments.items()
            ],
            "executed": [
                [jid, [list(ids) for ids in per_cat]]
                for jid, per_cat in self.executed.items()
            ],
            "arrivals": list(self.arrivals),
            "completions": list(self.completions),
            "failed": [
                [jid, [list(ids) for ids in per_cat]]
                for jid, per_cat in self.failed.items()
            ],
            "killed": list(self.killed),
        }


@dataclass(frozen=True)
class PlacedTask:
    """One task occurrence with its reconstructed processor placement.

    ``wasted`` marks occurrences whose work was discarded by fault
    injection (the task failed that step, or the job was later killed and
    restarted); the occurrence still occupied a real processor slot, but
    it is not the one that satisfies precedence/completeness.
    """

    t: int
    job_id: int
    category: int
    task_id: int
    processor: int
    wasted: bool = False


@dataclass
class Trace:
    """The full recorded schedule of one simulation run."""

    num_categories: int
    capacities: tuple[int, ...]
    steps: list[StepRecord] = field(default_factory=list)

    def append(self, record: StepRecord) -> None:
        if self.steps and record.t <= self.steps[-1].t:
            raise ValueError(
                f"step {record.t} appended after step {self.steps[-1].t}"
            )
        self.steps.append(record)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(self.steps)

    def step_digests(self) -> list[str]:
        """Per-step SHA-256 hex digests of the canonical step content.

        The golden-trace corpus under ``tests/golden/`` stores these, so
        a behavioural regression is pinned to the first diverging step
        rather than a whole-trace mismatch.
        """
        out = []
        for rec in self.steps:
            payload = json.dumps(
                rec.content(), separators=(",", ":"), sort_keys=True
            )
            out.append(hashlib.sha256(payload.encode()).hexdigest())
        return out

    def content_digest(self) -> str:
        """One SHA-256 hex digest over the whole recorded schedule."""
        h = hashlib.sha256()
        h.update(f"{self.num_categories}|{self.capacities}".encode())
        for d in self.step_digests():
            h.update(d.encode())
        return h.hexdigest()

    def last_kill_steps(self) -> dict[int, int]:
        """``job_id -> last step it was killed at`` (empty if no kills)."""
        out: dict[int, int] = {}
        for rec in self.steps:
            for jid in rec.killed:
                out[jid] = rec.t
        return out

    def placements(self) -> Iterator[PlacedTask]:
        """Reconstruct ``pi_alpha``: pack executed tasks onto processors.

        Within a step and category, tasks occupy processors in job
        iteration order (which is arrival order) — a deterministic,
        capacity-respecting assignment.  Occurrences discarded by fault
        injection (failed that step, or belonging to an attempt that was
        later killed) are flagged ``wasted``.
        """
        last_kill = self.last_kill_steps()
        for rec in self.steps:
            next_proc = [0] * self.num_categories
            for job_id, per_cat in rec.executed.items():
                failed_per_cat = rec.failed.get(job_id)
                for alpha, tasks in enumerate(per_cat):
                    failed = (
                        set(failed_per_cat[alpha]) if failed_per_cat else ()
                    )
                    for task_id in tasks:
                        yield PlacedTask(
                            t=rec.t,
                            job_id=job_id,
                            category=alpha,
                            task_id=task_id,
                            processor=next_proc[alpha],
                            wasted=(
                                task_id in failed
                                or rec.t <= last_kill.get(job_id, 0)
                            ),
                        )
                        next_proc[alpha] += 1

    def task_times(self) -> dict[tuple[int, int], int]:
        """``tau``: map ``(job_id, task_id) -> step`` over the whole trace.

        Wasted occurrences are skipped — ``tau`` records the execution
        that actually counted.
        """
        tau: dict[tuple[int, int], int] = {}
        for p in self.placements():
            if not p.wasted:
                tau[(p.job_id, p.task_id)] = p.t
        return tau

    def busy_matrix(self) -> np.ndarray:
        """``(num_steps, K)`` array of executed units per step/category."""
        out = np.zeros((len(self.steps), self.num_categories), dtype=np.int64)
        for i, rec in enumerate(self.steps):
            for alpha in range(self.num_categories):
                out[i, alpha] = rec.executed_count(alpha)
        return out
