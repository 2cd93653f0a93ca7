"""A-GREEDY-style desire estimation (He, Hsu & Leiserson [12, 13]).

The paper's RAD uses *instantaneous parallelism* as the desire.  The
authors' earlier two-level adaptive schedulers instead let each job
*estimate* its desire from history: time is divided into quanta of ``L``
steps; at each quantum boundary the estimate is updated multiplicatively
from two observations about the elapsed quantum —

* **inefficient** — the job used less than a ``delta`` fraction of what it
  was allotted: the estimate was too high, halve it (divide by the
  responsiveness factor ``rho``);
* **efficient and satisfied** — the job used (almost) everything it asked
  for and got all of it: it may be starving itself, multiply by ``rho``;
* **efficient but deprived** — the estimate was fine, the *system* was
  busy: keep it.

This module is the per-job/per-category estimator;
:class:`repro.feedback.FeedbackKRad` plugs it between the jobs and K-RAD.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["AGreedyEstimator"]


@dataclass
class _CellState:
    """Quantum accounting for one (job, category) pair."""

    estimate: float = 1.0
    allotted: int = 0
    used: int = 0
    deprived_steps: int = 0
    steps: int = 0


class AGreedyEstimator:
    """Multiplicative-increase/decrease desire estimation.

    Parameters
    ----------
    quantum:
        ``L`` — steps between estimate updates.
    responsiveness:
        ``rho > 1`` — the multiplicative step.
    utilization_threshold:
        ``delta in (0, 1]`` — the efficient/inefficient cut-off.
    max_estimate:
        Cap on the estimate (use the category capacity; growing past it
        only increases waste).
    """

    def __init__(
        self,
        quantum: int = 4,
        responsiveness: float = 2.0,
        utilization_threshold: float = 0.8,
        max_estimate: int = 4096,
    ) -> None:
        if quantum < 1:
            raise ReproError(f"quantum must be >= 1, got {quantum}")
        if responsiveness <= 1.0:
            raise ReproError(
                f"responsiveness must be > 1, got {responsiveness}"
            )
        if not 0.0 < utilization_threshold <= 1.0:
            raise ReproError(
                f"utilization_threshold must be in (0, 1], got "
                f"{utilization_threshold}"
            )
        if max_estimate < 1:
            raise ReproError(f"max_estimate must be >= 1, got {max_estimate}")
        self.quantum = int(quantum)
        self.rho = float(responsiveness)
        self.delta = float(utilization_threshold)
        self.max_estimate = int(max_estimate)
        self._cells: dict[tuple[int, int], _CellState] = {}

    def reset(self) -> None:
        self._cells.clear()

    def forget(self, job_id: int) -> None:
        """Drop all state for a completed job."""
        for key in [k for k in self._cells if k[0] == job_id]:
            del self._cells[key]

    def estimate(self, job_id: int, category: int) -> int:
        """Current desire estimate for one (job, category), always >= 1."""
        cell = self._cells.get((job_id, category))
        value = cell.estimate if cell is not None else 1.0
        return max(1, min(self.max_estimate, int(value)))

    def observe(
        self,
        job_id: int,
        category: int,
        *,
        allotted: int,
        used: int,
        deprived: bool,
    ) -> None:
        """Record one step; update the estimate at quantum boundaries.

        ``allotted`` is what the scheduler granted against the *estimated*
        desire; ``used`` is what the job actually executed; ``deprived``
        means the grant was below the estimate (the system was saturated).
        """
        if used > allotted:
            raise ReproError(
                f"job {job_id} used {used} > allotted {allotted} in "
                f"category {category}"
            )
        cell = self._cells.setdefault((job_id, category), _CellState())
        cell.allotted += int(allotted)
        cell.used += int(used)
        cell.deprived_steps += 1 if deprived else 0
        cell.steps += 1
        if cell.steps >= self.quantum:
            self._update(cell)

    def _update(self, cell: _CellState) -> None:
        efficient = (
            cell.allotted == 0 or cell.used >= self.delta * cell.allotted
        )
        satisfied = cell.deprived_steps == 0
        if not efficient:
            cell.estimate = max(1.0, cell.estimate / self.rho)
        elif satisfied:
            cell.estimate = min(
                float(self.max_estimate), cell.estimate * self.rho
            )
        # efficient but deprived: keep the estimate
        cell.allotted = cell.used = cell.deprived_steps = cell.steps = 0
