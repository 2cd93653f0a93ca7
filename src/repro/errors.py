"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class DagError(ReproError):
    """Raised for structurally invalid K-DAGs (cycles, bad vertices/edges)."""


class CategoryError(ReproError):
    """Raised when a task/processor category index is out of range."""


class ScheduleError(ReproError):
    """Raised when a scheduler produces an invalid allotment."""


class ValidationError(ReproError):
    """Raised when a recorded schedule violates the model of Section 2."""


class SimulationError(ReproError):
    """Raised when a simulation cannot make progress or exceeds its budget."""


class SerializationError(ReproError):
    """Raised for malformed, incomplete or wrong-version serialized
    documents (checkpoints, traces, job sets) — never a bare KeyError."""


class InvariantViolation(SimulationError):
    """Raised (strict supervision mode) when a runtime invariant monitor
    fires.  Carries the step, the monitor name and — when attributable —
    the offending job and category."""

    def __init__(
        self,
        message: str,
        *,
        step: int,
        monitor: str,
        job_id: int | None = None,
        category: int | None = None,
    ) -> None:
        super().__init__(message)
        self.step = int(step)
        self.monitor = str(monitor)
        self.job_id = None if job_id is None else int(job_id)
        self.category = None if category is None else int(category)


class JournalError(ReproError):
    """Raised for unreadable/corrupt journals or a replay divergence."""


class WorkloadError(ReproError):
    """Raised for invalid workload/job-set specifications."""


class ReplayError(ReproError):
    """Raised when a workload-trace replay cannot proceed or when two
    replays of the same trace diverge.  A divergence carries the first
    step whose per-step digest differs (``step``, or ``None`` when the
    replays disagree on the step count)."""

    def __init__(self, message: str, *, step: int | None = None) -> None:
        super().__init__(message)
        self.step = None if step is None else int(step)


class ServiceError(ReproError):
    """Raised for online-service failures: bad service configuration,
    protocol violations, or client transport errors.  Admission
    *rejections* are not errors — they are ordinary responses carrying
    a reason code and ``retry_after``."""


class DeadlineExceeded(ServiceError):
    """Raised when a client's retry budget runs out before success.

    Carries how hard the client tried: ``attempts`` requests sent,
    ``elapsed`` wall-clock seconds burned, and the ``op`` that was being
    retried.  ``last_error`` is the stringified final failure (a
    transport error or the last rejection), when there was one."""

    def __init__(
        self,
        message: str,
        *,
        op: str,
        attempts: int,
        elapsed: float,
        last_error: str | None = None,
    ) -> None:
        super().__init__(message)
        self.op = str(op)
        self.attempts = int(attempts)
        self.elapsed = float(elapsed)
        self.last_error = last_error

