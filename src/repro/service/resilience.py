"""Client and operator resilience: retry budgets, service states, and
watchdog self-healing.

Three pieces, each independently testable, together make the service
survive infrastructure failure without losing an acknowledged job:

* :class:`RetryBudget` / :class:`RetrySession` — a *total* budget
  (attempts **and** wall-clock) for one logical operation, with
  deterministic jittered exponential backoff that honours the server's
  ``retry_after`` hints.  When the budget runs dry the session raises a
  typed :class:`~repro.errors.DeadlineExceeded` carrying attempts and
  elapsed time, so callers never spin forever.  It is the only thing
  that paces a client's retries: every attempt it charges is one
  request.
* :data:`SERVICE_STATES` — the states a service reports (healthy →
  degraded → draining), worked out by
  :meth:`~repro.service.core.SchedulingService.service_state` from
  facts the service already observes.  The state drives ``/healthz``
  status codes and the ``service_state`` gauge; admission acts only on
  ``draining``.
* :class:`Watchdog` — a process supervisor: it spawns the serving
  process (one service, or a fleet of N shards), probes it for
  liveness, detects crash (process exit by signal) and hang (probe
  timeouts), and restarts it through the digest-verified journal
  recovery path with a bounded recovery deadline.

Everything here is wall-clock level machinery; nothing touches the
engine's virtual clock, RNG or digests — the determinism contract of the
simulation plane is untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import DeadlineExceeded, ServiceError

__all__ = [
    "SERVICE_STATES",
    "SHARD_STATES",
    "RetryBudget",
    "RetrySession",
    "Watchdog",
    "service_state_code",
    "shard_state_code",
]

#: the service states, least to most degraded.  The index of a state is
#: its numeric code in the ``service_state`` gauge.
SERVICE_STATES = (
    "healthy",   # nothing to report
    "degraded",  # recovery not yet confirmed, or in-flight jobs near the
                 # max_in_flight wall; still admitting
    "draining",  # terminal: running the backlog dry, then stopping
)


def service_state_code(state: str) -> int:
    """Numeric code of a service state (index in SERVICE_STATES)."""
    try:
        return SERVICE_STATES.index(state)
    except ValueError:
        raise ServiceError(
            f"unknown service state {state!r}; expected one of "
            f"{SERVICE_STATES}"
        ) from None


#: the per-shard supervision states.  The index of a state is its
#: numeric code in the ``service_shard_state`` gauge.  Distinct from
#: :data:`SERVICE_STATES`: a shard's *supervision* state says whether
#: its engine is being driven at all, while the service state describes
#: how a live engine is doing.
SHARD_STATES = (
    "serving",  # ticking, routing accepts its tenants
    "failed",   # its tick raised and no rebuild held; tenants failed over
)


def shard_state_code(state: str) -> int:
    """Numeric code of a shard state (index in SHARD_STATES)."""
    try:
        return SHARD_STATES.index(state)
    except ValueError:
        raise ServiceError(
            f"unknown shard state {state!r}; expected one of "
            f"{SHARD_STATES}"
        ) from None


# ----------------------------------------------------------------------
# retry budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryBudget:
    """Total retry allowance for one logical client operation.

    ``max_attempts`` requests and ``max_elapsed_s`` wall-clock seconds,
    whichever runs out first.  Backoff between attempts is exponential
    (``base_backoff_s * multiplier**attempt``, capped at
    ``max_backoff_s``) with multiplicative jitter in
    ``[1 - jitter, 1 + jitter]`` drawn from a ``seed``-deterministic
    stream, and it honours the server's ``retry_after`` hint (in virtual
    steps) by scaling the base delay — the same convention
    ``submit_blocking`` always used.
    """

    max_attempts: int = 8
    max_elapsed_s: float = 30.0
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_elapsed_s <= 0:
            raise ServiceError(
                f"max_elapsed_s must be > 0, got {self.max_elapsed_s}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ServiceError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ServiceError("backoff bounds must be >= 0")

    def session(
        self,
        op: str,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "RetrySession":
        """Open a :class:`RetrySession` charging against this budget."""
        return RetrySession(self, op, clock=clock, sleep=sleep)


class RetrySession:
    """One logical operation's draw-down of a :class:`RetryBudget`.

    Usage pattern (the client's resilient request loop)::

        session = budget.session("submit")
        while True:
            session.charge(last_error=...)   # raises DeadlineExceeded
            try:
                return do_request()
            except transient:
                session.backoff(retry_after=hint)

    ``clock``/``sleep`` are injectable for tests (no real waiting).
    """

    def __init__(
        self,
        budget: RetryBudget,
        op: str,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.budget = budget
        self.op = str(op)
        self.attempts = 0
        self._clock = clock
        self._sleep = sleep
        self._started = clock()
        self._rng = (
            None
            if budget.seed is None
            else np.random.default_rng(budget.seed)
        )
        self.last_error: str | None = None

    @property
    def elapsed(self) -> float:
        return self._clock() - self._started

    def charge(self, last_error: str | None = None) -> None:
        """Account one attempt; raise when the budget is exhausted."""
        if last_error is not None:
            self.last_error = last_error
        if self.attempts >= self.budget.max_attempts:
            raise DeadlineExceeded(
                f"{self.op}: retry budget exhausted after "
                f"{self.attempts} attempts in {self.elapsed:.2f}s"
                + (f" (last: {self.last_error})" if self.last_error else ""),
                op=self.op,
                attempts=self.attempts,
                elapsed=self.elapsed,
                last_error=self.last_error,
            )
        if self.elapsed >= self.budget.max_elapsed_s:
            raise DeadlineExceeded(
                f"{self.op}: retry deadline of "
                f"{self.budget.max_elapsed_s:.2f}s exceeded after "
                f"{self.attempts} attempts ({self.elapsed:.2f}s elapsed)"
                + (f" (last: {self.last_error})" if self.last_error else ""),
                op=self.op,
                attempts=self.attempts,
                elapsed=self.elapsed,
                last_error=self.last_error,
            )
        self.attempts += 1

    def next_delay(self, retry_after: int | None = None) -> float:
        """The jittered backoff before the next attempt, in seconds."""
        b = self.budget
        delay = b.base_backoff_s * (
            b.multiplier ** max(0, self.attempts - 1)
        )
        if retry_after is not None:
            delay *= max(1, int(retry_after))
        delay = min(delay, b.max_backoff_s)
        if b.jitter and delay > 0:
            if self._rng is not None:
                u = float(self._rng.uniform(-1.0, 1.0))
            else:
                u = float(np.random.uniform(-1.0, 1.0))
            delay *= 1.0 + b.jitter * u
        # Never sleep past the deadline: cap at the remaining budget so a
        # hinted long backoff converts into a prompt DeadlineExceeded.
        remaining = self.budget.max_elapsed_s - self.elapsed
        return max(0.0, min(delay, max(0.0, remaining)))

    def backoff(
        self,
        retry_after: int | None = None,
        last_error: str | None = None,
    ) -> float:
        """Sleep the jittered backoff; returns the delay used."""
        if last_error is not None:
            self.last_error = last_error
        delay = self.next_delay(retry_after)
        if delay > 0:
            self._sleep(delay)
        return delay


# ----------------------------------------------------------------------
# the watchdog supervisor
# ----------------------------------------------------------------------
class Watchdog:
    """Supervise one serving process: probe, detect crash/hang, restart.

    The two collaborators are injected so the machine is testable
    without processes or sockets:

    * ``spawn()`` starts (or restarts) the serving process and returns a
      handle with ``poll() -> int | None`` (the exit code once dead) and
      ``kill()``;
    * ``probe() -> bool`` performs one liveness check (a ``ping`` over
      the control socket, in production).

    Supervision policy:

    * a **clean exit** (exit code 0 or 1 — a drained service, possibly
      with permanently failed jobs) ends supervision with that code;
    * a **crash** (death by signal, or any exit code >= 2) triggers a
      restart, up to ``max_restarts`` times;
    * a **hang** (``hang_probes`` consecutive probe failures while the
      process is alive, after a ``grace_s`` startup window for journal
      replay) gets the process killed and restarted;
    * a restart that does not pass a probe within ``recovery_deadline_s``,
      or exits before it does, counts as failed and consumes another
      restart; an initial start that fails either way ends supervision.

    ``on_event(kind, detail)`` receives a human-readable stream
    (``spawn``/``crash``/``hang``/``restart``/``giveup``/``exit``) the
    CLI prints with a ``watchdog:`` prefix.
    """

    def __init__(
        self,
        spawn: Callable[[], object],
        probe: Callable[[], bool],
        *,
        probe_interval_s: float = 0.25,
        hang_probes: int = 8,
        grace_s: float = 10.0,
        recovery_deadline_s: float = 30.0,
        max_restarts: int = 5,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        on_event: Callable[[str, str], None] | None = None,
    ) -> None:
        if max_restarts < 0:
            raise ServiceError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if hang_probes < 1:
            raise ServiceError(
                f"hang_probes must be >= 1, got {hang_probes}"
            )
        self._spawn = spawn
        self._probe = probe
        self.probe_interval_s = float(probe_interval_s)
        self.hang_probes = int(hang_probes)
        self.grace_s = float(grace_s)
        self.recovery_deadline_s = float(recovery_deadline_s)
        self.max_restarts = int(max_restarts)
        self._clock = clock
        self._sleep = sleep
        self._on_event = on_event
        self.restarts = 0

    def _event(self, kind: str, detail: str) -> None:
        if self._on_event is not None:
            self._on_event(kind, detail)

    def _await_recovery(self, proc) -> str | None:
        """Probe until the fresh process answers, bounded by the
        recovery deadline.  None once it responds; otherwise why it
        never will: it exited first, or the deadline ran out."""
        deadline = self._clock() + self.recovery_deadline_s
        while self._clock() < deadline:
            if self._probe():
                return None
            rc = proc.poll()
            if rc is not None:
                return f"exited with code {rc} before answering"
            self._sleep(self.probe_interval_s)
        return f"missed the {self.recovery_deadline_s:.0f}s recovery deadline"

    def run(self) -> int:
        """Supervise until a clean exit or the restart budget runs out.

        Returns the serving process's final exit code, or 3 when the
        watchdog gave up (the initial start never answered, the restart
        budget is exhausted, or a restart failed with no budget left).
        """
        proc = self._spawn()
        self._event("spawn", "serving process started")
        failed = self._await_recovery(proc)
        if failed is not None:
            self._event("giveup", f"initial start {failed}")
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 - already-dead race
                pass
            return 3
        started = self._clock()
        missed = 0
        while True:
            rc = proc.poll()
            if rc is not None:
                if 0 <= rc <= 1:
                    self._event("exit", f"clean exit with code {rc}")
                    return int(rc)
                why = (
                    f"killed by signal {-rc}" if rc < 0
                    else f"crashed with exit code {rc}"
                )
                if not self._restart(why):
                    return 3
                proc = self._last_proc
                started = self._clock()
                missed = 0
                continue
            in_grace = self._clock() - started < self.grace_s
            if self._probe():
                missed = 0
            elif not in_grace:
                missed += 1
                if missed >= self.hang_probes:
                    self._event(
                        "hang",
                        f"{missed} consecutive probe failures; killing "
                        "the serving process",
                    )
                    try:
                        proc.kill()
                    except Exception:  # noqa: BLE001 - already-dead race
                        pass
                    # Let poll() observe the death on the next loop turn;
                    # the crash path then performs the restart.
                    missed = 0
            self._sleep(self.probe_interval_s)

    def _restart(self, why: str) -> bool:
        """One supervised restart.  False when the budget is exhausted
        or the replacement failed with no budget left to try again."""
        while True:
            if self.restarts >= self.max_restarts:
                self._event(
                    "giveup",
                    f"{why}; restart budget ({self.max_restarts}) "
                    "exhausted",
                )
                return False
            self.restarts += 1
            self._event(
                "restart",
                f"{why}; restarting "
                f"({self.restarts}/{self.max_restarts})",
            )
            self._last_proc = self._spawn()
            failed = self._await_recovery(self._last_proc)
            if failed is None:
                self._event(
                    "spawn",
                    "replacement answered within the recovery deadline",
                )
                return True
            why = f"replacement {failed}"
            try:
                self._last_proc.kill()
            except Exception:  # noqa: BLE001 - already-dead race
                pass
