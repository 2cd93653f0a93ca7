"""The typed event bus: zero-overhead-when-disabled run telemetry.

Every observable occurrence inside an engine — an executed step, a
DEQ<->RR transition, a fault injection, a retry, a quarantine, a
checkpoint or journal write — is published as one :class:`Event` on an
:class:`EventBus`.  The bus is *pull-free*: subscribers are plain
callables invoked synchronously at emission, and when nobody subscribed
(``bus.active`` is False) emission sites skip even building the event
payload, so an idle bus costs one attribute read per site.

Events are strictly *read-only telemetry*: no subscriber output feeds
back into the engine, the scheduler, the RNG or the checkpoint state, so
a run's traces, digests and checkpoints are byte-identical with the bus
on or off — the conformance suite pins that down.

Two sinks ship with the bus: :class:`EventLog` (in-memory, for tests and
diagnostics) and :class:`JsonlEventWriter` (one JSON object per line,
the CLI's ``--events-out`` format).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventBus",
    "EventLog",
    "JsonlEventWriter",
]

#: the event taxonomy (see docs/OBSERVABILITY.md for per-kind payloads)
EVENT_KINDS = (
    "run_start",       # engine + scenario header, once per run
    "step",            # one executed step: totals, progress, stall flag
    "alloc",           # per-job allotment map of one step
    "transition",      # one category's DEQ<->RR state-machine move
    "task_failure",    # fault model failed executed tasks of one job
    "job_kill",        # fault model killed a whole job
    "retry",           # killed job resubmitted after backoff
    "job_failed",      # retry budget exhausted; job permanently failed
    "incident",        # supervisor monitor fired (logged or quarantined)
    "quarantine",      # a job was pulled from the live set
    "checkpoint",      # a state checkpoint was materialised
    "journal",         # one write-ahead journal record appended
    "run_end",         # final counters, once per run
    "submit",          # service admitted an online job submission
    "reject",          # service refused a submission (reason + retry_after)
    "cancel",          # service withdrew a not-yet-released job
    "drain",           # service stopped admissions and ran to completion
    "state_change",    # service moved on the graceful-degradation ladder
    "shard_state_change",  # a shard failed (serving -> failed)
)


@dataclass(frozen=True)
class Event:
    """One telemetry occurrence: when, what kind, and its payload."""

    t: int
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"t": self.t, "kind": self.kind, **self.data}


class EventBus:
    """Synchronous publish/subscribe fan-out with a cheap idle path.

    Emission sites must guard on :attr:`active` before building payloads::

        if bus.active:
            bus.emit(t, "transition", category=0, kind="deq_to_rr")

    so a bus nobody listens to costs one attribute read per site — the
    "zero overhead when disabled" contract the engines rely on.
    """

    __slots__ = ("_subscribers", "active")

    def __init__(self) -> None:
        self._subscribers: list[Callable[[Event], None]] = []
        #: True iff at least one subscriber is attached
        self.active = False

    def subscribe(self, sink: Callable[[Event], None]) -> None:
        self._subscribers.append(sink)
        self.active = True

    def unsubscribe(self, sink: Callable[[Event], None]) -> None:
        self._subscribers.remove(sink)
        self.active = bool(self._subscribers)

    def emit(self, t: int, kind: str, **data) -> None:
        """Publish one event to every subscriber (no-op when idle)."""
        if not self.active:
            return
        event = Event(t=int(t), kind=kind, data=data)
        for sink in self._subscribers:
            sink(event)


class EventLog:
    """In-memory sink: keeps every event (tests, ad-hoc diagnostics)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts


def _json_default(obj):
    """Make numpy scalars/arrays in payloads JSON-serialisable."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(
        f"event payload value of type {type(obj).__name__} is not "
        "JSON-serialisable"
    )


class JsonlEventWriter:
    """File sink: one JSON object per line (``--events-out`` format)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.count = 0

    def __call__(self, event: Event) -> None:
        self._fh.write(
            json.dumps(event.to_dict(), default=_json_default) + "\n"
        )
        self.count += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
