"""Chaos transport: deterministic fault injection for the NDJSON wire.

PR 1 made the *simulation* plane fault-injectable (``repro.sim.faults``);
this module lifts the same discipline to the *serving* plane.  A
:class:`ChaosConfig` names seeded fault rates, a :class:`ChaosSchedule`
turns them into a reproducible per-message fault plan, and the two
transport wrappers apply that plan:

* on the client, :class:`ServiceClient` consults the schedule around
  each request (drop the request, delay it, corrupt the *response*
  bytes, or cut the connection);
* on the server, :class:`~repro.service.server.ServiceServer` consults
  it around each response (swallow it, delay it, mangle it, or
  disconnect the peer).

Faults follow the ``repro.sim.faults`` conventions: every draw comes
from a per-message child RNG that is a pure function of ``(seed,
message index)``, so a chaos run is exactly reproducible from its
config — :meth:`ChaosSchedule.describe` prints the schedule prefix for
bug reports, and the CI chaos job prints it on failure.

Dropped requests and dropped responses are *indistinguishable* to a
client, which is precisely why submissions carry idempotency tokens:
the retried submit is deduplicated server-side, so chaos can delay an
ack but never double-admit a job.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ServiceError

__all__ = [
    "ChaosConfig",
    "ChaosFault",
    "ChaosSchedule",
]


def _msg_rng(seed: int, index: int) -> np.random.Generator:
    """Per-message child RNG: pure function of (seed, index), matching
    the ``repro.sim.faults`` per-step convention."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed), int(index)))
    )


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault rates for one chaos transport.

    Rates are independent per message, drawn in a fixed order (drop,
    delay, corrupt, disconnect) so a config is a complete description of
    the fault plan.  ``partitions`` are half-open message-index windows
    ``(start, stop)`` during which *everything* is dropped — a network
    partition in message-count time, deterministic by construction.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay_s: float = 0.05
    corrupt_rate: float = 0.0
    disconnect_rate: float = 0.0
    partitions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "delay_rate",
            "corrupt_rate",
            "disconnect_rate",
        ):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ServiceError(
                    f"{name} must be in [0, 1), got {v}"
                )
        if self.max_delay_s < 0:
            raise ServiceError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}"
            )
        norm = []
        for window in self.partitions:
            try:
                start, stop = (int(window[0]), int(window[1]))
            except (TypeError, ValueError, IndexError):
                raise ServiceError(
                    f"partition window must be (start, stop), got "
                    f"{window!r}"
                ) from None
            if start < 0 or stop <= start:
                raise ServiceError(
                    f"partition window needs 0 <= start < stop, got "
                    f"({start}, {stop})"
                )
            norm.append((start, stop))
        object.__setattr__(self, "partitions", tuple(norm))

    @property
    def active(self) -> bool:
        return bool(
            self.drop_rate
            or self.delay_rate
            or self.corrupt_rate
            or self.disconnect_rate
            or self.partitions
        )


@dataclass(frozen=True)
class ChaosFault:
    """The fault (if any) assigned to one message.

    ``kind`` is one of ``drop``/``delay``/``corrupt``/``disconnect``;
    ``delay_s`` is set for delays, ``corrupt_pos`` is the byte offset to
    flip for corruptions (modulo the message length at apply time).
    """

    index: int
    kind: str
    delay_s: float = 0.0
    corrupt_pos: int = 0

    def describe(self) -> str:
        if self.kind == "delay":
            return f"#{self.index}: delay {self.delay_s * 1000:.1f}ms"
        if self.kind == "corrupt":
            return f"#{self.index}: corrupt byte {self.corrupt_pos}"
        return f"#{self.index}: {self.kind}"


class ChaosSchedule:
    """The reproducible per-message fault plan of one transport.

    One schedule owns a monotone message counter shared by every
    connection of the wrapped transport; :meth:`next_fault` assigns the
    next index and returns its fault (or ``None``).  The assignment for
    index ``i`` is a pure function of ``(config.seed, i)``, so
    :meth:`fault_at` can re-derive any decision after the fact and
    :meth:`describe` can print the exact schedule a failing run saw.

    Thread-safe: the client is blocking-threaded, the server is an event
    loop, and both may share one schedule in in-process tests.
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self._index = 0
        self._lock = threading.Lock()
        self.injected: dict[str, int] = {
            "drop": 0,
            "delay": 0,
            "corrupt": 0,
            "disconnect": 0,
        }

    @property
    def messages(self) -> int:
        """Messages assigned so far (faulted or clean)."""
        return self._index

    def fault_at(self, index: int) -> ChaosFault | None:
        """The fault assigned to message ``index`` (stateless)."""
        cfg = self.config
        for start, stop in cfg.partitions:
            if start <= index < stop:
                return ChaosFault(index=index, kind="drop")
        rng = _msg_rng(cfg.seed, index)
        # One draw per fault type in a fixed order: the plan for an
        # index never depends on which rates are armed.
        draws = rng.random(4)
        delay_u, corrupt_u = rng.random(2)
        if draws[0] < cfg.drop_rate:
            return ChaosFault(index=index, kind="drop")
        if draws[1] < cfg.delay_rate:
            return ChaosFault(
                index=index,
                kind="delay",
                delay_s=float(delay_u) * cfg.max_delay_s,
            )
        if draws[2] < cfg.corrupt_rate:
            return ChaosFault(
                index=index,
                kind="corrupt",
                corrupt_pos=int(corrupt_u * 4096),
            )
        if draws[3] < cfg.disconnect_rate:
            return ChaosFault(index=index, kind="disconnect")
        return None

    def next_fault(self) -> ChaosFault | None:
        """Assign the next message index and return its fault."""
        with self._lock:
            index = self._index
            self._index += 1
        fault = self.fault_at(index)
        if fault is not None:
            with self._lock:
                self.injected[fault.kind] += 1
        return fault

    @staticmethod
    def corrupt(line: bytes, fault: ChaosFault) -> bytes:
        """Flip one payload byte of ``line`` per ``fault`` (the trailing
        newline is preserved so message framing survives)."""
        if len(line) <= 1:
            return line
        body = bytearray(line)
        pos = fault.corrupt_pos % max(1, len(body) - 1)
        body[pos] ^= 0x20
        return bytes(body)

    def describe(self, limit: int | None = None) -> str:
        """Human-readable schedule prefix for exact reproduction.

        Lists every faulted index among the messages assigned so far
        (or among ``limit`` indices), plus the config — paste both into
        a bug report and the run is reproducible.
        """
        upto = self._index if limit is None else limit
        faults = [
            f for f in (self.fault_at(i) for i in range(upto)) if f
        ]
        head = (
            f"chaos seed={self.config.seed} messages={upto} "
            f"rates(drop={self.config.drop_rate}, "
            f"delay={self.config.delay_rate}, "
            f"corrupt={self.config.corrupt_rate}, "
            f"disconnect={self.config.disconnect_rate}) "
            f"partitions={list(self.config.partitions)}"
        )
        if not faults:
            return head + "\n  (no faults injected)"
        return head + "\n  " + "\n  ".join(
            f.describe() for f in faults
        )

