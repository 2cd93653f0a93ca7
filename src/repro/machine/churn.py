"""Elastic processor churn: the engine's one capacity timeline.

The paper proves K-RAD's guarantees for fixed per-category counts
``P_alpha``; a production machine gains and loses processors under the
scheduler's feet (autoscaling, node replacement, maintenance, spot
preemption, failures).  A :class:`ChurnSchedule` describes that as a list
of :class:`ChurnEvent`\\ s — add or remove ``|delta|`` ``alpha``-processors
at step ``t``, permanently, for a bounded duration, or in a recurring
window — applied on top of the nominal capacities, optionally followed by
random per-step availability (each category keeps a binomial share of its
processors).

Churn may **grow** a category past its nominal count; recurring windows
and availability only ever remove processors (the failure-injection
shapes of :mod:`repro.sim.faults` are built from them).  The engine
rebinds the scheduler to the resized machine view each step with its
state intact and notifies it of every boundary crossing
(:meth:`repro.schedulers.base.Scheduler.notify_capacity_change`), so RAD's
per-category DEQ/RR state machine migrates rather than resets: a shrink
mid-cycle re-batches the open round-robin cycle at the smaller width, a
growth absorbs the cycle back into DEQ on the next step.

Everything here is plain data — schedules serialise losslessly into
journal meta records, so :meth:`repro.sim.engine.Simulator.recover` can
rebuild the exact capacity profile of a crashed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import SerializationError, SimulationError

__all__ = ["ChurnEvent", "ChurnSchedule", "step_rng"]


def step_rng(seed: int, t: int) -> np.random.Generator:
    """Per-step child RNG: a pure function of (seed, t), call-order free."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed), int(t)))
    )


@dataclass(frozen=True)
class ChurnEvent:
    """One capacity change: ``delta`` processors of ``category`` at ``step``.

    Attributes
    ----------
    step:
        First step (1-based) at which the change is in effect.
    category:
        Processor category index.
    delta:
        Signed processor count: positive adds, negative removes.
    duration:
        ``None`` makes the change permanent; otherwise it reverts at step
        ``step + duration`` (the change is live for exactly ``duration``
        steps).
    period:
        ``None`` for a one-off change; otherwise the window recurs every
        ``period`` steps from ``step`` on (a maintenance cycle).  Needs
        ``1 <= duration <= period`` and ``delta < 0``: recurring windows
        only remove processors.
    """

    step: int
    category: int
    delta: int
    duration: int | None = None
    period: int | None = None

    def __post_init__(self) -> None:
        if self.step < 1:
            raise SimulationError(
                f"churn event step must be >= 1, got {self.step}"
            )
        if self.delta == 0:
            raise SimulationError("churn event delta must be non-zero")
        if self.duration is not None and self.duration < 1:
            raise SimulationError(
                f"churn event duration must be >= 1 (or None for "
                f"permanent), got {self.duration}"
            )
        if self.period is not None and not (
            self.delta < 0 and 1 <= (self.duration or 0) <= self.period
        ):
            raise SimulationError(
                f"a recurring churn event needs delta < 0 and 1 <= "
                f"duration <= period; got delta={self.delta}, "
                f"duration={self.duration}, period={self.period}"
            )

    def active_at(self, t: int) -> bool:
        """True when this event's delta applies at step ``t``."""
        if t < self.step:
            return False
        if self.period is not None:
            return (t - self.step) % self.period < self.duration
        return self.duration is None or t < self.step + self.duration

    def to_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
            "category": self.category,
            "delta": self.delta,
            "duration": self.duration,
            "period": self.period,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChurnEvent":
        if not isinstance(data, dict):
            raise SerializationError(
                f"churn event must be a mapping, got {type(data).__name__}"
            )
        fields: dict[str, int | None] = {}
        for key in ("step", "category", "delta", "duration", "period"):
            raw = data.get(key)
            if raw is None:
                if key in ("step", "category", "delta"):
                    raise SerializationError(
                        f"churn event is missing field {key!r}"
                    )
                fields[key] = None
                continue
            try:
                fields[key] = int(raw)
            except (TypeError, ValueError):
                raise SerializationError(
                    f"churn event field {key!r} must be an integer, got "
                    f"{raw!r}"
                ) from None
        try:
            return cls(**fields)
        except SimulationError as exc:
            raise SerializationError(f"bad churn event: {exc}") from None


class ChurnSchedule:
    """The realized capacity profile ``P_alpha(t)`` of a churning machine.

    Capacities never go negative: removals beyond the present count clamp
    at zero (the category is dark until processors return).  With
    ``availability`` set, each category then keeps a binomial share of
    its processors each step (survival probability ``availability``),
    drawn from the per-step child RNG of ``(seed, t)``.  The profile is a
    pure function of ``t``, so churned runs stay deterministic and
    checkpoint/resume safe.
    """

    def __init__(
        self,
        nominal: Sequence[int],
        events: Sequence[ChurnEvent] = (),
        *,
        availability: float | None = None,
        seed: int = 0,
    ) -> None:
        self.nominal = tuple(int(c) for c in nominal)
        if not self.nominal or any(c < 1 for c in self.nominal):
            raise SimulationError(
                f"nominal capacities must all be >= 1, got {self.nominal}"
            )
        self.events = tuple(events)
        for ev in self.events:
            if not isinstance(ev, ChurnEvent):
                raise SimulationError(
                    f"churn schedule wants ChurnEvent entries, got "
                    f"{type(ev).__name__}"
                )
            if not 0 <= ev.category < len(self.nominal):
                raise SimulationError(
                    f"churn event category {ev.category} out of range for "
                    f"{len(self.nominal)} categories"
                )
        if availability is not None:
            availability = float(availability)
            if not 0.0 <= availability <= 1.0:
                raise SimulationError(
                    f"availability must be in [0, 1], got {availability}"
                )
        self.availability = availability
        self.seed = int(seed)

    @property
    def num_categories(self) -> int:
        return len(self.nominal)

    def capacities(self, t: int) -> tuple[int, ...]:
        """``(P_1(t), ..., P_K(t))`` — nominal plus every active delta,
        then thinned by availability."""
        caps = list(self.nominal)
        for ev in self.events:
            if ev.active_at(t):
                caps[ev.category] += ev.delta
        if self.availability is None:
            return tuple(max(0, c) for c in caps)
        rng = step_rng(self.seed, t)
        return tuple(
            int(rng.binomial(max(0, c), self.availability)) for c in caps
        )

    __call__ = capacities

    def breakpoints(self) -> tuple[int, ...]:
        """Sorted steps at which a one-off event starts or reverts (plus
        step 1).  Recurring windows repeat forever and are not listed."""
        points = {1}
        for ev in self.events:
            if ev.period is not None:
                continue
            points.add(ev.step)
            if ev.duration is not None:
                points.add(ev.step + ev.duration)
        return tuple(sorted(points))

    def peak_capacities(self) -> tuple[int, ...]:
        """Element-wise maximum of the profile over all time.

        This is the *envelope machine*: trace recording and processor
        indexing use it so that every realized step fits.  Recurring
        windows and availability only remove processors, so the envelope
        is that of the one-off events alone.
        """
        peak = list(self.nominal)
        for bp in self.breakpoints():
            caps = list(self.nominal)
            for ev in self.events:
                if ev.period is None and ev.active_at(bp):
                    caps[ev.category] += ev.delta
            for alpha, c in enumerate(caps):
                peak[alpha] = max(peak[alpha], c)
        return tuple(peak)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "churn-schedule",
            "version": 2,
            "nominal": list(self.nominal),
            "events": [ev.to_dict() for ev in self.events],
            "availability": (
                None
                if self.availability is None
                else {"p": self.availability, "seed": self.seed}
            ),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChurnSchedule":
        """Load a version-2 document, or a version-1 one (no recurring
        events, no availability)."""
        if (
            not isinstance(data, dict)
            or data.get("format") != "churn-schedule"
        ):
            raise SerializationError("expected a churn-schedule document")
        if data.get("version") not in (1, 2):
            raise SerializationError(
                f"unsupported churn-schedule version "
                f"{data.get('version')!r}"
            )
        for key in ("nominal", "events"):
            if not isinstance(data.get(key), (list, tuple)):
                raise SerializationError(
                    f"churn-schedule field {key!r} must be a list, got "
                    f"{data.get(key)!r}"
                )
        try:
            nominal = [int(c) for c in data["nominal"]]
        except (TypeError, ValueError):
            raise SerializationError(
                f"churn-schedule field 'nominal' must hold integers, got "
                f"{data['nominal']!r}"
            ) from None
        events = [ChurnEvent.from_dict(ev) for ev in data["events"]]
        avail = data.get("availability")
        p, seed = None, 0
        if avail is not None:
            try:
                p, seed = float(avail["p"]), int(avail["seed"])
            except (KeyError, TypeError, ValueError):
                raise SerializationError(
                    f"churn-schedule field 'availability' wants "
                    f"{{'p': float, 'seed': int}}, got {avail!r}"
                ) from None
        try:
            return cls(nominal, events, availability=p, seed=seed)
        except SimulationError as exc:
            raise SerializationError(f"bad churn schedule: {exc}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChurnSchedule(nominal={self.nominal}, "
            f"events={len(self.events)}, "
            f"availability={self.availability})"
        )
