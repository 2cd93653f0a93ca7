"""The K-resource machine model (paper Section 2).

A machine hosts ``K`` categories of processors with ``P_alpha`` processors of
each category ``alpha``.  A task of category ``alpha`` can only run on an
``alpha``-processor.  Categories may carry human-readable names ("cpu",
"vector", "io", ...) purely for reporting; all algorithms work on indices.

Per-category integer *speeds* extend the model with performance
heterogeneity (the paper's concluding open challenge): one allotted
``alpha``-processor performs up to ``s_alpha`` units of ``alpha``-work per
step and may chain through freshly enabled dependent tasks within it.
Speed 1 everywhere (the default) is the paper's model exactly.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import CategoryError

__all__ = ["KResourceMachine", "homogeneous_machine"]

_DEFAULT_NAMES = (
    "cpu",
    "vector",
    "io",
    "fpu",
    "gpu",
    "dsp",
    "nic",
    "crypto",
)


class KResourceMachine:
    """An immutable description of a functionally heterogeneous machine.

    Parameters
    ----------
    capacities:
        ``P_alpha`` for each category, e.g. ``(16, 4, 2)`` for 16 CPUs,
        4 vector units and 2 I/O processors.
    names:
        Optional category names (defaults to generic names).
    speeds:
        Optional integer speed ``s_alpha >= 1`` per category (default all
        1).  The scheduler stays speed-oblivious; the engine runs
        ``max_speed`` micro-rounds per step (see
        :class:`repro.sim.engine.Simulator`).
    allow_zero:
        Permit categories with **0** processors.  Nominal machines always
        have ``P_alpha >= 1`` (the paper's model); zero-capacity views
        exist only as transient degraded machines during failure
        injection (a full-category outage), built by the engine.

    Examples
    --------
    >>> mach = KResourceMachine((16, 4, 2), names=("cpu", "vector", "io"))
    >>> mach.num_categories, mach.pmax
    (3, 16)
    """

    __slots__ = ("_caps", "_names", "_speeds")

    def __init__(
        self,
        capacities: Sequence[int],
        names: Sequence[str] | None = None,
        *,
        speeds: Sequence[int] | None = None,
        allow_zero: bool = False,
    ) -> None:
        caps = tuple(int(p) for p in capacities)
        if not caps:
            raise CategoryError("a machine needs at least one category")
        floor = 0 if allow_zero else 1
        if any(p < floor for p in caps):
            raise CategoryError(
                f"every category needs >= {floor} processor(s), got {caps}"
            )
        if names is None:
            names = tuple(
                _DEFAULT_NAMES[i] if i < len(_DEFAULT_NAMES) else f"cat{i}"
                for i in range(len(caps))
            )
        else:
            names = tuple(str(s) for s in names)
            if len(names) != len(caps):
                raise CategoryError(
                    f"{len(names)} names given for {len(caps)} categories"
                )
            if len(set(names)) != len(names):
                raise CategoryError(f"category names must be unique, got {names}")
        if speeds is None:
            speeds = (1,) * len(caps)
        else:
            speeds = tuple(int(s) for s in speeds)
            if len(speeds) != len(caps):
                raise CategoryError(
                    f"{len(speeds)} speeds for {len(caps)} categories"
                )
            if any(s < 1 for s in speeds):
                raise CategoryError(f"speeds must be >= 1, got {speeds}")
        self._caps = caps
        self._names = names
        self._speeds = speeds

    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        """``K`` — the number of processor categories."""
        return len(self._caps)

    @property
    def capacities(self) -> tuple[int, ...]:
        """``(P_1, ..., P_K)`` as a tuple."""
        return self._caps

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def pmax(self) -> int:
        """``Pmax = max_alpha P_alpha`` (appears in every makespan bound)."""
        return max(self._caps)

    @property
    def total_processors(self) -> int:
        return sum(self._caps)

    @property
    def speeds(self) -> tuple[int, ...]:
        """``(s_1, ..., s_K)``: work units one processor runs per step."""
        return self._speeds

    @property
    def max_speed(self) -> int:
        """Micro-rounds per step; 1 is the paper's unit-time model."""
        return max(self._speeds)

    def speed(self, category: int) -> int:
        """``s_alpha`` for one category."""
        if not 0 <= category < len(self._speeds):
            raise CategoryError(
                f"category {category} out of range for K={len(self._speeds)}"
            )
        return self._speeds[category]

    def throughput_vector(self) -> np.ndarray:
        """``P_alpha * s_alpha``: work units per step per category."""
        return self.capacity_vector() * np.asarray(
            self._speeds, dtype=np.int64
        )

    def capacity(self, category: int) -> int:
        """``P_alpha`` for one category."""
        if not 0 <= category < len(self._caps):
            raise CategoryError(
                f"category {category} out of range for K={len(self._caps)}"
            )
        return self._caps[category]

    def capacity_vector(self) -> np.ndarray:
        """Capacities as a length-K ``int64`` array (fresh copy)."""
        return np.asarray(self._caps, dtype=np.int64)

    def category_index(self, name: str) -> int:
        """Resolve a category name back to its index."""
        try:
            return self._names.index(name)
        except ValueError:
            raise CategoryError(
                f"unknown category {name!r}; machine has {self._names}"
            ) from None

    def __iter__(self) -> Iterator[tuple[int, str, int]]:
        """Iterate ``(index, name, capacity)`` triples."""
        for i, (name, cap) in enumerate(zip(self._names, self._caps)):
            yield (i, name, cap)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KResourceMachine):
            return NotImplemented
        return (
            self._caps == other._caps
            and self._names == other._names
            and self._speeds == other._speeds
        )

    def __hash__(self) -> int:
        return hash((self._caps, self._names, self._speeds))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{n}={p}" + (f"@{s}x" if s > 1 else "")
            for (_, n, p), s in zip(self, self._speeds)
        )
        return f"KResourceMachine({parts})"


def homogeneous_machine(processors: int) -> KResourceMachine:
    """A single-category machine (the classic K = 1 setting of RAD)."""
    return KResourceMachine((processors,), names=("cpu",))
