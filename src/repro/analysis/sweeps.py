"""Parameter-sweep harness.

A sweep is a cartesian grid of named parameters, a workload factory, and a
measurement function; the harness iterates deterministically (one RNG child
per grid point) and collects rows suitable for
:func:`repro.analysis.tables.format_table`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = ["SweepResult", "run_sweep", "grid"]


@dataclass(frozen=True)
class SweepResult:
    """All rows of one sweep, with convenience accessors."""

    param_names: tuple[str, ...]
    metric_names: tuple[str, ...]
    rows: tuple[dict[str, Any], ...]

    def column(self, name: str) -> list[Any]:
        return [row[name] for row in self.rows]

    def as_table_rows(self) -> list[list[Any]]:
        names = list(self.param_names) + list(self.metric_names)
        return [[row[n] for n in names] for row in self.rows]

    @property
    def headers(self) -> list[str]:
        return list(self.param_names) + list(self.metric_names)

    def filter(self, **conditions: Any) -> "SweepResult":
        """Rows matching all ``param == value`` conditions."""
        rows = tuple(
            row
            for row in self.rows
            if all(row[k] == v for k, v in conditions.items())
        )
        return SweepResult(self.param_names, self.metric_names, rows)


def grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes as a list of parameter dicts."""
    names = list(axes)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[n] for n in names))
    ]


def run_sweep(
    points: Sequence[Mapping[str, Any]],
    measure: Callable[[Mapping[str, Any], np.random.Generator], Mapping[str, Any]],
    *,
    seed: int = 0,
    repeats: int = 1,
) -> SweepResult:
    """Evaluate ``measure(params, rng)`` at every grid point.

    ``measure`` returns a metrics mapping; with ``repeats > 1`` each point is
    measured with ``repeats`` independent RNG streams and a ``rep`` column is
    added.  RNG streams are spawned deterministically from ``seed`` so sweeps
    are exactly reproducible.
    """
    if not points:
        raise ValueError("sweep needs at least one grid point")
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(points) * repeats)
    rows: list[dict[str, Any]] = []
    metric_names: tuple[str, ...] | None = None
    param_names = tuple(points[0].keys())
    idx = 0
    for params in points:
        if tuple(params.keys()) != param_names:
            raise ValueError("all grid points must share the same parameters")
        for rep in range(repeats):
            rng = np.random.default_rng(children[idx])
            idx += 1
            metrics = dict(measure(params, rng))
            if metric_names is None:
                metric_names = tuple(metrics.keys())
            elif tuple(metrics.keys()) != metric_names:
                raise ValueError("measure returned inconsistent metric names")
            row = dict(params)
            if repeats > 1:
                row["rep"] = rep
            row.update(metrics)
            rows.append(row)
    if repeats > 1:
        param_names = param_names + ("rep",)
    assert metric_names is not None
    return SweepResult(param_names, metric_names, tuple(rows))
