"""JSON serialization for the core model objects.

Workloads are valuable artefacts: an adversarial instance, a failing fuzz
case, or a production-shaped job mix should be shareable and replayable.
This module round-trips machines, K-DAGs, jobs (both backends) and job sets
through plain-JSON dictionaries (no custom binary format, diffable in git).

Schema versioning: every document carries ``"format"`` and ``"version"``
keys; loaders reject unknown versions rather than guessing.
"""

from __future__ import annotations

import json
import numbers
from typing import Any

from repro.dag.kdag import KDag
from repro.errors import SerializationError
from repro.jobs.base import Job
from repro.jobs.dag_job import DagJob
from repro.jobs.jobset import JobSet
from repro.jobs.phase_job import Phase, PhaseJob
from repro.machine.machine import KResourceMachine

__all__ = [
    "machine_to_dict",
    "machine_from_dict",
    "dag_to_dict",
    "dag_from_dict",
    "job_to_dict",
    "job_from_dict",
    "jobset_to_dict",
    "jobset_from_dict",
    "dump_jobset",
    "load_jobset",
    "job_snapshot_to_dict",
    "job_snapshot_from_dict",
    "dump_checkpoint",
    "load_checkpoint",
]

_VERSION = 1


def _check_header(data: dict, expected: str) -> None:
    if not isinstance(data, dict):
        raise SerializationError(f"expected a JSON object for {expected}")
    if data.get("format") != expected:
        raise SerializationError(
            f"expected format {expected!r}, got {data.get('format')!r}"
        )
    if data.get("version") != _VERSION:
        raise SerializationError(
            f"unsupported {expected} version {data.get('version')!r} "
            f"(this build reads version {_VERSION})"
        )


def _field(data: dict, key: str, doc: str) -> Any:
    """``data[key]``, or a :class:`SerializationError` naming the field."""
    try:
        return data[key]
    except KeyError:
        raise SerializationError(
            f"{doc} document has no {key!r} field"
        ) from None


def _is_int(value: Any) -> bool:
    """An integer field value: ``numbers.Integral`` but not ``bool``.

    Floats, strings and booleans are refused rather than converted, so a
    loaded document means exactly what was written.  The exact ``int``
    test is only a shortcut past the ABC check for the common case.
    """
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _int_field(data: dict, key: str, doc: str) -> int:
    value = _field(data, key, doc)
    if not _is_int(value):
        raise SerializationError(
            f"{doc} field {key!r} must be an integer, got {value!r}"
        )
    return int(value)


def _list_field(data: dict, key: str, doc: str) -> list:
    value = _field(data, key, doc)
    if not isinstance(value, list):
        raise SerializationError(
            f"{doc} field {key!r} must be a list, got "
            f"{type(value).__name__}"
        )
    return value


# ----------------------------------------------------------------------
# machine
# ----------------------------------------------------------------------
def machine_to_dict(machine: KResourceMachine) -> dict[str, Any]:
    """``speeds`` is written only for a machine with a category faster
    than 1, so unit-speed documents keep their original bytes."""
    doc = {
        "format": "machine",
        "version": _VERSION,
        "capacities": list(machine.capacities),
        "names": list(machine.names),
    }
    if machine.max_speed > 1:
        doc["speeds"] = list(machine.speeds)
    return doc


def machine_from_dict(data: dict[str, Any]) -> KResourceMachine:
    _check_header(data, "machine")
    return KResourceMachine(
        data["capacities"], names=data["names"], speeds=data.get("speeds")
    )


# ----------------------------------------------------------------------
# K-DAG
# ----------------------------------------------------------------------
def dag_to_dict(dag: KDag) -> dict[str, Any]:
    return {
        "format": "kdag",
        "version": _VERSION,
        "num_categories": dag.num_categories,
        "categories": dag.categories().tolist(),
        "edges": [[u, v] for u, v in dag.edges()],
    }


def dag_from_dict(data: dict[str, Any]) -> KDag:
    _check_header(data, "kdag")
    dag = KDag(_int_field(data, "num_categories", "kdag"))
    categories = _list_field(data, "categories", "kdag")
    edges = _list_field(data, "edges", "kdag")
    if not all(map(_is_int, categories)):
        raise SerializationError(
            f"kdag field 'categories' must be a list of integers, got "
            f"{categories!r}"
        )
    if not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
        for e in edges
    ):
        raise SerializationError(
            "kdag field 'edges' must be a list of [u, v] integer pairs"
        )
    for c in categories:
        dag.add_vertex(int(c))
    dag.add_edges((int(u), int(v)) for u, v in edges)
    dag.validate()
    return dag


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
def job_to_dict(job: Job) -> dict[str, Any]:
    """Serialise a job's *static* definition (runtime state is not saved;
    loading always yields a fresh, unexecuted job)."""
    base = {
        "format": "job",
        "version": _VERSION,
        "job_id": job.job_id,
        "release_time": job.release_time,
    }
    if isinstance(job, DagJob):
        base["backend"] = "dag"
        base["dag"] = dag_to_dict(job.dag)
        return base
    if isinstance(job, PhaseJob):
        base["backend"] = "phase"
        base["phases"] = [
            {
                "work": ph.work.tolist(),
                "parallelism": ph.parallelism.tolist(),
            }
            for ph in job.phases
        ]
        return base
    raise SerializationError(
        f"cannot serialise job backend {type(job).__name__}; "
        "only DagJob and PhaseJob are supported"
    )


def job_from_dict(data: dict[str, Any]) -> Job:
    """Rebuild a fresh job from :func:`job_to_dict` output.

    A malformed document raises :class:`SerializationError` naming the
    field, never a bare ``KeyError``, ``TypeError`` or ``ValueError``.
    """
    _check_header(data, "job")
    backend = data.get("backend")
    if backend not in ("dag", "phase"):
        raise SerializationError(f"unknown job backend {backend!r}")
    job_id = _int_field(data, "job_id", "job")
    release_time = _int_field(data, "release_time", "job")
    if backend == "dag":
        return DagJob(
            dag_from_dict(_field(data, "dag", "job")),
            job_id=job_id,
            release_time=release_time,
        )
    phases = [
        _phase_from_dict(ph, i)
        for i, ph in enumerate(_list_field(data, "phases", "job"))
    ]
    return PhaseJob(phases, job_id=job_id, release_time=release_time)


def _phase_from_dict(ph: Any, i: int) -> Phase:
    """Entry ``i`` of a phase-job document's ``phases`` list."""
    if not isinstance(ph, dict):
        raise SerializationError(
            f"job field 'phases[{i}]' must be an object, got "
            f"{type(ph).__name__}"
        )
    for key in ("work", "parallelism"):
        if key not in ph:
            raise SerializationError(
                f"job field 'phases[{i}]' has no {key!r} field"
            )
        values = ph[key]
        if not isinstance(values, list) or not all(map(_is_int, values)):
            raise SerializationError(
                f"job field 'phases[{i}].{key}' must be a list of "
                f"integers, got {values!r}"
            )
    try:
        return Phase(ph["work"], ph["parallelism"])
    except OverflowError:
        raise SerializationError(
            f"job field 'phases[{i}]' holds an integer beyond int64"
        ) from None


# ----------------------------------------------------------------------
# job sets
# ----------------------------------------------------------------------
def jobset_to_dict(jobset: JobSet) -> dict[str, Any]:
    return {
        "format": "jobset",
        "version": _VERSION,
        "jobs": [job_to_dict(j) for j in jobset],
    }


def jobset_from_dict(data: dict[str, Any]) -> JobSet:
    _check_header(data, "jobset")
    return JobSet([job_from_dict(j) for j in data["jobs"]])


def dump_jobset(jobset: JobSet, path: str) -> None:
    """Write a job set to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jobset_to_dict(jobset), fh, indent=1)


def load_jobset(path: str) -> JobSet:
    """Read a job set previously written by :func:`dump_jobset`."""
    with open(path, "r", encoding="utf-8") as fh:
        return jobset_from_dict(json.load(fh))


# ----------------------------------------------------------------------
# job snapshots (static definition + runtime state) and checkpoints
# ----------------------------------------------------------------------
def job_snapshot_to_dict(job: Job) -> dict[str, Any]:
    """Serialise a job *mid-run*: static definition plus runtime state.

    Unlike :func:`job_to_dict` (fresh jobs only), the snapshot captures
    partially-executed state via :meth:`Job.runtime_state`, so the engine's
    checkpoint/resume reconstructs the exact execution frontier.  The
    release time recorded here may differ from the original definition's
    (retry backoff moves it), so it is authoritative.
    """
    return {
        "format": "job-snapshot",
        "version": _VERSION,
        "static": job_to_dict(job),
        "release_time": job.release_time,
        "runtime": job.runtime_state(),
    }


def job_snapshot_from_dict(data: dict[str, Any]) -> Job:
    """Rebuild a mid-run job from :func:`job_snapshot_to_dict` output."""
    _check_header(data, "job-snapshot")
    job = job_from_dict(_field(data, "static", "job-snapshot"))
    job.release_time = _int_field(data, "release_time", "job-snapshot")
    runtime = _field(data, "runtime", "job-snapshot")
    try:
        job.restore_runtime_state(runtime)
    except KeyError as exc:
        raise SerializationError(
            f"job-snapshot field 'runtime' has no {exc.args[0]!r} field"
        ) from None
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"job-snapshot field 'runtime' is malformed: {exc}"
        ) from None
    return job


def dump_checkpoint(checkpoint: dict[str, Any], path: str) -> None:
    """Write a :meth:`Simulator.checkpoint` snapshot to ``path`` as JSON.

    The snapshot is already plain-JSON data; this helper exists so the
    round-trip (and its format check) lives next to the other loaders.
    """
    if checkpoint.get("format") != "checkpoint":
        raise SerializationError(
            f"expected a checkpoint document, got format "
            f"{checkpoint.get('format')!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint, fh)


def load_checkpoint(path: str) -> dict[str, Any]:
    """Read a checkpoint previously written by :func:`dump_checkpoint`.

    Returns the plain dict; pass it to :meth:`Simulator.restore` together
    with a fresh scheduler instance and the original run's callables.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != "checkpoint":
        raise SerializationError(f"{path} is not a checkpoint document")
    return data
