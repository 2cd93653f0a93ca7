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
    dag = KDag(data["num_categories"])
    for c in data["categories"]:
        dag.add_vertex(int(c))
    dag.add_edges((int(u), int(v)) for u, v in data["edges"])
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
    _check_header(data, "job")
    backend = data.get("backend")
    if backend == "dag":
        return DagJob(
            dag_from_dict(data["dag"]),
            job_id=int(data["job_id"]),
            release_time=int(data["release_time"]),
        )
    if backend == "phase":
        phases = [
            Phase(ph["work"], ph["parallelism"]) for ph in data["phases"]
        ]
        return PhaseJob(
            phases,
            job_id=int(data["job_id"]),
            release_time=int(data["release_time"]),
        )
    raise SerializationError(f"unknown job backend {backend!r}")


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
    job = job_from_dict(data["static"])
    job.release_time = int(data["release_time"])
    job.restore_runtime_state(data["runtime"])
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
