"""A Standard-Workload-Format (SWF) bridge.

The parallel-workloads community archives production traces in SWF: one job
per line with 18 whitespace-separated fields (Feitelson's Parallel
Workloads Archive).  This module reads the subset of fields relevant to the
K-resource model and lifts each job into a :class:`PhaseJob`:

* field 2 — submit time      -> release time
* field 4 — run time         -> per-category work (split by ``category_mix``)
* field 5 — allocated procs  -> parallelism cap

SWF jobs are single-resource; functional heterogeneity is synthesised by a
``category_mix`` — the fraction of each job's processor-seconds spent on
each category, e.g. ``(0.7, 0.2, 0.1)`` for a CPU-dominant cluster with
vector and I/O phases.  Each job becomes a sequence of per-category phases
(the common interleaving structure the paper's introduction describes).
The writer emits valid minimal SWF so round-trips are testable.

This is a *substitution* in the DESIGN.md sense: real traces for
functionally heterogeneous machines are not publicly archived, so
single-resource SWF traces plus a documented mix exercise the same code
paths with realistic size/arrival marginals.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.jobs.jobset import JobSet
from repro.jobs.phase_job import Phase, PhaseJob

__all__ = ["parse_swf", "jobset_from_swf", "jobset_to_swf", "SwfJob"]


class SwfJob:
    """One parsed SWF record (the fields this bridge uses)."""

    __slots__ = ("job_id", "submit_time", "run_time", "processors")

    def __init__(
        self, job_id: int, submit_time: int, run_time: int, processors: int
    ) -> None:
        self.job_id = job_id
        self.submit_time = submit_time
        self.run_time = run_time
        self.processors = processors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SwfJob(id={self.job_id}, submit={self.submit_time}, "
            f"run={self.run_time}, procs={self.processors})"
        )


def parse_swf(text: str) -> list[SwfJob]:
    """Parse SWF text into records, skipping comments and invalid jobs.

    Per the SWF convention, lines starting with ``;`` are header comments,
    and jobs with non-positive run time or processor count (failed or
    cancelled submissions) are dropped.
    """
    jobs: list[SwfJob] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) < 5:
            raise WorkloadError(
                f"SWF line {lineno}: expected >= 5 fields, got {len(fields)}"
            )
        try:
            job_id = int(fields[0])
            submit = int(float(fields[1]))
            run = int(float(fields[3]))
            procs = int(float(fields[4]))
        except ValueError as exc:
            raise WorkloadError(f"SWF line {lineno}: {exc}") from None
        if run <= 0 or procs <= 0 or submit < 0:
            continue  # failed/cancelled job, SWF convention
        jobs.append(SwfJob(job_id, submit, run, procs))
    return jobs


def jobset_from_swf(
    text: str,
    *,
    category_mix: Sequence[float],
    time_scale: float = 1.0,
    max_jobs: int | None = None,
) -> JobSet:
    """Lift an SWF trace into a K-category :class:`JobSet`.

    ``category_mix`` gives each category's share of every job's
    processor-time (must sum to 1); ``time_scale`` compresses timestamps
    and runtimes (traces are in seconds; simulations in abstract steps).
    Jobs become one phase per positive-share category, in category order —
    the sequential interleaving of resource types the paper motivates.
    """
    mix = np.asarray(category_mix, dtype=np.float64)
    if mix.ndim != 1 or mix.size < 1:
        raise WorkloadError("category_mix must be a 1-D sequence")
    if (mix < 0).any() or abs(float(mix.sum()) - 1.0) > 1e-9:
        raise WorkloadError(
            f"category_mix must be nonnegative and sum to 1, got {mix.tolist()}"
        )
    if time_scale <= 0:
        raise WorkloadError(f"time_scale must be > 0, got {time_scale}")
    records = parse_swf(text)
    if max_jobs is not None:
        records = records[:max_jobs]
    if not records:
        raise WorkloadError("SWF trace contains no valid jobs")
    k = mix.size
    jobs = []
    for i, rec in enumerate(records):
        run = max(1, int(round(rec.run_time * time_scale)))
        submit = int(round(rec.submit_time * time_scale))
        phases = []
        for alpha in range(k):
            share = float(mix[alpha])
            if share <= 0:
                continue
            work = np.zeros(k, dtype=np.int64)
            work[alpha] = max(1, int(round(run * rec.processors * share)))
            par = np.ones(k, dtype=np.int64)
            par[alpha] = rec.processors
            phases.append(Phase(work, par))
        jobs.append(PhaseJob(phases, job_id=i, release_time=submit))
    return JobSet(jobs)


def jobset_to_swf(jobset: JobSet, *, comment: str = "") -> str:
    """Emit a minimal valid SWF trace (5 meaningful fields, rest -1).

    Runtime is approximated by each job's span and processors by its peak
    desire — enough for round-trip tests and for feeding other SWF tools.
    """
    lines = [f"; {comment}" if comment else "; generated by repro"]
    lines.append("; fields: id submit wait run procs (others -1)")
    for job in jobset:
        # a fresh copy exposes the initial desires even if `job` has run
        fresh = job.fresh_copy()
        procs = int(max(1, fresh.desire_vector().max()))
        lines.append(
            f"{job.job_id} {job.release_time} -1 {fresh.span()} {procs} "
            + " ".join(["-1"] * 13)
        )
    return "\n".join(lines) + "\n"
