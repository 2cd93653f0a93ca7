"""Random workload generators for experiments and benchmarks.

Every generator takes an explicit ``numpy.random.Generator`` so workloads are
reproducible from a seed.  Two families:

* **DAG workloads** — mixes of structured :mod:`repro.dag.builders` shapes,
  used where precedence structure matters (makespan experiments, validity
  tests);
* **phase workloads** — :class:`~repro.jobs.phase_job.PhaseJob` profiles,
  used for large mean-response-time sweeps.

Release-time helpers turn a batched set into an online one, exercising the
arbitrary-release-time side of Theorem 3: Poisson, uniform and bursty
arrivals, plus the adversarial shapes — diurnal load curves (a day/night
cycle compressed into virtual steps) and flash crowds (a large fraction of
the workload landing inside a tiny window on top of a background trickle).
Each returns a sorted, non-negative integer list of length ``num_jobs``
whose first arrival is at step 0; ``num_jobs=0`` returns ``[]`` so arrival
counts may themselves be drawn from a distribution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dag import builders
from repro.dag.kdag import KDag
from repro.errors import WorkloadError
from repro.jobs.jobset import JobSet
from repro.jobs.phase_job import Phase, PhaseJob
from repro.machine.machine import KResourceMachine

__all__ = [
    "random_dag",
    "random_dag_jobset",
    "random_phase_job",
    "random_phase_jobset",
    "light_phase_jobset",
    "heavy_phase_jobset",
    "bimodal_phase_jobset",
    "poisson_release_times",
    "uniform_release_times",
    "bursty_release_times",
    "diurnal_release_times",
    "flash_crowd_release_times",
    "with_release_times",
]


# ----------------------------------------------------------------------
# DAG workloads
# ----------------------------------------------------------------------
def random_dag(
    rng: np.random.Generator,
    num_categories: int,
    *,
    size_hint: int = 30,
) -> KDag:
    """One random job DAG drawn from a mix of structured shapes.

    The mix covers the parallelism spectrum: serial chains, wide fork-joins,
    heterogeneous pipelines, wavefront meshes, nested series-parallel blocks
    and unstructured layered DAGs.  ``size_hint`` loosely controls vertex
    count (actual sizes vary by shape).
    """
    if size_hint < 1:
        raise WorkloadError(f"size_hint must be >= 1, got {size_hint}")
    k = num_categories
    shape = rng.integers(0, 6)
    if shape == 0:  # chain with random colours
        length = int(rng.integers(1, 2 * size_hint + 1))
        return builders.chain(
            builders.random_categories(length, k, rng), k
        )
    if shape == 1:  # independent tasks
        counts = rng.integers(0, size_hint + 1, size=k)
        if counts.sum() == 0:
            counts[int(rng.integers(0, k))] = 1
        return builders.independent_tasks(counts.tolist())
    if shape == 2:  # multi-phase fork-join
        phases = [
            (int(rng.integers(0, k)), int(rng.integers(1, size_hint + 1)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        return builders.multi_phase_fork_join(phases, k)
    if shape == 3:  # heterogeneous pipeline
        nstages = int(rng.integers(1, min(k, 4) + 1))
        stages = [int(rng.integers(0, k)) for _ in range(nstages)]
        items = max(1, size_hint // max(1, nstages))
        return builders.pipeline(stages, items, k)
    if shape == 4:  # wavefront mesh
        rows = int(rng.integers(1, max(2, size_hint // 4)))
        cols = int(rng.integers(1, max(2, size_hint // 4)))
        return builders.diamond_mesh(rows, cols, k)
    # layered random
    return builders.layered_random(
        num_layers=int(rng.integers(1, 8)),
        layer_width=max(1, size_hint // 4),
        num_categories=k,
        rng=rng,
        edge_probability=float(rng.uniform(0.1, 0.6)),
    )


def random_dag_jobset(
    rng: np.random.Generator,
    num_categories: int,
    num_jobs: int,
    *,
    size_hint: int = 30,
    release_times: Sequence[int] | None = None,
) -> JobSet:
    """``num_jobs`` random DAG jobs (batched unless releases are given)."""
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    dags = [
        random_dag(rng, num_categories, size_hint=size_hint)
        for _ in range(num_jobs)
    ]
    return JobSet.from_dags(dags, release_times)


# ----------------------------------------------------------------------
# phase workloads
# ----------------------------------------------------------------------
def random_phase_job(
    rng: np.random.Generator,
    num_categories: int,
    *,
    max_phases: int = 4,
    max_work: int = 60,
    max_parallelism: int = 16,
    job_id: int = 0,
    release_time: int = 0,
) -> PhaseJob:
    """A random phase-parallel job.

    Each phase activates a random non-empty subset of categories with random
    work and parallelism, modelling programs that alternate between resource
    types (compute-heavy phase, then I/O phase, ...).
    """
    k = num_categories
    phases = []
    for _ in range(int(rng.integers(1, max_phases + 1))):
        active = rng.random(k) < 0.6
        if not active.any():
            active[int(rng.integers(0, k))] = True
        work = np.where(active, rng.integers(1, max_work + 1, size=k), 0)
        par = np.where(active, rng.integers(1, max_parallelism + 1, size=k), 1)
        phases.append(Phase(work, par))
    return PhaseJob(phases, job_id=job_id, release_time=release_time)


def random_phase_jobset(
    rng: np.random.Generator,
    num_categories: int,
    num_jobs: int,
    *,
    max_phases: int = 4,
    max_work: int = 60,
    max_parallelism: int = 16,
) -> JobSet:
    """``num_jobs`` random batched phase jobs."""
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    return JobSet(
        [
            random_phase_job(
                rng,
                num_categories,
                max_phases=max_phases,
                max_work=max_work,
                max_parallelism=max_parallelism,
                job_id=i,
            )
            for i in range(num_jobs)
        ]
    )


def light_phase_jobset(
    rng: np.random.Generator,
    machine: KResourceMachine,
    num_jobs: int,
    *,
    max_phases: int = 4,
    max_work: int = 60,
) -> JobSet:
    """A batched set guaranteed to be *light workload* for Theorem 5.

    The theorem's regime requires ``|J(alpha, t)| <= P_alpha`` at all times;
    with ``num_jobs <= min_alpha P_alpha`` this holds for any schedule, since
    active jobs never exceed the total job count.
    """
    pmin = min(machine.capacities)
    if num_jobs > pmin:
        raise WorkloadError(
            f"light workload needs num_jobs <= min P_alpha = {pmin}, "
            f"got {num_jobs}"
        )
    return random_phase_jobset(
        rng,
        machine.num_categories,
        num_jobs,
        max_phases=max_phases,
        max_work=max_work,
        max_parallelism=machine.pmax,
    )


def heavy_phase_jobset(
    rng: np.random.Generator,
    machine: KResourceMachine,
    load_factor: float = 4.0,
    *,
    max_phases: int = 3,
    max_work: int = 30,
) -> JobSet:
    """A batched set with ``~load_factor`` jobs per processor of the largest
    category — deep in the round-robin regime of Theorem 6."""
    if load_factor <= 0:
        raise WorkloadError(f"load_factor must be > 0, got {load_factor}")
    num_jobs = max(1, int(round(load_factor * machine.pmax)))
    return random_phase_jobset(
        rng,
        machine.num_categories,
        num_jobs,
        max_phases=max_phases,
        max_work=max_work,
        max_parallelism=machine.pmax,
    )


def bimodal_phase_jobset(
    rng: np.random.Generator,
    machine: KResourceMachine,
    num_jobs: int,
    *,
    elephant_fraction: float = 0.2,
    mouse_work: int = 5,
    elephant_work: int = 200,
) -> JobSet:
    """The classic elephants-and-mice mix: a few huge jobs, many tiny ones.

    The workload where fairness policy matters most — FCFS buries the mice
    behind the elephants, RR slows the elephants, and the mean/max response
    time split tells the story.  ``elephant_fraction`` of the jobs get
    ``elephant_work`` total work at high parallelism; the rest are small,
    narrow jobs.
    """
    if not 0.0 <= elephant_fraction <= 1.0:
        raise WorkloadError(
            f"elephant_fraction must be in [0,1], got {elephant_fraction}"
        )
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    k = machine.num_categories
    jobs = []
    n_elephants = int(round(elephant_fraction * num_jobs))
    for i in range(num_jobs):
        if i < n_elephants:
            work = rng.integers(
                elephant_work // 2, elephant_work + 1, size=k
            )
            par = rng.integers(
                max(1, machine.pmax // 2), machine.pmax + 1, size=k
            )
        else:
            work = np.zeros(k, dtype=np.int64)
            work[int(rng.integers(0, k))] = int(
                rng.integers(1, mouse_work + 1)
            )
            par = np.ones(k, dtype=np.int64) * int(rng.integers(1, 3))
        jobs.append(PhaseJob([Phase(work, np.maximum(par, 1))], job_id=i))
    return JobSet(jobs)


# ----------------------------------------------------------------------
# release times
# ----------------------------------------------------------------------
def poisson_release_times(
    rng: np.random.Generator, num_jobs: int, rate: float
) -> list[int]:
    """Integer arrival times of a Poisson process with ``rate`` jobs/step.

    The first job arrives at time 0 so the schedule starts immediately.
    ``num_jobs=0`` yields ``[]``, so scenario code can draw arrival
    counts from a distribution without special-casing empty draws.
    """
    if num_jobs < 0:
        raise WorkloadError(f"num_jobs must be >= 0, got {num_jobs}")
    if rate <= 0:
        raise WorkloadError(f"rate must be > 0, got {rate}")
    if num_jobs == 0:
        return []
    gaps = rng.exponential(1.0 / rate, size=num_jobs)
    times = np.floor(np.cumsum(gaps)).astype(np.int64)
    times -= times[0]
    return times.tolist()


def uniform_release_times(
    rng: np.random.Generator, num_jobs: int, horizon: int
) -> list[int]:
    """Arrival times uniform on ``[0, horizon]``, sorted, first at 0.

    ``num_jobs=0`` yields ``[]``.
    """
    if num_jobs < 0:
        raise WorkloadError(f"num_jobs must be >= 0, got {num_jobs}")
    if horizon < 0:
        raise WorkloadError(f"horizon must be >= 0, got {horizon}")
    if num_jobs == 0:
        return []
    times = np.sort(rng.integers(0, horizon + 1, size=num_jobs))
    times -= times[0]
    return times.tolist()


def bursty_release_times(
    rng: np.random.Generator,
    num_jobs: int,
    *,
    burst_size: int = 8,
    gap: int = 50,
) -> list[int]:
    """Arrivals in bursts: ``burst_size`` jobs land together, then a lull.

    Bursts are the adversarial side of online arrivals — they flip the
    system between the DEQ and RR regimes, exercising K-RAD's mode switch.
    Burst sizes are jittered ±50% so bursts do not align artificially.
    """
    if num_jobs < 0:
        raise WorkloadError(f"num_jobs must be >= 0, got {num_jobs}")
    if burst_size < 1 or gap < 0:
        raise WorkloadError(
            f"need burst_size >= 1 and gap >= 0; got {burst_size}, {gap}"
        )
    times: list[int] = []
    t = 0
    while len(times) < num_jobs:
        size = int(
            rng.integers(max(1, burst_size // 2), burst_size + burst_size // 2 + 1)
        )
        times.extend([t] * min(size, num_jobs - len(times)))
        # gap=0 means back-to-back bursts (one continuous burst at t=0);
        # jitter bounds would otherwise collapse to an empty interval.
        if gap > 0:
            t += int(rng.integers(max(1, gap // 2), gap + gap // 2 + 1))
    return times


def diurnal_release_times(
    rng: np.random.Generator,
    num_jobs: int,
    *,
    period: int = 240,
    peak_rate: float = 1.0,
    trough_rate: float = 0.05,
) -> list[int]:
    """Arrivals from a nonhomogeneous Poisson process with a sinusoidal
    day/night intensity.

    The instantaneous rate swings between ``trough_rate`` and
    ``peak_rate`` over one ``period`` (the classic diurnal load curve,
    compressed into virtual steps).  Sampled by thinning a homogeneous
    ``peak_rate`` process, so the draw is a pure function of the RNG
    state.  The mode-switch stress: K-RAD rides DEQ through the trough
    and flips to RR as the peak saturates the machine.
    """
    if num_jobs < 0:
        raise WorkloadError(f"num_jobs must be >= 0, got {num_jobs}")
    if period < 1:
        raise WorkloadError(f"period must be >= 1, got {period}")
    if not 0 < trough_rate <= peak_rate:
        raise WorkloadError(
            f"need 0 < trough_rate <= peak_rate; got "
            f"{trough_rate}, {peak_rate}"
        )
    if num_jobs == 0:
        return []
    times: list[float] = []
    t = 0.0
    two_pi = 2.0 * np.pi
    while len(times) < num_jobs:
        t += float(rng.exponential(1.0 / peak_rate))
        # intensity at the candidate instant, phased so t=0 is a trough
        lam = trough_rate + (peak_rate - trough_rate) * 0.5 * (
            1.0 - np.cos(two_pi * t / period)
        )
        if rng.random() < lam / peak_rate:
            times.append(t)
    out = np.floor(np.asarray(times)).astype(np.int64)
    out -= out[0]
    return out.tolist()


def flash_crowd_release_times(
    rng: np.random.Generator,
    num_jobs: int,
    *,
    base_rate: float = 0.1,
    crowd_fraction: float = 0.6,
    crowd_width: int = 3,
    crowd_at: int | None = None,
) -> list[int]:
    """A background Poisson trickle with one flash crowd on top.

    ``crowd_fraction`` of the jobs land inside a ``crowd_width``-step
    window (all of them co-arriving when the width is 0); the rest
    arrive as a ``base_rate`` Poisson stream.  ``crowd_at`` places the
    window (default: the middle of the background stream) — the
    viral-link / breaking-news arrival shape that slams a quiescent
    system into the heavy regime within a handful of steps.
    """
    if num_jobs < 0:
        raise WorkloadError(f"num_jobs must be >= 0, got {num_jobs}")
    if base_rate <= 0:
        raise WorkloadError(f"base_rate must be > 0, got {base_rate}")
    if not 0.0 <= crowd_fraction <= 1.0:
        raise WorkloadError(
            f"crowd_fraction must be in [0, 1], got {crowd_fraction}"
        )
    if crowd_width < 0:
        raise WorkloadError(f"crowd_width must be >= 0, got {crowd_width}")
    if crowd_at is not None and crowd_at < 0:
        raise WorkloadError(f"crowd_at must be >= 0, got {crowd_at}")
    if num_jobs == 0:
        return []
    n_crowd = int(round(crowd_fraction * num_jobs))
    n_base = num_jobs - n_crowd
    base = poisson_release_times(rng, n_base, rate=base_rate)
    if crowd_at is None:
        crowd_at = (max(base) // 2) if base else 0
    crowd = (
        rng.integers(
            crowd_at, crowd_at + crowd_width + 1, size=n_crowd
        ).tolist()
        if n_crowd
        else []
    )
    times = np.sort(np.asarray(base + crowd, dtype=np.int64))
    times -= times[0]
    return times.tolist()


def with_release_times(jobset: JobSet, release_times: Sequence[int]) -> JobSet:
    """A fresh copy of ``jobset`` with new release times applied in order."""
    if len(release_times) != len(jobset):
        raise WorkloadError(
            f"{len(release_times)} release times for {len(jobset)} jobs"
        )
    fresh = jobset.fresh_copy()
    for job, r in zip(fresh, release_times):
        if r < 0:
            raise WorkloadError(f"negative release time {r}")
        job.release_time = int(r)
    return fresh
