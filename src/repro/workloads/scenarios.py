"""The scenario library: named, seeded workload shapes as traces.

Each scenario is a recipe — an arrival process, a job-size family, a
tenant mix, optionally a fault configuration — that ``build_trace``
turns into a concrete :class:`~repro.workloads.trace.WorkloadTrace`,
deterministic in the seed.  Scenarios exist to stress specific claims:

* Theorem 3 holds for *arbitrary* release times, so the arrival shapes
  here are chosen adversarially (flash crowds, diurnal swing, bursts);
* the DEQ/RR mode switch is exercised by anything that crosses the
  light/heavy boundary (hotspot, flash-crowd, diurnal);
* fairness under skew is exercised by Zipfian tenant weight and
  heavy-tailed sizes (a few elephants, many mice);
* the ``adversarial-mix`` scenario layers faults on top, which is why
  it carries a fault spec and is *not* Theorem-3-certified — the bound
  assumes processors do not fail mid-run.

Every generated trace replays bit-identically through both engines
(:func:`~repro.workloads.replay.replay_compare`); the ``SCEN``
experiment certifies the fault-free scenarios against the Theorem 3
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.jobs.jobset import JobSet
from repro.jobs.phase_job import Phase, PhaseJob
from repro.jobs.workloads import (
    bursty_release_times,
    diurnal_release_times,
    flash_crowd_release_times,
    poisson_release_times,
    random_phase_job,
    uniform_release_times,
)
from repro.sim.faults import fault_spec
from repro.workloads.trace import WorkloadTrace

__all__ = [
    "Scenario",
    "SCENARIOS",
    "scenario_names",
    "build_trace",
    "zipf_tenant_weights",
    "heavy_tailed_phase_jobset",
    "correlated_phase_jobset",
    "hotspot_phase_jobset",
]

DEFAULT_CAPACITIES = (6, 4, 2)


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------
def zipf_tenant_weights(num_tenants: int, *, s: float = 1.2) -> np.ndarray:
    """Normalised Zipfian weights: tenant ``i`` submits with probability
    proportional to ``1 / (i+1)**s`` — a small head of tenants owns most
    of the load, the tail trickles."""
    if num_tenants < 1:
        raise WorkloadError(f"num_tenants must be >= 1, got {num_tenants}")
    if s < 0:
        raise WorkloadError(f"zipf exponent must be >= 0, got {s}")
    w = 1.0 / np.power(np.arange(1, num_tenants + 1, dtype=np.float64), s)
    return w / w.sum()


def _pareto_work(
    rng: np.random.Generator, *, alpha: float, scale: float, cap: int
) -> int:
    """One heavy-tailed work draw: Pareto(alpha) * scale, clipped to
    ``cap`` so a single draw cannot dwarf the experiment horizon."""
    return int(min(cap, max(1.0, scale * (1.0 + rng.pareto(alpha)))))


def heavy_tailed_phase_jobset(
    rng: np.random.Generator,
    num_categories: int,
    num_jobs: int,
    *,
    alpha: float = 1.3,
    scale: float = 4.0,
    cap: int = 400,
    max_parallelism: int = 8,
) -> JobSet:
    """Jobs whose total work is Pareto-distributed (``alpha`` just above
    1: finite mean, infinite variance) — the elephants-and-mice regime
    where mean response time is decided by fairness policy."""
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    if alpha <= 1.0:
        raise WorkloadError(
            f"alpha must be > 1 (finite-mean tail), got {alpha}"
        )
    k = num_categories
    jobs = []
    for i in range(num_jobs):
        total = _pareto_work(rng, alpha=alpha, scale=scale, cap=cap)
        cat = int(rng.integers(0, k))
        work = np.zeros(k, dtype=np.int64)
        work[cat] = total
        par = np.ones(k, dtype=np.int64)
        par[cat] = int(rng.integers(1, max_parallelism + 1))
        jobs.append(PhaseJob([Phase(work, par)], job_id=i))
    return JobSet(jobs, num_categories=k)


def correlated_phase_jobset(
    rng: np.random.Generator,
    num_categories: int,
    num_jobs: int,
    *,
    correlation: float = 0.85,
    max_work: int = 40,
    max_parallelism: int = 8,
) -> JobSet:
    """Jobs whose per-category demand moves *together*: with probability
    ``correlation`` a job demands every category at once (the worst case
    for functional heterogeneity — no category is slack to steal from),
    otherwise it demands a single random category."""
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    if not 0.0 <= correlation <= 1.0:
        raise WorkloadError(
            f"correlation must be in [0, 1], got {correlation}"
        )
    k = num_categories
    jobs = []
    for i in range(num_jobs):
        if rng.random() < correlation:
            base = int(rng.integers(2, max_work + 1))
            # demand every category, same order of magnitude
            work = rng.integers(
                max(1, base // 2), base + 1, size=k
            ).astype(np.int64)
            par = rng.integers(1, max_parallelism + 1, size=k)
        else:
            work = np.zeros(k, dtype=np.int64)
            work[int(rng.integers(0, k))] = int(
                rng.integers(1, max_work + 1)
            )
            par = np.ones(k, dtype=np.int64)
        jobs.append(PhaseJob([Phase(work, np.maximum(par, 1))], job_id=i))
    return JobSet(jobs, num_categories=k)


def hotspot_phase_jobset(
    rng: np.random.Generator,
    num_categories: int,
    num_jobs: int,
    *,
    hot_category: int = 0,
    hot_fraction: float = 0.8,
    max_work: int = 30,
    max_parallelism: int = 8,
) -> JobSet:
    """``hot_fraction`` of the jobs pile onto one category while the
    rest spread out — the skew that saturates a single resource type
    while others idle (the setting where functionally heterogeneous
    scheduling differs most from the homogeneous case)."""
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    if not 0 <= hot_category < num_categories:
        raise WorkloadError(
            f"hot_category {hot_category} out of range for "
            f"K={num_categories}"
        )
    if not 0.0 <= hot_fraction <= 1.0:
        raise WorkloadError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    k = num_categories
    jobs = []
    for i in range(num_jobs):
        cat = (
            hot_category
            if rng.random() < hot_fraction
            else int(rng.integers(0, k))
        )
        work = np.zeros(k, dtype=np.int64)
        work[cat] = int(rng.integers(1, max_work + 1))
        par = np.ones(k, dtype=np.int64)
        par[cat] = int(rng.integers(1, max_parallelism + 1))
        jobs.append(PhaseJob([Phase(work, par)], job_id=i))
    return JobSet(jobs, num_categories=k)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One named workload recipe.

    ``build(rng, num_jobs, capacities)`` returns ``(jobset, releases,
    tenants)`` — jobs in submission order, one release and one tenant
    per job.  ``faults`` is a plain fault spec
    (:func:`repro.sim.faults.fault_spec`) or ``None``; a scenario with
    faults is excluded from Theorem-3 certification (``certified`` is
    derived, never set by hand).
    """

    name: str
    description: str
    build: Callable[
        [np.random.Generator, int, tuple[int, ...]],
        tuple[JobSet, Sequence[int], Sequence[str]],
    ]
    default_jobs: int = 24
    faults: dict | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def certified(self) -> bool:
        """Theorem 3 applies only to fault-free runs."""
        return self.faults is None


def _tenants(
    rng: np.random.Generator, n: int, *, num_tenants: int = 4, s: float = 0.0
) -> list[str]:
    names = [f"tenant-{i}" for i in range(num_tenants)]
    if s > 0:
        p = zipf_tenant_weights(num_tenants, s=s)
        picks = rng.choice(num_tenants, size=n, p=p)
    else:
        picks = rng.integers(0, num_tenants, size=n)
    return [names[int(i)] for i in picks]


def _mixed_jobset(
    rng: np.random.Generator, k: int, n: int
) -> JobSet:
    return JobSet(
        [random_phase_job(rng, k, max_phases=3, max_work=30, job_id=i)
         for i in range(n)],
        num_categories=k,
    )


def _zipf_tenants(rng, n, caps):
    k = len(caps)
    jobs = _mixed_jobset(rng, k, n)
    rel = poisson_release_times(rng, n, rate=0.5)
    return jobs, rel, _tenants(rng, n, num_tenants=8, s=1.4)


def _hotspot(rng, n, caps):
    k = len(caps)
    jobs = hotspot_phase_jobset(rng, k, n, hot_category=0)
    rel = uniform_release_times(rng, n, horizon=max(1, n // 2))
    return jobs, rel, _tenants(rng, n)


def _flash_crowd(rng, n, caps):
    k = len(caps)
    jobs = _mixed_jobset(rng, k, n)
    rel = flash_crowd_release_times(
        rng, n, base_rate=0.15, crowd_fraction=0.6, crowd_width=2
    )
    return jobs, rel, _tenants(rng, n, num_tenants=6, s=1.1)


def _diurnal(rng, n, caps):
    k = len(caps)
    jobs = _mixed_jobset(rng, k, n)
    rel = diurnal_release_times(
        rng, n, period=60, peak_rate=1.0, trough_rate=0.05
    )
    return jobs, rel, _tenants(rng, n)


def _bursty(rng, n, caps):
    k = len(caps)
    jobs = _mixed_jobset(rng, k, n)
    rel = bursty_release_times(rng, n, burst_size=6, gap=20)
    return jobs, rel, _tenants(rng, n)


def _heavy_tail(rng, n, caps):
    k = len(caps)
    jobs = heavy_tailed_phase_jobset(rng, k, n)
    rel = poisson_release_times(rng, n, rate=0.4)
    return jobs, rel, _tenants(rng, n, num_tenants=6, s=1.0)


def _correlated(rng, n, caps):
    k = len(caps)
    jobs = correlated_phase_jobset(rng, k, n)
    rel = bursty_release_times(rng, n, burst_size=4, gap=15)
    return jobs, rel, _tenants(rng, n)


def _adversarial(rng, n, caps):
    k = len(caps)
    half = max(1, n // 2)
    heavy = heavy_tailed_phase_jobset(rng, k, half)
    hot = hotspot_phase_jobset(rng, k, n - half) if n > half else None
    jobs = [j.fresh_copy() for j in heavy]
    if hot is not None:
        jobs += [j.fresh_copy() for j in hot]
    for i, job in enumerate(jobs):
        job.job_id = i
    jobset = JobSet(jobs, num_categories=k)
    rel = flash_crowd_release_times(
        rng, n, base_rate=0.1, crowd_fraction=0.5, crowd_width=1
    )
    return jobset, rel, _tenants(rng, n, num_tenants=8, s=1.4)


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "zipf-tenants",
            "Zipfian tenant skew over Poisson arrivals: a head tenant "
            "dominates submission volume.",
            _zipf_tenants,
        ),
        Scenario(
            "hotspot",
            "80% of jobs demand one category; others idle while it "
            "saturates.",
            _hotspot,
        ),
        Scenario(
            "flash-crowd",
            "Background trickle, then 60% of the workload lands inside "
            "a 2-step window.",
            _flash_crowd,
        ),
        Scenario(
            "diurnal",
            "Sinusoidal day/night arrival intensity (nonhomogeneous "
            "Poisson by thinning).",
            _diurnal,
        ),
        Scenario(
            "bursty",
            "Jittered arrival bursts separated by lulls — repeated "
            "DEQ/RR regime flips.",
            _bursty,
        ),
        Scenario(
            "heavy-tail",
            "Pareto(1.3) job sizes: a few elephants carry most of the "
            "work, mice queue behind them.",
            _heavy_tail,
        ),
        Scenario(
            "correlated-demand",
            "85% of jobs demand every category at once — no slack "
            "category to steal from.",
            _correlated,
        ),
        Scenario(
            "adversarial-mix",
            "Heavy-tailed + hotspot jobs under a flash crowd, with task "
            "failures, job kills and a periodic outage layered on top.",
            _adversarial,
            default_jobs=18,
            faults=fault_spec(
                task_fail_rate=0.05,
                kill_rate=0.01,
                outage="40:4",
                max_attempts=4,
                seed=7,
            ),
            notes=(
                "faults active: excluded from Theorem-3 certification",
            ),
        ),
    )
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


# ----------------------------------------------------------------------
# trace assembly
# ----------------------------------------------------------------------
def build_trace(
    name: str,
    *,
    seed: int = 0,
    num_jobs: int | None = None,
    capacities: Sequence[int] | None = None,
    scheduler: str = "k-rad",
) -> WorkloadTrace:
    """Materialise one scenario as a workload trace.

    Jobs are sorted into submission order by ``(release, draw order)``
    and renumbered densely from 0, matching how a live service assigns
    ids.  Scenario traces are *batch-style*: every submission carries
    clock ``t=0`` with its arrival expressed purely as a future
    ``release`` (a record's ``t`` must be a clock value the engine can
    actually reach, and the engine fast-forwards idle gaps, so
    just-in-time clocks are only meaningful in live-recorded traces).
    The online machinery is exercised all the same — arrivals, idle
    fast-forward and mode switches are driven by the releases.
    """
    try:
        spec = SCENARIOS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None
    caps = tuple(int(c) for c in (capacities or DEFAULT_CAPACITIES))
    n = int(num_jobs if num_jobs is not None else spec.default_jobs)
    if n < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    jobset, releases, tenants = spec.build(rng, n, caps)
    if not (len(jobset) == len(releases) == len(tenants)):
        raise WorkloadError(
            f"scenario {name!r} built {len(jobset)} jobs, "
            f"{len(releases)} releases, {len(tenants)} tenants"
        )
    order = sorted(range(n), key=lambda i: (int(releases[i]), i))
    from repro.io.serialize import job_to_dict

    records = []
    for new_id, i in enumerate(order):
        job = jobset.jobs[i].fresh_copy()
        job.job_id = new_id
        release = int(releases[i])
        job.release_time = release
        records.append(
            {
                "kind": "submit",
                "t": 0,
                "release": release,
                "tenant": str(tenants[i]),
                "job": job_to_dict(job),
            }
        )
    return WorkloadTrace(
        capacities=caps,
        names=None,
        scheduler=scheduler,
        seed=seed,
        faults=dict(spec.faults) if spec.faults else None,
        scenario=name,
        notes=list(spec.notes),
        records=records,
    )
