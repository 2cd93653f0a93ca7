"""K-RAD: adaptive scheduling of parallel jobs on functionally heterogeneous
resources — a full reproduction of He, Sun & Hsu (ICPP 2007).

Quick tour
----------
Build a machine, a job set, pick a scheduler, simulate::

    import numpy as np
    from repro import (KResourceMachine, KRad, simulate,
                       jobs, dag)

    machine = KResourceMachine((8, 4, 2), names=("cpu", "vector", "io"))
    rng = np.random.default_rng(0)
    jobset = jobs.workloads.random_dag_jobset(rng, 3, num_jobs=10)
    result = simulate(machine, KRad(), jobset)
    print(result.summary())

Layout
------
* :mod:`repro.dag` — K-DAG job model and builders (incl. Figure 1/Figure 3)
* :mod:`repro.jobs` — job runtime (DAG and phase backends), workloads
* :mod:`repro.machine` — the K-resource machine
* :mod:`repro.schedulers` — K-RAD and baselines
* :mod:`repro.service` — long-running online scheduling service (daemon)
* :mod:`repro.sim` — discrete-time engine, traces, validity checking
* :mod:`repro.theory` — squashed sums, lower bounds, guarantee checks
* :mod:`repro.analysis` — sweeps, competitive ratios, tables
* :mod:`repro.experiments` — per-theorem/figure reproduction drivers
"""

from repro._version import __version__
from repro import (
    analysis,
    dag,
    experiments,
    feedback,
    io,
    jobs,
    machine,
    schedulers,
    service,
    sim,
    theory,
    viz,
)
from repro.errors import (
    CategoryError,
    DagError,
    ReproError,
    ScheduleError,
    ServiceError,
    SimulationError,
    ValidationError,
    WorkloadError,
)
from repro.jobs import (
    CP_FIRST,
    CP_LAST,
    FIFO,
    LIFO,
    DagJob,
    JobSet,
    Phase,
    PhaseJob,
)
from repro.machine import KResourceMachine, homogeneous_machine
from repro.schedulers import (
    ClairvoyantCriticalPath,
    ClairvoyantSrpt,
    Equi,
    GreedyFcfs,
    KDeq,
    KRad,
    KRoundRobin,
    Rad,
    scheduler_by_name,
)
from repro.sim import (
    RetryPolicy,
    SimulationResult,
    Simulator,
    simulate,
    validate_schedule,
)

__all__ = [
    "__version__",
    "analysis",
    "dag",
    "experiments",
    "feedback",
    "io",
    "jobs",
    "machine",
    "schedulers",
    "service",
    "sim",
    "theory",
    "viz",
    "CategoryError",
    "DagError",
    "ReproError",
    "ScheduleError",
    "ServiceError",
    "SimulationError",
    "ValidationError",
    "WorkloadError",
    "CP_FIRST",
    "CP_LAST",
    "FIFO",
    "LIFO",
    "DagJob",
    "JobSet",
    "Phase",
    "PhaseJob",
    "KResourceMachine",
    "homogeneous_machine",
    "ClairvoyantCriticalPath",
    "ClairvoyantSrpt",
    "Equi",
    "GreedyFcfs",
    "KDeq",
    "KRad",
    "KRoundRobin",
    "Rad",
    "scheduler_by_name",
    "RetryPolicy",
    "SimulationResult",
    "Simulator",
    "simulate",
    "validate_schedule",
]
