"""K1 — the homogeneous special case: RAD is 3-competitive for mean RT.

For K = 1 Theorem 5 gives RAD a ``3 - 2/(n+1)`` mean-response-time ratio,
beating the long-standing ``2 + sqrt(3) ~ 3.73`` of Edmonds et al. for EQUI.
This experiment runs RAD, EQUI and round-robin on batched homogeneous
workloads and reports their measured ratios against the squashed-area/span
lower bound, verifying:

* RAD stays below ``3 - 2/(n+1)`` on every instance;
* the homogeneous Figure-3 analogue pushes any non-clairvoyant scheduler's
  *makespan* ratio toward ``2 - 1/P`` (the classic K = 1 lower bound).
"""

from __future__ import annotations

from repro.analysis.sweeps import grid, run_sweep
from repro.analysis.tables import format_table
from repro.dag.lowerbound import homogeneous_lower_bound_job
from repro.jobs import workloads
from repro.jobs.jobset import JobSet
from repro.jobs.policies import CP_FIRST, CP_LAST
from repro.machine.machine import homogeneous_machine
from repro.schedulers.clairvoyant import ClairvoyantCriticalPath
from repro.schedulers.equi import Equi
from repro.schedulers.rad import Rad
from repro.schedulers.round_robin import KRoundRobin
from repro.sim.engine import simulate
from repro.theory import bounds
from repro.experiments.common import ExperimentReport

__all__ = ["run"]


def run(
    *,
    seed: int = 0,
    repeats: int = 3,
    processors: tuple[int, ...] = (4, 16),
    n_jobs: tuple[int, ...] = (4, 16, 48),
    lb_ms: tuple[int, ...] = (1, 2, 4, 8),
) -> ExperimentReport:
    # Part A: mean response time of RAD vs EQUI vs RR on batched sets.
    points = grid(p=list(processors), n=list(n_jobs))

    def measure(params, rng):
        machine = homogeneous_machine(params["p"])
        js = workloads.random_phase_jobset(
            rng, 1, params["n"], max_parallelism=params["p"], max_work=30
        )
        lb = bounds.mean_response_lower_bound(js, machine)
        out = {}
        for sched in (Rad(), Equi(), KRoundRobin()):
            r = simulate(machine, sched, js)
            out[f"{sched.name}_ratio"] = r.mean_response_time / lb
        limit = bounds.k1_mean_response_ratio(params["n"])
        out["rad_limit"] = limit
        out["rad_within"] = out["rad_ratio"] <= limit + 1e-9
        return out

    sweep = run_sweep(points, measure, seed=seed, repeats=repeats)
    checks = {
        "RAD ratio <= 3 - 2/(n+1) on every cell": all(sweep.column("rad_within")),
        "RAD ratio < Edmonds EQUI constant (2+sqrt3)": max(
            sweep.column("rad_ratio")
        )
        < bounds.EDMONDS_EQUI_RATIO,
    }

    # Part B: the K = 1 makespan lower bound instance (2 - 1/P).
    lb_rows = []
    p = processors[-1]
    machine = homogeneous_machine(p)
    ratios = []
    for m in lb_ms:
        dag = homogeneous_lower_bound_job(m, p)
        js = JobSet.from_dags([dag])
        adv = simulate(machine, Rad(), js, policy=CP_LAST)
        opt = simulate(machine, ClairvoyantCriticalPath(), js, policy=CP_FIRST)
        ratio = adv.makespan / opt.makespan
        ratios.append(ratio)
        lb_rows.append([m, adv.makespan, opt.makespan, ratio, 2 - 1 / p])
    checks["homogeneous adversary ratio increases toward 2 - 1/P"] = all(
        b >= a - 1e-12 for a, b in zip(ratios, ratios[1:])
    )
    checks["homogeneous adversary ratio stays below 2 - 1/P"] = all(
        r <= 2 - 1 / p + 1e-9 for r in ratios
    )

    text = "\n\n".join(
        [
            format_table(
                sweep.headers,
                sweep.as_table_rows(),
                title="K = 1 mean response time: RAD vs EQUI vs RR",
            ),
            format_table(
                ["m", "T adversarial", "T optimal", "ratio", "limit 2-1/P"],
                lb_rows,
                title=f"K = 1 makespan adversary (P = {p})",
            ),
        ]
    )
    return ExperimentReport(
        experiment_id="K1",
        title="homogeneous special case (RAD 3-competitive)",
        headers=sweep.headers,
        rows=sweep.as_table_rows(),
        checks=checks,
        notes=[
            f"Edmonds et al. EQUI constant: {bounds.EDMONDS_EQUI_RATIO:.3f}",
        ],
        text=text,
    )
