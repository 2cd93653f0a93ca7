"""THM6 — mean response time of K-RAD under heavy (general) workload.

Batched job sets with several times more jobs than processors push K-RAD
into its round-robin regime.  Verifies the general mean-response-time
competitiveness ``4K + 1 - 4K/(n+1)`` against the squashed-area/span lower
bound, across machines, load factors and both job backends.
"""

from __future__ import annotations

from repro.analysis.sweeps import grid, run_sweep
from repro.analysis.tables import format_table
from repro.jobs import workloads
from repro.machine.machine import KResourceMachine
from repro.schedulers.krad import KRad
from repro.sim.engine import simulate
from repro.theory import bounds
from repro.experiments.common import ExperimentReport

__all__ = ["run"]

_MACHINES: dict[str, tuple[int, ...]] = {
    "P4": (4,),
    "P4x4": (4, 4),
    "P8x2": (8, 2),
    "P4x2x2": (4, 2, 2),
}


def run(
    *,
    seed: int = 0,
    repeats: int = 3,
    load_factors: tuple[float, ...] = (2.0, 4.0, 8.0),
) -> ExperimentReport:
    points = grid(
        machine=list(_MACHINES),
        backend=["dag", "phase"],
        load=list(load_factors),
    )

    def measure(params, rng):
        from repro.sim.instrument import RecordingScheduler
        from repro.theory.regimes import regime_fractions

        caps = _MACHINES[params["machine"]]
        machine = KResourceMachine(caps)
        n = max(2, int(round(params["load"] * machine.pmax)))
        if params["backend"] == "dag":
            js = workloads.random_dag_jobset(
                rng, machine.num_categories, n, size_hint=10
            )
        else:
            js = workloads.random_phase_jobset(
                rng, machine.num_categories, n, max_work=20,
                max_parallelism=machine.pmax,
            )
        recorder = RecordingScheduler(KRad())
        result = simulate(machine, recorder, js)
        entered_rr = regime_fractions(recorder.records, machine).ever_rr()
        lb = bounds.mean_response_lower_bound(js, machine)
        ratio = result.mean_response_time / lb
        limit = bounds.theorem6_ratio(machine.num_categories, n)
        return {
            "n": n,
            "mean_rt": result.mean_response_time,
            "rt_lb": lb,
            "ratio": ratio,
            "limit": limit,
            "within": ratio <= limit + 1e-9,
            "rr_hit": entered_rr,
        }

    sweep = run_sweep(points, measure, seed=seed, repeats=repeats)
    checks = {
        "theorem 6 ratio holds on every cell": all(sweep.column("within")),
        "the round-robin regime was actually exercised": any(
            sweep.column("rr_hit")
        ),
    }
    worst = max(sweep.column("ratio"))
    from repro.viz.heatmap import sweep_heatmap

    text = "\n\n".join(
        [
            format_table(
                sweep.headers,
                sweep.as_table_rows(),
                title="K-RAD mean response time, heavy workload (Theorem 6)",
            ),
            sweep_heatmap(
                sweep,
                row="machine",
                col="load",
                metric="ratio",
                title="mean measured ratio by machine x load factor",
            ),
        ]
    )
    return ExperimentReport(
        experiment_id="THM6",
        title="mean response time under heavy workload",
        headers=sweep.headers,
        rows=sweep.as_table_rows(),
        checks=checks,
        notes=[f"worst measured ratio {worst:.3f} (limits are 4K+1-4K/(n+1))"],
        text=text,
    )
