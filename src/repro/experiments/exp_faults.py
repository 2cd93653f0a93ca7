"""FAULT — K-RAD under failures: capacity loss, task failures, job kills.

The paper assumes fixed ``P_alpha`` and reliable execution; real machines
lose processors to failures and maintenance, tasks die, and whole jobs get
killed.  Because K-RAD re-reads capacities every step and keeps no
capacity-dependent state beyond its queues, it degrades gracefully under
all of these.  This experiment injects every fault class the engine
supports:

* a recurring maintenance window (one category degraded, including a
  **full outage** where the category drops to zero processors),
* random per-step degradation (binomial survival of each processor),
* task-level failures (each executed task fails i.i.d.; its work is
  wasted and the task re-runs), and
* scripted job kills with exponential-backoff resubmission.

and verifies, per class: every retryable job completes with a valid
schedule; faults never *help*; and the makespan stays within the Theorem-3
ratio of a fault-aware lower bound —

* for capacity faults, the **time-expanded** bound: the earliest step by
  which the degraded machine has offered enough processor-steps to cover
  every category's work (plus the release+span term);
* for rework faults, the **augmented-work** bound: the measured wasted
  work is added to each category's total (every discarded unit occupied a
  real processor-step), and observed backoff delays are allowed as
  additive slack.

Both bounds are *necessary* conditions on any schedule of the same run, so
the ratio check is a genuine conservative certificate, not a tautology.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.jobs import workloads
from repro.jobs.jobset import JobSet
from repro.machine.machine import KResourceMachine
from repro.schedulers.krad import KRad
from repro.sim.engine import simulate
from repro.sim.faults import (
    RandomDegradation,
    ScriptedKills,
    TaskFailures,
    periodic_outage,
)
from repro.sim.metrics import summarize_robustness
from repro.sim.retry import RetryPolicy
from repro.theory import bounds
from repro.experiments.common import ExperimentReport

__all__ = ["run"]


def _augmented_lower_bound(
    jobset: JobSet, machine: KResourceMachine, wasted: np.ndarray
) -> float:
    """Degraded-work bound: the run really executed ``work + wasted``."""
    total = jobset.total_work_vector() + np.asarray(wasted, dtype=np.int64)
    caps = np.asarray(machine.capacities, dtype=np.int64)
    work_bound = float(np.max(total / caps))
    return max(work_bound, float(jobset.max_release_plus_span()))


def run(
    *,
    seed: int = 0,
    repeats: int = 3,
    capacities: tuple[int, ...] = (8, 4),
    n_jobs: int = 12,
) -> ExperimentReport:
    machine = KResourceMachine(capacities)
    ratio = bounds.theorem3_ratio(machine.num_categories, machine.pmax)
    retry = RetryPolicy(max_attempts=4, base_delay=2, factor=2.0)
    rows = []
    checks: dict[str, bool] = {}
    root = np.random.SeedSequence(seed)
    agg: dict[str, dict[str, list[float]]] = {}

    def record(label: str, metric: str, value: float) -> None:
        agg.setdefault(label, {}).setdefault(metric, []).append(value)

    def check(label: str, ok: bool) -> None:
        checks.setdefault(label, True)
        checks[label] &= bool(ok)

    for rep, child in enumerate(root.spawn(repeats)):
        rng = np.random.default_rng(child)
        js = workloads.random_dag_jobset(
            rng, machine.num_categories, n_jobs, size_hint=20
        )
        outage = periodic_outage(
            capacities, category=0, period=10, duration=4, degraded=1
        )
        blackout = periodic_outage(
            capacities, category=0, period=10, duration=3, degraded=0
        )
        degradation = RandomDegradation(
            capacities, availability=0.7, seed=seed + rep
        )
        kill_steps = {int(t): [t % n_jobs] for t in (2, 5, 9)}
        scenarios = {
            "no faults": {},
            "periodic outage": {"churn": outage},
            "full outage": {"churn": blackout},
            "random degradation": {"churn": degradation},
            "task failures": {
                "fault_model": TaskFailures(0.1, seed=seed + rep)
            },
            "kills + retry": {
                "fault_model": ScriptedKills(kill_steps),
                "retry_policy": retry,
            },
        }
        results = {}
        for label, kwargs in scenarios.items():
            r = simulate(machine, KRad(), js, record_trace=False, **kwargs)
            results[label] = r
            s = summarize_robustness(r)
            record(label, "makespan", float(r.makespan))
            record(label, "wasted", float(s.total_wasted))
            record(label, "retries", float(s.total_retries))
            record(label, "stalls", float(s.stall_steps))
            expected_done = n_jobs - len(r.failed_jobs)
            check(
                f"{label}: every non-abandoned job completes",
                len(r.completion_times) == expected_done,
            )
            check(f"{label}: no jobs abandoned", not r.failed_jobs)

        base = results["no faults"].makespan
        for label in scenarios:
            if label == "no faults":
                continue
            check(
                f"{label}: never beats the healthy run",
                results[label].makespan >= base,
            )

        # --- certificates -------------------------------------------------
        # healthy: the plain Theorem-3 bound must hold
        lb = bounds.makespan_lower_bound(js, machine)
        check(
            "no faults: within Theorem-3 ratio of the lower bound",
            results["no faults"].makespan <= ratio * lb + 1e-9,
        )
        # capacity faults: Theorem-3 ratio vs the time-expanded bound of
        # the *degraded* machine
        for label, schedule in (
            ("periodic outage", outage),
            ("full outage", blackout),
            ("random degradation", degradation),
        ):
            r = results[label]
            lb_deg = bounds.time_expanded_lower_bound(
                js, machine, schedule, horizon=2 * r.makespan + 10
            )
            check(
                f"{label}: within Theorem-3 ratio of degraded-machine LB",
                r.makespan <= ratio * lb_deg + 1e-9,
            )
        # rework faults: Theorem-3 ratio vs the augmented-work bound
        r = results["task failures"]
        lb_aug = _augmented_lower_bound(js, machine, r.wasted)
        check(
            "task failures: within Theorem-3 ratio of augmented-work LB",
            r.makespan <= ratio * lb_aug + 1e-9,
        )
        r = results["kills + retry"]
        lb_aug = _augmented_lower_bound(js, machine, r.wasted)
        backoff_slack = sum(
            sum(retry.delay(a) for a in range(1, n + 1))
            for n in r.retries.values()
        )
        check(
            "kills + retry: within Theorem-3 ratio of augmented-work LB "
            "plus backoff",
            r.makespan <= ratio * lb_aug + backoff_slack + 1e-9,
        )

    for label, metrics in agg.items():
        rows.append(
            [
                label,
                float(np.mean(metrics["makespan"])),
                float(np.mean(metrics["wasted"])),
                float(np.mean(metrics["retries"])),
                float(np.mean(metrics["stalls"])),
            ]
        )
    headers = [
        "scenario",
        "mean makespan",
        "mean wasted",
        "mean retries",
        "mean stalls",
    ]
    text = format_table(
        headers,
        rows,
        title=(
            f"failure injection on {capacities}: outages on category 0 "
            "(incl. full blackout), 70% random availability, 10% task "
            "failure rate, scripted kills with exponential backoff"
        ),
    )
    return ExperimentReport(
        experiment_id="FAULT",
        title="fault tolerance: outages, task failures, kills (extension)",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[
            "extension: the paper assumes fixed capacities and reliable "
            "execution; this certifies Theorem-3-style ratios against "
            "fault-aware lower bounds",
            f"retry policy: {retry!r}",
        ],
        text=text,
    )
