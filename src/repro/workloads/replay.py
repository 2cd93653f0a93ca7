"""Bit-identical replay of workload traces through either engine.

``replay(trace)`` rebuilds the machine, scheduler, fault hooks and
churn schedule (a capacity fault in the header's ``faults`` *is* a churn
schedule) from the trace header, then drives the *online* surface
exactly as the original run did: advance the clock to each record's submission time,
inject (or cancel) the recorded job, and finally run to completion.
Because the engine only advances the clock while admitted work exists,
the replay visits the identical state the live run was in at each
submission — the sliced-conformance property — so the replay's per-step
execution trace is bit-for-bit the original schedule.

``replay_compare(trace)`` runs the replay through several engines
(reference and fast by default) and proves them bit-identical by
per-step digest, raising :class:`~repro.errors.ReplayError` naming the
first diverging step otherwise.  This is the cross-engine oracle the
``krad replay`` subcommand and the CI replay-smoke job exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReplayError
from repro.jobs.jobset import JobSet
from repro.machine.machine import KResourceMachine
from repro.schedulers import Scheduler, scheduler_by_name
from repro.sim.engine import engine_class, get_default_engine
from repro.sim.faults import fault_objects_from_spec
from repro.sim.results import SimulationResult
from repro.workloads.trace import WorkloadTrace

__all__ = ["ReplayOutcome", "replay", "replay_compare"]


@dataclass
class ReplayOutcome:
    """What one engine produced when it replayed a trace."""

    engine: str
    result: SimulationResult
    #: per-step SHA-256 digests of the replayed schedule
    step_digests: list[str]
    #: digest of the full replayed schedule (``Trace.content_digest``)
    schedule_digest: str
    #: CRC32 of the terminal engine state (clock, completions, RNG, ...)
    state_digest: int

    @property
    def makespan(self) -> int:
        return self.result.makespan


def replay(
    trace: WorkloadTrace,
    *,
    engine: str | None = None,
    scheduler: str | Scheduler | None = None,
    record_trace: bool = True,
    validate: bool = False,
    max_stall_steps: int = 1000,
) -> ReplayOutcome:
    """Re-execute ``trace`` through one engine, record by record.

    The machine, scheduler, seed and fault hooks come from the trace
    header (``scheduler`` overrides the recorded one for what-if
    replays — the result is then a counterfactual, not a reproduction).
    ``scheduler`` may also be a :class:`~repro.schedulers.Scheduler`
    *instance* for policies that are not in the name registry (arena
    env-policy adapters); pass a fresh instance per replay, since the
    engine resets it.  Returns the outcome with schedule digests when
    ``record_trace``.
    """
    machine = KResourceMachine(trace.capacities, trace.names)
    if isinstance(scheduler, Scheduler):
        sched = scheduler
    else:
        sched = scheduler_by_name(scheduler or trace.scheduler)
    churn, fault_model, retry_policy = fault_objects_from_spec(
        trace.capacities, trace.faults
    )
    if churn is not None and trace.churn is not None:
        raise ReplayError(
            "trace header sets both a capacity fault (faults.outage / "
            "faults.availability) and a churn schedule; a run has one "
            "capacity timeline"
        )
    if churn is None:
        churn = trace.churn_schedule()
    engine_name = engine or get_default_engine()
    sim = engine_class(engine_name)(
        machine,
        sched,
        JobSet([], num_categories=machine.num_categories),
        seed=trace.seed,
        record_trace=record_trace,
        validate=validate,
        fault_model=fault_model,
        retry_policy=retry_policy,
        churn=churn,
        max_stall_steps=max_stall_steps,
    )
    for i, rec in enumerate(trace.records):
        sim.advance_until(int(rec["t"]))
        try:
            if rec["kind"] == "submit":
                job = _job_for(rec)
                sim.inject_job(job, release_time=int(rec["release"]))
            else:
                sim.cancel_pending(int(rec["job_id"]))
        except Exception as exc:
            raise ReplayError(
                f"record {i} ({rec['kind']}) could not be replayed: {exc}"
            ) from exc
    # per-step feasibility (check_allotments) is the constructor's
    # ``validate``; run(validate=True) would re-validate the schedule
    # against the constructor jobset, which is empty for injected jobs
    result = sim.run()
    digests = result.trace.step_digests() if result.trace else []
    sched_digest = result.trace.content_digest() if result.trace else ""
    return ReplayOutcome(
        engine=engine_name,
        result=result,
        step_digests=digests,
        schedule_digest=sched_digest,
        state_digest=int(sim.digest()),
    )


def _job_for(rec: dict):
    from repro.io.serialize import job_from_dict

    job = job_from_dict(rec["job"])
    job.release_time = int(rec["release"])
    return job


def replay_compare(
    trace: WorkloadTrace,
    *,
    engines: tuple[str, ...] = ("reference", "fast"),
    scheduler: str | None = None,
    validate: bool = False,
) -> dict[str, ReplayOutcome]:
    """Replay ``trace`` through every engine and prove them identical.

    Compares per-step schedule digests pairwise against the first
    engine; on divergence raises :class:`ReplayError` carrying the
    first differing step (or ``step=None`` when the step counts
    disagree).  Returns ``{engine: outcome}`` on success.
    """
    if len(engines) < 2:
        raise ReplayError(
            f"replay_compare needs at least two engines, got {engines!r}"
        )
    outcomes = {
        name: replay(
            trace, engine=name, scheduler=scheduler,
            record_trace=True, validate=validate,
        )
        for name in engines
    }
    ref_name = engines[0]
    ref = outcomes[ref_name]
    for name in engines[1:]:
        other = outcomes[name]
        if len(other.step_digests) != len(ref.step_digests):
            raise ReplayError(
                f"{name} replay ran {len(other.step_digests)} steps, "
                f"{ref_name} ran {len(ref.step_digests)}",
            )
        for step, (a, b) in enumerate(
            zip(ref.step_digests, other.step_digests), start=1
        ):
            if a != b:
                raise ReplayError(
                    f"{name} replay diverges from {ref_name} at step "
                    f"{step}: {b[:12]} != {a[:12]}",
                    step=step,
                )
        if other.state_digest != ref.state_digest:
            raise ReplayError(
                f"{name} terminal state digest {other.state_digest} != "
                f"{ref_name} {ref.state_digest} despite identical "
                "schedules",
            )
    return outcomes
