"""Failure injection: capacity faults and task/job fault models.

Two orthogonal failure surfaces compose with every scheduler in the
repository:

* *Capacity faults* take processors away: :func:`periodic_outage` (a
  recurring maintenance window) and :func:`RandomDegradation` (random
  per-step availability) build :class:`~repro.machine.churn.ChurnSchedule`\\ s
  that only remove processors, so they run, journal and recover exactly
  like any other churn.  Capacities may drop all the way to **0** — a
  full-category outage; the engine absorbs the resulting zero-progress
  steps as *stalls* (bounded by ``max_stall_steps``) instead of crashing.
* A :class:`FaultModel` acts on the work itself: it can fail individual
  unit tasks after they executed (the work is wasted and the task re-enters
  the ready frontier) and kill whole jobs (resubmitted as fresh copies by a
  :class:`~repro.sim.retry.RetryPolicy`, or lost permanently without one).

All generators are deterministic functions of ``t`` (random ones derive
per-step child RNGs from a seed), so runs remain exactly reproducible and
checkpoint/resume cannot diverge.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.errors import SimulationError
from repro.machine.churn import ChurnEvent, ChurnSchedule, step_rng

__all__ = [
    "periodic_outage",
    "RandomDegradation",
    "FaultModel",
    "TaskFailures",
    "JobKiller",
    "ScriptedKills",
    "CompositeFaultModel",
    "fault_spec",
    "fault_objects_from_spec",
]


# ----------------------------------------------------------------------
# capacity faults (churn that only removes processors)
# ----------------------------------------------------------------------
def periodic_outage(
    nominal: Sequence[int],
    category: int,
    *,
    period: int,
    duration: int,
    degraded: int = 1,
) -> ChurnSchedule:
    """Every ``period`` steps, ``category`` drops to ``degraded`` processors
    for ``duration`` steps (a recurring maintenance window).

    ``degraded`` may be **0**: the category goes completely dark for the
    window and the engine counts the resulting zero-progress steps as
    stalls rather than failing.

    Returns a :class:`ChurnSchedule` for ``Simulator(churn=...)``.
    """
    nominal = tuple(int(c) for c in nominal)
    if not 0 <= category < len(nominal):
        raise SimulationError(
            f"category {category} out of range for {len(nominal)} categories"
        )
    if period < 1 or duration < 0 or duration > period:
        raise SimulationError(
            f"need 1 <= duration <= period; got period={period}, "
            f"duration={duration}"
        )
    if not 0 <= degraded <= nominal[category]:
        raise SimulationError(
            f"degraded capacity {degraded} must be in [0, "
            f"{nominal[category]}] (0 = full outage)"
        )
    if duration == 0 or degraded == nominal[category]:
        return ChurnSchedule(nominal)
    delta = degraded - nominal[category]
    window = ChurnEvent(1, category, delta, duration, period)
    return ChurnSchedule(nominal, [window])


def RandomDegradation(
    nominal: Sequence[int], *, availability: float = 0.8, seed: int = 0
) -> ChurnSchedule:
    """Each step, each category independently keeps a binomial fraction of
    its processors with survival probability ``availability``.

    A category may lose **every** processor for a step (and with
    ``availability=0.0`` the whole machine goes dark); the engine's stall
    accounting absorbs such steps.  Deterministic given ``seed``: the
    step's draw comes from a per-step child RNG, so the schedule is a
    pure function of ``t`` no matter the call order.
    """
    return ChurnSchedule(nominal, availability=availability, seed=seed)


# ----------------------------------------------------------------------
# task/job fault models
# ----------------------------------------------------------------------
class FaultModel:
    """Base class for task- and job-level fault injection.

    The engine consults a fault model once per executed step:

    * :meth:`task_failures` receives the step's executed task map and
      returns the subset that *failed* — their work is wasted, the tasks
      re-enter the ready frontier, and the owning job is not complete
      until they re-execute;
    * :meth:`job_kills` receives the live job ids and returns those to
      kill — all work of the current attempt is wasted and the job is
      resubmitted per the run's :class:`~repro.sim.retry.RetryPolicy`
      (or lost permanently without one).

    Both default to "no faults"; subclasses override what they need.
    Implementations must be deterministic functions of ``t`` (use
    per-step child RNGs) so runs stay reproducible and resumable.
    """

    def task_failures(
        self, t: int, executed: Mapping[int, list[list[int]]]
    ) -> dict[int, list[list[int]]]:
        """``job_id -> per-category failed task ids`` (subsets of
        ``executed``).  Jobs/categories with no failures may be omitted."""
        return {}

    def job_kills(self, t: int, alive: Sequence[int]) -> Iterable[int]:
        """Job ids (among ``alive``) killed at step ``t``."""
        return ()


class TaskFailures(FaultModel):
    """Each executed unit task independently fails with probability
    ``rate`` (work wasted, task re-enqueued).

    The draw for step ``t`` comes from a per-step child RNG over the
    executed tasks in (job id, category, position) order, so failures are
    a pure function of ``(seed, t, executed)``.
    """

    def __init__(self, rate: float, *, seed: int = 0) -> None:
        if not 0.0 <= rate < 1.0:
            raise SimulationError(
                f"task failure rate must be in [0, 1), got {rate}"
            )
        self.rate = float(rate)
        self.seed = int(seed)

    def task_failures(self, t, executed):
        if self.rate == 0.0:
            return {}
        rng = step_rng(self.seed, t)
        out: dict[int, list[list[int]]] = {}
        for jid in sorted(executed):
            per_cat = executed[jid]
            failed = [
                [v for v in tasks if rng.random() < self.rate]
                for tasks in per_cat
            ]
            if any(failed):
                out[jid] = failed
        return out


class JobKiller(FaultModel):
    """Each live job independently dies with probability ``rate`` per step
    (process crash, node loss): the whole attempt's work is wasted."""

    def __init__(self, rate: float, *, seed: int = 0) -> None:
        if not 0.0 <= rate < 1.0:
            raise SimulationError(
                f"job kill rate must be in [0, 1), got {rate}"
            )
        self.rate = float(rate)
        self.seed = int(seed)

    def job_kills(self, t, alive):
        if self.rate == 0.0:
            return ()
        rng = step_rng(self.seed, t)
        return [jid for jid in sorted(alive) if rng.random() < self.rate]


class ScriptedKills(FaultModel):
    """Kill specific jobs at specific steps: ``{step: [job ids]}``.

    The deterministic workhorse for tests and certificates — no RNG at
    all.  A scheduled kill is a no-op if the job is not alive at that step
    (already finished, not yet released, or previously killed and waiting
    out its backoff).
    """

    def __init__(self, kills: Mapping[int, Sequence[int]]) -> None:
        self.kills = {
            int(t): tuple(int(j) for j in jids) for t, jids in kills.items()
        }
        for t in self.kills:
            if t < 1:
                raise SimulationError(f"kill step must be >= 1, got {t}")

    def job_kills(self, t, alive):
        alive_set = set(alive)
        return [j for j in self.kills.get(t, ()) if j in alive_set]


class CompositeFaultModel(FaultModel):
    """Union of several fault models (task failures and kills combined)."""

    def __init__(self, models: Sequence[FaultModel]) -> None:
        self.models = tuple(models)

    def task_failures(self, t, executed):
        out: dict[int, list[list[int]]] = {}
        for model in self.models:
            for jid, per_cat in model.task_failures(t, executed).items():
                if jid not in out:
                    out[jid] = [list(tasks) for tasks in per_cat]
                    continue
                merged = out[jid]
                for alpha, tasks in enumerate(per_cat):
                    present = set(merged[alpha])
                    merged[alpha].extend(
                        v for v in tasks if v not in present
                    )
        return out

    def job_kills(self, t, alive):
        killed: list[int] = []
        seen: set[int] = set()
        for model in self.models:
            for jid in model.job_kills(t, alive):
                if jid not in seen:
                    seen.add(jid)
                    killed.append(jid)
        return killed


# ----------------------------------------------------------------------
# declarative fault specs (serialisable; workload traces and the CLI)
# ----------------------------------------------------------------------
def fault_spec(
    *,
    task_fail_rate: float = 0.0,
    kill_rate: float = 0.0,
    availability: float | None = None,
    outage: str | None = None,
    max_attempts: int | None = None,
    seed: int = 0,
) -> dict | None:
    """A plain-JSON description of a fault configuration, or ``None``.

    The shipped fault hooks are pure functions of ``(seed, step)``, so
    this spec is all a workload trace needs to rebuild the *identical*
    hooks on replay (``outage`` uses the CLI's ``PERIOD:DURATION[:DEG]``
    string form).  Returns ``None`` when every field is inert — a
    fault-free run records no fault block at all.
    """
    if outage is not None and availability is not None:
        raise SimulationError(
            "outage and availability are mutually exclusive; "
            "pick one capacity-fault mode"
        )
    if max_attempts is not None and kill_rate <= 0:
        raise SimulationError(
            "max_attempts only governs killed-job retries; "
            "it needs kill_rate > 0"
        )
    spec = {
        "task_fail_rate": float(task_fail_rate),
        "kill_rate": float(kill_rate),
        "availability": (
            float(availability) if availability is not None else None
        ),
        "outage": str(outage) if outage is not None else None,
        "max_attempts": (
            int(max_attempts) if max_attempts is not None else None
        ),
        "seed": int(seed),
    }
    inert = (
        spec["task_fail_rate"] == 0.0
        and spec["kill_rate"] == 0.0
        and spec["availability"] is None
        and spec["outage"] is None
    )
    return None if inert else spec


def fault_objects_from_spec(capacities: Sequence[int], spec: Mapping | None):
    """Rebuild engine fault hooks from a :func:`fault_spec` document.

    Returns ``(churn, fault_model, retry_policy)`` — the capacity fault
    as a :class:`ChurnSchedule` (or ``None``) plus the hooks
    :class:`~repro.sim.engine.Simulator` takes.  Building twice from the
    same spec yields behaviourally identical hooks (pure in ``(seed,
    step)``), which is what bit-identical trace replay relies on.
    """
    if spec is None:
        return None, None, None
    from repro.sim.retry import RetryPolicy

    spec = dict(spec)
    seed = int(spec.get("seed", 0))
    task_fail_rate = float(spec.get("task_fail_rate", 0.0) or 0.0)
    kill_rate = float(spec.get("kill_rate", 0.0) or 0.0)
    availability = spec.get("availability")
    outage = spec.get("outage")
    max_attempts = spec.get("max_attempts")
    if outage is not None and availability is not None:
        raise SimulationError(
            "fault spec sets both outage and availability; they are "
            "mutually exclusive capacity-fault modes"
        )

    churn = None
    if outage is not None:
        parts = [int(p) for p in str(outage).split(":")]
        if len(parts) not in (2, 3):
            raise SimulationError(
                f"outage spec wants PERIOD:DURATION[:DEGRADED], got "
                f"{outage!r}"
            )
        period, duration, degraded = (parts + [1])[:3]
        churn = periodic_outage(
            capacities, 0, period=period, duration=duration, degraded=degraded
        )
    elif availability is not None:
        churn = RandomDegradation(
            capacities, availability=float(availability), seed=seed
        )

    models: list[FaultModel] = []
    if task_fail_rate > 0:
        models.append(TaskFailures(task_fail_rate, seed=seed))
    if kill_rate > 0:
        models.append(JobKiller(kill_rate, seed=seed))
    fault_model: FaultModel | None = None
    if len(models) == 1:
        fault_model = models[0]
    elif models:
        fault_model = CompositeFaultModel(models)

    attempts = int(max_attempts) if max_attempts is not None else 3
    retry_policy = (
        RetryPolicy(max_attempts=attempts)
        if fault_model is not None and attempts > 1
        else None
    )
    return churn, fault_model, retry_policy
