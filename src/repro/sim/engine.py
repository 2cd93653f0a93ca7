"""The discrete-time simulation engine.

Each 1-based time step proceeds in four phases, mirroring the paper's model
exactly:

1. **arrivals** — jobs with ``release_time < t`` become available (a job
   released at ``r`` may first execute at step ``r + 1``, so ``|R(Jk)| =
   r(Jk)`` as in Lemma 2);
2. **desires** — every available, uncompleted job reports its instantaneous
   per-category parallelism;
3. **allotment** — the scheduler maps desires to processor counts, verified
   against capacity and productivity constraints;
4. **execution** — each job runs its allotted processors for one unit step;
   the execution-order policy picks *which* ready tasks run.

Idle intervals (no job available, later releases pending) are fast-forwarded
in O(1), so sparse arrival patterns cost nothing.

On a machine with per-category speeds (``KResourceMachine(...,
speeds=...)``) execution runs ``max_speed`` micro-rounds per step: round
``r`` runs the categories with speed ``> r``, so a fast processor chains
through dependent work within its step.  At unit speed the execution
phase is exactly the paper's.

Fault tolerance (all optional, all deterministic):

* ``churn`` is the one capacity timeline: elastic
  :class:`~repro.machine.churn.ChurnEvent` changes, recurring outage
  windows and random availability (the capacity faults of
  :mod:`repro.sim.faults`), down to **0** (full category outage);
  resulting zero-progress steps are counted as *stalls* and bounded by
  ``max_stall_steps`` instead of crashing the run.  Capacity may also
  *grow* past the nominal count; the scheduler is notified of every
  boundary so RAD's DEQ/RR state machine migrates instead of resetting;
* ``fault_model`` fails individual executed tasks (work wasted, task
  re-enqueued) and kills whole jobs;
* ``retry_policy`` resubmits killed jobs as fresh copies after exponential
  backoff, up to an attempt cap — exhausted jobs are reported in
  ``SimulationResult.failed_jobs``;
* :meth:`Simulator.checkpoint` / :meth:`Simulator.restore` snapshot the
  full mid-run state (engine, scheduler, jobs, RNG, trace) so an
  interrupted-and-resumed run produces a bitwise-identical result.

Supervised execution (all optional, all deterministic):

* ``supervisor`` evaluates runtime invariant monitors after every step —
  ``strict`` mode raises :class:`~repro.errors.InvariantViolation`,
  ``resilient`` mode quarantines the offending job and records a
  structured :class:`~repro.sim.supervisor.Incident`;
* ``journal`` write-ahead-logs every step (CRC-framed) with periodic
  checkpoint records: the first is the full :meth:`Simulator.checkpoint`
  document, every later one carries only the live state plus the history
  appended since the previous record.  The records that make a promise
  (header, checkpoints, submissions, cancellations, the end) are fsync'd;
  step records reach disk with the next fsync.  :meth:`Simulator.recover`
  rebuilds a crashed run from the journal, truncates torn tails, folds the
  checkpoint records, replays to the last valid record with digest
  verification, and resumes bit-for-bit.

The engine is deterministic given (job set, scheduler, policy, seed,
churn schedule, fault model, retry policy, supervisor).
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_left, insort
from itertools import islice
from operator import attrgetter
from numbers import Integral
from time import perf_counter
from zlib import crc32

import numpy as np

from repro.errors import (
    JournalError,
    SerializationError,
    SimulationError,
)
from repro.jobs.base import Job
from repro.jobs.jobset import JobSet
from repro.jobs.policies import FIFO, ExecutionPolicy
from repro.machine.churn import ChurnSchedule
from repro.machine.machine import KResourceMachine
from repro.obs import Observability, get_default_obs
from repro.schedulers.base import Scheduler, check_allotments
from repro.sim.results import SimulationResult
from repro.sim.supervisor import Incident, StepView, Supervisor
from repro.sim.trace import StepRecord, Trace

__all__ = [
    "ENGINE_NAMES",
    "Simulator",
    "engine_class",
    "get_default_engine",
    "set_default_engine",
    "simulate",
]

#: the selectable simulation substrates (``simulate(..., engine=...)``)
ENGINE_NAMES = ("reference", "fast")

_DEFAULT_ENGINE = "reference"

#: the order of the pending list: unarrived jobs by (release, id)
_release_order = attrgetter("release_time", "job_id")

#: version 4 keeps only unarrived jobs in ``jobs`` (arrived ones live in
#: ``alive`` or the history maps) and carries the ``history`` CRC; a
#: version-3 document lists every job ever submitted
_CHECKPOINT_VERSION = 4

#: top-level / engine keys a checkpoint document must carry, with the type
#: each holds; validated up front so a malformed document fails with a
#: clear SerializationError instead of a KeyError or TypeError deep in
#: deserialization (``object``: any value)
_CHECKPOINT_KEYS = {
    "machine": dict,
    "scheduler": dict,
    "rng": dict,
    "engine": dict,
    "jobs": list,
    "alive": list,
    "resubmit": list,
    "quarantined": list,
    "arrived": list,
    "trace": (dict, type(None)),
}
_ENGINE_KEYS = {
    "t": Integral,
    "arrived": Integral,
    "idle_steps": Integral,
    "stall_steps": Integral,
    "stall_run": Integral,
    "longest_stall": Integral,
    "makespan": Integral,
    "busy": list,
    "wasted": list,
    "completion": dict,
    "release": dict,
    "attempts": dict,
    "failed_jobs": list,
    "max_steps": Integral,
    "max_stall_steps": Integral,
    "validate": object,
    "has_fault_model": object,
    "has_churn": object,
    "has_supervisor": object,
    "last_caps": list,
    "incidents": list,
    "quarantined_ids": list,
    "history": Integral,
}
_SCHEDULER_KEYS = {"name": str, "state": object}

#: history kinds of a delta record, each a list of ids (1), of
#: ``[id, value]`` pairs (2) or of objects (``dict``)
_HISTORY_KINDS = {
    "completion": 2,
    "release": 2,
    "unrelease": 1,
    "attempts": 2,
    "failed": 1,
    "incidents": dict,
    "quarantined": dict,
    "arrived": dict,
}

#: sections of a journal checkpoint-delta record: the live state, which
#: replaces the folded document's, plus the appended ``history``
_DELTA_KEYS = {
    "engine": dict,
    "scheduler": dict,
    "rng": dict,
    "jobs": list,
    "alive": list,
    "resubmit": list,
    "trace": (dict, type(None)),
    "history": dict,
}
#: the engine counters a delta record carries (the rest never change)
_DELTA_ENGINE_KEYS = {
    key: _ENGINE_KEYS[key]
    for key in (
        "t",
        "arrived",
        "idle_steps",
        "stall_steps",
        "stall_run",
        "longest_stall",
        "makespan",
        "busy",
        "wasted",
        "max_steps",
        "last_caps",
        "history",
    )
}


def _check_section(doc: dict, keys: dict, where: str) -> None:
    """Raise SerializationError unless ``doc`` holds every key, typed."""
    missing = [k for k in keys if k not in doc]
    if missing:
        raise SerializationError(f"{where} is missing keys {missing}")
    wrong = [k for k, kind in keys.items() if not isinstance(doc[k], kind)]
    if wrong:
        raise SerializationError(f"{where} has wrongly typed keys {wrong}")


def _check_checkpoint(data) -> None:
    """Raise SerializationError unless ``data`` is a readable checkpoint."""
    if not isinstance(data, dict) or data.get("format") != "checkpoint":
        raise SerializationError("expected a checkpoint document")
    if data.get("version") != _CHECKPOINT_VERSION:
        raise SerializationError(
            f"unsupported checkpoint version {data.get('version')!r} "
            f"(this build reads version {_CHECKPOINT_VERSION})"
        )
    _check_section(data, _CHECKPOINT_KEYS, "checkpoint document")
    _check_section(data["engine"], _ENGINE_KEYS, "checkpoint engine section")
    _check_section(
        data["scheduler"], _SCHEDULER_KEYS, "checkpoint scheduler section"
    )


def _is_delta(data) -> bool:
    return isinstance(data, dict) and (
        data.get("format") == "checkpoint-delta"
    )


def _entries_ok(entries, shape) -> bool:
    """Is ``entries`` a list of ids (1), id pairs (2) or objects (dict)?"""
    if not isinstance(entries, list):
        return False
    if shape is dict:
        return all(isinstance(e, dict) for e in entries)
    if shape == 1:
        return all(type(e) is int for e in entries)
    return all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)
        for e in entries
    )


def _fold_delta(doc: dict, delta, where: str) -> None:
    """Fold one journal checkpoint-delta record onto a full document.

    The delta's live sections replace the document's; its history
    entries extend the document's history maps and lists.  A malformed
    record raises :class:`~repro.errors.JournalError` naming ``where``.
    """
    _check_checkpoint(doc)
    if not isinstance(delta, dict):
        raise JournalError(f"{where} is not a JSON object")
    try:
        _check_section(delta, _DELTA_KEYS, where)
        _check_section(
            delta["engine"], _DELTA_ENGINE_KEYS, f"{where} engine section"
        )
    except SerializationError as exc:
        raise JournalError(str(exc)) from None
    history = delta["history"]
    unknown = sorted(set(history) - set(_HISTORY_KINDS))
    if unknown:
        raise JournalError(f"{where} has unknown history kinds {unknown}")
    bad = [
        k for k, v in history.items() if not _entries_ok(v, _HISTORY_KINDS[k])
    ]
    if bad:
        raise JournalError(f"{where} has malformed history entries {bad}")
    quarantined = []
    for snap in history.get("quarantined", ()):
        static = snap.get("static")
        jid = static.get("job_id") if isinstance(static, dict) else None
        if type(jid) is not int:
            raise JournalError(
                f"{where} has a quarantined job without an integer id"
            )
        quarantined.append(jid)

    eng = doc["engine"]
    for key in _DELTA_ENGINE_KEYS:
        eng[key] = delta["engine"][key]
    for key in ("scheduler", "rng", "jobs", "alive", "resubmit", "trace"):
        doc[key] = delta[key]
    completion, release = eng["completion"], eng["release"]
    for jid, t in history.get("completion", ()):
        completion[str(jid)] = t
    for jid in history.get("unrelease", ()):
        release.pop(str(jid), None)
    for jid, r in history.get("release", ()):
        release.pop(str(jid), None)
        release[str(jid)] = r
    for jid, n in history.get("attempts", ()):
        eng["attempts"][str(jid)] = n
    eng["failed_jobs"].extend(history.get("failed", ()))
    eng["incidents"].extend(history.get("incidents", ()))
    doc["quarantined"].extend(history.get("quarantined", ()))
    eng["quarantined_ids"] = sorted(eng["quarantined_ids"] + quarantined)
    doc["arrived"].extend(history.get("arrived", ()))


def engine_class(name: str | None = None) -> "type[Simulator]":
    """Resolve an engine name to its :class:`Simulator` class.

    ``"reference"`` is the canonical step loop below; ``"fast"`` is the
    vectorised drop-in in :mod:`repro.sim.fastengine`, proven bit-identical
    by the differential conformance suite.  ``None`` uses the process-wide
    default (see :func:`set_default_engine`).
    """
    if name is None:
        name = _DEFAULT_ENGINE
    if name == "reference":
        return Simulator
    if name == "fast":
        from repro.sim.fastengine import FastSimulator

        return FastSimulator
    raise SimulationError(
        f"unknown engine {name!r}; choose from {ENGINE_NAMES}"
    )


def set_default_engine(name: str) -> None:
    """Set the process-wide engine used when ``engine`` is not given.

    The CLI's ``--engine`` flag routes through here so every
    ``simulate()`` call in an experiment picks up the selection.
    """
    global _DEFAULT_ENGINE
    if name not in ENGINE_NAMES:
        raise SimulationError(
            f"unknown engine {name!r}; choose from {ENGINE_NAMES}"
        )
    _DEFAULT_ENGINE = name


def get_default_engine() -> str:
    return _DEFAULT_ENGINE


class _RunState:
    """Mutable mid-run state of one simulation (checkpointable)."""

    __slots__ = (
        "t",
        "pending",
        "arrived",
        "alive",
        "completion",
        "release",
        "busy",
        "wasted",
        "idle_steps",
        "stall_steps",
        "stall_run",
        "longest_stall",
        "makespan",
        "attempts",
        "failed_jobs",
        "resubmit",
        "trace",
        "last_caps",
        "incidents",
        "quarantined",
        "history",
        "arrived_jobs",
    )

    def __init__(self) -> None:
        self.t = 0
        #: unarrived jobs only, in (release, id) order; arrivals leave it
        self.pending: list[Job] = []
        #: how many jobs have arrived from ``pending``
        self.arrived = 0
        self.alive: dict[int, Job] = {}
        self.completion: dict[int, int] = {}
        self.release: dict[int, int] = {}
        self.busy: np.ndarray | None = None
        self.wasted: np.ndarray | None = None
        self.idle_steps = 0
        self.stall_steps = 0
        self.stall_run = 0
        self.longest_stall = 0
        self.makespan = 0
        self.attempts: dict[int, int] = {}
        self.failed_jobs: list[int] = []
        self.resubmit: list[tuple[int, int, Job]] = []
        self.trace: Trace | None = None
        #: effective capacities of the previous step (boundary detection)
        self.last_caps: tuple[int, ...] = ()
        #: incidents absorbed in resilient supervision mode (plain dicts)
        self.incidents: list[dict] = []
        #: jobs pulled from the live set by the supervisor
        self.quarantined: dict[int, Job] = {}
        #: running CRC32 over the history events as they happen
        #: (completions, retries, failures, quarantines, incidents), so
        #: the step digest covers the history without re-encoding it
        self.history = 0
        #: the arrived jobs of a trace-recording run, whose static
        #: definitions a restored run needs to validate its trace
        self.arrived_jobs: list[Job] = []


def _fold_completions(history: int, t: int, jids: list[int]) -> int:
    """Fold one step's completions into the history CRC, by job id."""
    for jid in sorted(jids):
        history = crc32(b"c%d,%d;" % (jid, t), history)
    return history


def _dict_tail(d: dict, n: int) -> list:
    """The items of ``d`` after its first ``n``, in insertion order."""
    return list(islice(reversed(d.items()), len(d) - n))[::-1]


class _HistorySince:
    """The history a run appended since its last journal checkpoint record.

    Lengths of the append-only parts (completion and quarantine maps,
    failure and incident lists, a traced run's arrived jobs) plus the ids
    whose release or attempt count changed, in order of last change.
    Exists only while a journal is attached, so an unjournaled step pays
    nothing for it.
    """

    __slots__ = (
        "completion",
        "failed",
        "incidents",
        "quarantined",
        "arrived",
        "release",
        "attempts",
    )

    def __init__(self, st: _RunState) -> None:
        self.mark(st)

    def mark(self, st: _RunState) -> None:
        self.completion = len(st.completion)
        self.failed = len(st.failed_jobs)
        self.incidents = len(st.incidents)
        self.quarantined = len(st.quarantined)
        self.arrived = len(st.arrived_jobs)
        self.release: dict[int, None] = {}
        self.attempts: dict[int, None] = {}

    def release_changed(self, jid: int) -> None:
        self.release.pop(jid, None)
        self.release[jid] = None


class Simulator:
    """Runs one job set under one scheduler on one machine.

    Parameters
    ----------
    machine, scheduler, jobset:
        The triple under study.  The job set is executed **in place** — pass
        ``jobset.fresh_copy()`` to keep the original reusable.
    policy:
        Execution-order policy (default FIFO).  ``CP_LAST`` realises the
        Theorem-1 adversary, ``CP_FIRST`` the clairvoyant hero.
    seed:
        Only needed for randomised policies.
    record_trace:
        Keep the full schedule (memory ~ total work); required for validity
        checking and Gantt rendering.  Not available on a machine with
        speeds above 1: a Section-2 trace holds one task per processor
        per step.
    max_steps:
        Safety valve; defaults to a generous bound derived from total work,
        spans and releases — exceeding it means a scheduler is not making
        progress.  When a churn schedule or fault model is present the
        default is scaled up substantially (degradation and rework can
        legitimately stretch a run far past the nominal bound).
    validate:
        Verify every allotment against the model constraints (cheap; on by
        default).
    on_step:
        Optional instrumentation hook ``on_step(t, alive)`` called after
        each step's execution with the step number and the dict of live
        (uncompleted, pre-removal) jobs — used by the proof certifiers in
        :mod:`repro.theory.induction` and free-form diagnostics.  The hook
        must not mutate the jobs.
    fault_model:
        Optional :class:`~repro.sim.faults.FaultModel` failing executed
        tasks (work wasted, re-enqueued) and/or killing whole jobs.
    retry_policy:
        Optional :class:`~repro.sim.retry.RetryPolicy` governing
        resubmission of killed jobs (fresh copy, exponential backoff,
        attempt cap).  Without one, killed jobs are lost permanently.
    supervisor:
        Optional :class:`~repro.sim.supervisor.Supervisor` evaluating
        runtime invariant monitors after each step.  ``strict`` mode
        raises :class:`~repro.errors.InvariantViolation` on the first
        breach; ``resilient`` mode quarantines the offending job, logs a
        structured incident, and keeps going.
    churn:
        Optional :class:`~repro.machine.churn.ChurnSchedule`: the per-step
        capacities (elastic changes that may exceed the nominal machine,
        outage windows and random availability that may reach 0).  The
        scheduler is re-bound to each step's view with its state intact;
        metrics use the nominal machine, so outages surface as idle
        capacity and stalls.  The nominal capacities of the schedule must
        match the machine's.  Trace recording uses the peak envelope so
        every realized step fits.
    journal:
        Optional :class:`~repro.sim.journal.Journal` write-ahead log:
        run metadata + an immediate full checkpoint at start, a digest
        record per step, a checkpoint-delta record (live state plus the
        history since the previous checkpoint record) every
        ``journal.checkpoint_every`` steps, and an ``end`` record at
        completion.  See :meth:`Simulator.recover`.
    max_stall_steps:
        Upper bound on *consecutive* zero-progress steps while jobs are
        live (only reachable under churn / fault models);
        exceeding it aborts the run — the safety valve for a machine that
        never recovers.
    obs:
        Optional :class:`~repro.obs.Observability` telemetry bundle
        (event bus + metrics + profiler).  ``None`` falls back to the
        process default (:func:`repro.obs.set_default_obs`, what the
        CLI's ``--obs-out`` installs).  Strictly read-only: traces,
        digests and checkpoints are byte-identical with it on or off.
    """

    #: engine identifier reported by diagnostics (the fast engine overrides)
    engine_name = "reference"

    def __init__(
        self,
        machine: KResourceMachine,
        scheduler: Scheduler,
        jobset: JobSet,
        *,
        policy: ExecutionPolicy = FIFO,
        seed: int | None = None,
        record_trace: bool = False,
        max_steps: int | None = None,
        validate: bool = True,
        on_step=None,
        fault_model=None,
        retry_policy=None,
        supervisor: Supervisor | None = None,
        churn: ChurnSchedule | None = None,
        journal=None,
        max_stall_steps: int = 1000,
        obs: Observability | None = None,
    ) -> None:
        if jobset.num_categories != machine.num_categories:
            raise SimulationError(
                f"job set K={jobset.num_categories} != machine "
                f"K={machine.num_categories}"
            )
        if max_stall_steps < 1:
            raise SimulationError(
                f"max_stall_steps must be >= 1, got {max_stall_steps}"
            )
        if churn is not None and churn.nominal != machine.capacities:
            raise SimulationError(
                f"churn schedule nominal {churn.nominal} != machine "
                f"capacities {machine.capacities}"
            )
        #: micro-rounds per step (1 = the paper's unit-time execution)
        self._max_speed = machine.max_speed
        if record_trace and self._max_speed > 1:
            raise SimulationError(
                f"record_trace needs unit speeds, got {machine.speeds}: a "
                "Section-2 trace holds one task per processor per step"
            )
        self._machine = machine
        self._scheduler = scheduler
        self._jobset = jobset
        self._policy = policy
        self._rng = np.random.default_rng(seed)
        self._record_trace = record_trace
        self._validate = validate
        self._on_step = on_step
        self._fault_model = fault_model
        self._retry_policy = retry_policy
        self._max_stall_steps = int(max_stall_steps)
        self._supervisor = supervisor
        self._churn = churn
        self._journal = journal
        self._journal_started = False
        #: history appended since the last journal checkpoint record
        #: (None while no journal is attached)
        self._since: _HistorySince | None = None
        # Observability is read-only telemetry: it never touches the RNG,
        # the scheduler, job state, checkpoints or digests, so results
        # are byte-identical with it on or off (tests/test_obs.py).
        self._obs = obs if obs is not None else get_default_obs()
        self._obs_w0 = 0.0
        self._obs_prev_alloc: dict | list | None = None
        self._obs_prev_trans: list[dict] | None = None
        # memoised sum(last_caps): the tuple object only changes when
        # capacity actually changes, so identity is the cache key
        self._obs_caps_key: tuple | None = None
        self._obs_caps_total = 0
        self._faulty = fault_model is not None or churn is not None
        if max_steps is None:
            work = int(jobset.total_work_vector().sum())
            span = int(jobset.spans().sum())
            release = int(jobset.release_times().max(initial=0))
            # Any work-conserving schedule finishes within work+span steps
            # per job even serialised; double it for slack.
            max_steps = 2 * (work + span + release) + 16
            if self._faulty:
                # Degraded capacity stretches execution and faults force
                # rework, so the nominal bound would fire spuriously (a
                # 0.1-availability schedule alone is a ~10x slowdown).
                # Stay a safety valve, just a far more generous one; dead
                # time is separately bounded by max_stall_steps.
                max_steps = 32 * max_steps + self._max_stall_steps
        self._max_steps = int(max_steps)
        self._state: _RunState | None = None
        self._result: SimulationResult | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._state is not None:
            return
        jobs = self._jobset.jobs
        already_done = [j.job_id for j in jobs if j.is_complete]
        if already_done:
            raise SimulationError(
                f"jobs {already_done[:5]} have already executed; simulate a "
                "fresh copy (jobset.fresh_copy()) instead of re-running"
            )
        self._scheduler.reset(self._machine)
        k = self._machine.num_categories
        st = _RunState()
        # Pending jobs sorted by (release, id); alive keeps arrival order.
        st.pending = sorted(jobs, key=_release_order)
        st.release = {j.job_id: j.release_time for j in jobs}
        st.busy = np.zeros(k, dtype=np.int64)
        st.wasted = np.zeros(k, dtype=np.int64)
        st.last_caps = self._machine.capacities
        # Under churn a category may exceed its nominal count, so the
        # trace is dimensioned by the peak envelope — every realized
        # step's processor indices fit.
        trace_caps = (
            self._churn.peak_capacities()
            if self._churn is not None
            else self._machine.capacities
        )
        st.trace = (
            Trace(num_categories=k, capacities=trace_caps)
            if self._record_trace
            else None
        )
        self._state = st
        if self._obs is not None:
            self._obs.on_run_start(
                engine=self.engine_name,
                scheduler=self._scheduler.name,
                capacities=self._machine.capacities,
                num_jobs=len(jobs),
            )
        if self._journal is not None and not self._journal_started:
            # Write-ahead header: run metadata (enough to rebuild the
            # supervisor/churn/policy on recovery) plus an immediate full
            # checkpoint, so even a journal torn on its first steps
            # restores to a well-defined state.
            self._journal_started = True
            self._journal_put("meta", self._journal_meta())
            self._journal_put("checkpoint", self.checkpoint())
            self._since = _HistorySince(st)

    def _unfinished(self) -> bool:
        st = self._state
        return bool(st.pending) or bool(st.alive) or bool(st.resubmit)

    def _next_release(self) -> int | None:
        """Earliest release among unarrived pending and resubmitted jobs."""
        st = self._state
        candidates = []
        if st.pending:
            candidates.append(st.pending[0].release_time)
        if st.resubmit:
            candidates.append(st.resubmit[0][0])
        return min(candidates) if candidates else None

    def _step_until(self, t_stop: float) -> None:
        """Step while work remains and the clock is before ``t_stop``."""
        while self._unfinished() and self._state.t < t_stop:
            self._step()

    # ------------------------------------------------------------------
    def run(self, *, validate: bool = False) -> SimulationResult:
        """Execute to completion and return the result.

        Jobs are consumed by the run; a second ``run()`` (or passing jobs
        that already executed) raises rather than producing a misleading
        empty schedule — use ``jobset.fresh_copy()`` per run.

        ``validate=True`` additionally proves the *recorded schedule*
        against the Section-2 model via
        :func:`repro.sim.validate.validate_schedule` (requires
        ``record_trace=True``): completeness, precedence, per-category
        capacity and slot uniqueness.  This is the full post-hoc check,
        complementing the per-step allotment check the constructor's
        ``validate`` flag controls.
        """
        if self._result is not None:
            raise SimulationError(
                "this simulator already ran to completion; simulate a "
                "fresh copy (jobset.fresh_copy()) instead of re-running"
            )
        if validate and not self._record_trace:
            raise SimulationError(
                "run(validate=True) needs the recorded schedule; "
                "construct the Simulator with record_trace=True"
            )
        self._ensure_started()
        self._step_until(math.inf)
        result = self._finalize()
        if validate:
            from repro.sim.validate import validate_schedule

            validate_schedule(
                result.trace,
                self._jobset,
                failed_jobs=result.failed_jobs + result.quarantined_jobs,
            )
        return result

    def run_until(self, t_stop: int) -> SimulationResult | None:
        """Advance until the clock passes ``t_stop`` or the run finishes.

        Returns the :class:`SimulationResult` if the run completed, else
        ``None`` — at which point :meth:`checkpoint` snapshots the exact
        mid-run state.  Repeated calls continue the same run.
        """
        if self._result is not None:
            return self._result
        self._ensure_started()
        self._step_until(t_stop)
        if self._unfinished():
            return None
        return self._finalize()

    # ------------------------------------------------------------------
    # online submission (the repro.service layer builds on these)
    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """Current virtual step (0 before the first step executes)."""
        return self._state.t if self._state is not None else 0

    @property
    def finished(self) -> bool:
        """True once the run has been finalized into a result."""
        return self._result is not None

    def advance_until(self, t_stop: int) -> bool:
        """Advance the clock to ``t_stop`` without ever finalizing.

        The online counterpart of :meth:`run_until`: when the system
        drains it simply stops stepping and reports quiescence instead
        of producing a :class:`SimulationResult`, so further
        :meth:`inject_job` calls can keep the same run going.  Returns
        ``True`` when no admitted work remains (quiescent), ``False``
        when it stopped at the time budget with work outstanding.
        """
        if self._result is not None:
            raise SimulationError(
                "this simulator already ran to completion; "
                "advance_until needs a live run"
            )
        self._ensure_started()
        self._step_until(t_stop)
        return not self._unfinished()

    def inject_job(
        self,
        job: Job,
        *,
        release_time: int | None = None,
        meta: dict | None = None,
    ) -> int:
        """Admit one new job into a *running* simulation.

        This is the online-arrival primitive Theorem 3 licenses: K-RAD
        needs no arrival knowledge, so jobs may be appended to the
        pending set while the clock is live.  The job must target the
        same ``K``, carry an id unseen by this run, and release no
        earlier than the current clock (``release_time`` overrides the
        job's own; the past cannot be rewritten).  Returns the effective
        release time.

        Journaled runs write a ``submit`` record (with the optional
        opaque ``meta``, e.g. the owning tenant) so :meth:`recover`
        replays online arrivals in their exact original order.
        """
        if self._result is not None:
            raise SimulationError(
                "cannot inject into a finished run"
            )
        self._ensure_started()
        st = self._state
        if job.num_categories != self._machine.num_categories:
            raise SimulationError(
                f"job {job.job_id} has K={job.num_categories}, machine "
                f"has K={self._machine.num_categories}"
            )
        if job.is_complete:
            raise SimulationError(
                f"job {job.job_id} has already executed; inject a fresh "
                "copy (job.fresh_copy()) instead"
            )
        jid = job.job_id
        # ``release`` holds every pending, live and retrying id (only a
        # cancel, a quarantine or a final failure pops it), so these are
        # O(1) lookups, not scans of the pending list and retry heap.
        if (
            jid in st.release
            or jid in st.completion
            or jid in st.alive
            or jid in st.quarantined
            or jid in st.attempts
        ):
            raise SimulationError(
                f"job id {jid} is already known to this run; submissions "
                "need fresh ids"
            )
        if release_time is not None:
            job.release_time = int(release_time)
        if job.release_time < st.t:
            raise SimulationError(
                f"job {jid} releases at {job.release_time}, before the "
                f"current clock {st.t}; online arrivals cannot rewrite "
                "the past"
            )
        # Keep the unarrived jobs in the (release, id) order the pending
        # list was built with, so the arrival scan stays exact.
        insort(st.pending, job, key=_release_order)
        st.release[jid] = job.release_time
        if self._since is not None:
            self._since.release_changed(jid)
        self._grow_max_steps(job)
        if self._journal is not None:
            from repro.io.serialize import job_snapshot_to_dict

            record = {"t": st.t, "job": job_snapshot_to_dict(job)}
            if meta:
                record["meta"] = dict(meta)
            self._journal_put("submit", record)
        return job.release_time

    def _grow_max_steps(self, job: Job) -> None:
        """Deterministically widen the safety valve for an injected job.

        Mirrors the constructor's bound: add the job's own work+span
        allowance and keep at least the single-job bound implied by its
        release.  Growth is monotone and a pure function of the
        submission sequence, so journal replay reproduces it exactly
        (``max_steps`` is part of every checkpoint).
        """
        work = int(job.work_vector().sum())
        span = int(job.span())
        grow = 2 * (work + span) + 16
        floor = 2 * (work + span + int(job.release_time)) + 16
        if self._faulty:
            grow = 32 * grow
            floor = 32 * floor + self._max_stall_steps
        self._max_steps = max(self._max_steps + grow, floor)

    def cancel_pending(self, job_id: int) -> Job:
        """Withdraw a not-yet-arrived job from a running simulation.

        Only jobs still waiting to arrive can be cancelled —
        once a job has arrived (or is retrying after a kill) its
        execution history is part of the run and cannot be unwound.
        Returns the withdrawn job; raises :class:`SimulationError`
        naming the actual state otherwise.  Journaled runs write a
        ``cancel`` record so recovery replays the withdrawal.
        """
        if self._result is not None:
            raise SimulationError("cannot cancel in a finished run")
        state = self.job_state(job_id)
        if state != "pending":
            raise SimulationError(
                {
                    "running": f"job {job_id} is already running; only "
                    "not-yet-released jobs can be cancelled",
                    "completed": f"job {job_id} already completed",
                    "retrying": f"job {job_id} is retrying after a kill; "
                    "retries cannot be cancelled",
                }.get(state, f"job {job_id} is not pending in this run")
            )
        st = self._state
        # A pending job still releases at its st.release entry, and the
        # pending list is sorted on (release, id).
        i = bisect_left(
            st.pending, (st.release.pop(job_id), job_id), key=_release_order
        )
        job = st.pending.pop(i)
        if self._since is not None:
            self._since.release_changed(job_id)
        if self._journal is not None:
            self._journal_put("cancel", {"t": st.t, "job_id": int(job_id)})
        return job

    def job_state(self, job_id: int) -> str:
        """Lifecycle state of one job id, as seen by the live run.

        One of ``pending`` (admitted, not yet arrived), ``running``
        (arrived, uncompleted), ``retrying`` (killed, awaiting
        resubmission), ``completed``, ``failed`` (retries exhausted or
        no retry policy), ``quarantined``, or ``unknown``.

        Answered from the run's maps, never by scanning the pending list
        or the retry heap: ``release`` holds every pending, live,
        retrying and completed id, and ``attempts`` every id a kill
        touched, so an id in ``release`` that is neither live nor
        completed is retrying if a kill touched it, else pending.
        """
        self._ensure_started()
        st = self._state
        if job_id in st.alive:
            return "running"
        if job_id in st.completion:
            return "completed"
        if job_id in st.release:
            return "retrying" if job_id in st.attempts else "pending"
        if job_id in st.quarantined:
            return "quarantined"
        if job_id in st.failed_jobs:
            return "failed"
        return "unknown"

    def completion_time(self, job_id: int) -> int | None:
        """Completion step of ``job_id``, or ``None`` while unfinished."""
        self._ensure_started()
        return self._state.completion.get(job_id)

    def queue_depths(self) -> dict[str, int]:
        """Aggregate occupancy counters of the live run (id-only; cheap)."""
        self._ensure_started()
        st = self._state
        return {
            "pending": len(st.pending) + len(st.resubmit),
            "running": len(st.alive),
            "completed": len(st.completion),
            "failed": len(st.failed_jobs),
            "quarantined": len(st.quarantined),
        }

    def backlog_vector(self) -> np.ndarray:
        """Remaining work, per category, of every admitted unfinished job.

        Sums live jobs' remaining work plus the full work of unarrived
        pending and resubmitted jobs — the ``W_alpha`` terms of a
        Lemma-2-style completion certificate for the current backlog.
        """
        self._ensure_started()
        st = self._state
        total = np.zeros(self._machine.num_categories, dtype=np.int64)
        for job in st.alive.values():
            total += job.remaining_work_vector()
        for job in st.pending:
            total += job.work_vector()
        for _r, _jid, job in st.resubmit:
            total += job.work_vector()
        return total

    def backlog_span(self) -> int:
        """``max_i (release-slack_i + span_i)`` over the current backlog.

        For live jobs the slack is zero and the span is the remaining
        critical path; for unarrived jobs the slack is how far in the
        future they release.  This is the span term of the Lemma-2
        bound measured from *now* instead of from t=0.
        """
        self._ensure_started()
        st = self._state
        t = st.t
        worst = 0
        for job in st.alive.values():
            worst = max(worst, int(job.remaining_span()))
        for job in st.pending:
            worst = max(
                worst, max(0, job.release_time - t) + int(job.span())
            )
        for r, _jid, job in st.resubmit:
            worst = max(worst, max(0, r - t) + int(job.span()))
        return worst

    # ------------------------------------------------------------------
    def _begin_step(
        self,
    ) -> tuple[int, list[int], tuple[int, ...], KResourceMachine]:
        """Open one time step: the prologue every step kernel shares.

        Starts the step's telemetry, ticks the clock (bounded by the
        ``max_steps`` valve), fast-forwards an idle interval, moves the
        released jobs into the live set, and binds the scheduler to this
        step's capacities.  Returns ``(t, arrivals, caps_t,
        step_machine)``.
        """
        machine = self._machine
        scheduler = self._scheduler
        st = self._state
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        if obs is not None:
            self._obs_w0 = perf_counter()
        if prof is not None:
            prof.step_begin()

        st.t += 1
        t = st.t
        if t > self._max_steps:
            raise SimulationError(
                f"no completion after {self._max_steps} steps; "
                f"{len(st.alive)} jobs alive — scheduler "
                f"{scheduler.name!r} is not making progress"
            )
        # Fast-forward idle intervals: nobody alive, arrivals later.
        if not st.alive:
            next_release = self._next_release()
            if next_release is not None and next_release >= t:
                skip_to = next_release + 1
                st.idle_steps += skip_to - t
                st.t = t = skip_to

        pending = st.pending
        n = 0
        while n < len(pending) and pending[n].release_time < t:
            n += 1
        arriving = pending[:n]
        if n:
            del pending[:n]
            st.arrived += n
            if st.trace is not None:
                st.arrived_jobs.extend(arriving)
        while st.resubmit and st.resubmit[0][0] < t:
            arriving.append(heapq.heappop(st.resubmit)[2])
        # Resubmissions merge into arrival order by (release, id), the
        # same discipline the pending list uses.
        arriving.sort(key=lambda j: (j.release_time, j.job_id))
        arrivals: list[int] = []
        for job in arriving:
            st.alive[job.job_id] = job
            arrivals.append(job.job_id)
        if prof is not None:
            prof.lap("arrivals")

        step_machine = machine
        caps_t = machine.capacities
        if self._churn is not None:
            # Capacities may drop to 0 (outage) or *exceed* the nominal
            # machine while a transient add is active.
            caps_t = self._churn.capacities(t)
            if caps_t != machine.capacities:
                step_machine = KResourceMachine(
                    caps_t,
                    names=machine.names,
                    speeds=machine.speeds,
                    allow_zero=True,
                )
            scheduler.rebind(step_machine)
        if caps_t != st.last_caps:
            # Capacity boundary: let the scheduler migrate its internal
            # state (RAD re-batches an open RR cycle on shrink, absorbs
            # it on growth) instead of discovering the change implicitly.
            scheduler.notify_capacity_change(st.last_caps, caps_t)
            st.last_caps = caps_t
        if prof is not None:
            prof.lap("capacity")
        return t, arrivals, caps_t, step_machine

    def _account_stall(self, t: int, progress: int, active: bool) -> bool:
        """Stall bookkeeping after execution; returns whether ``t`` stalled.

        ``active`` says whether any live job reported a non-zero desire.
        Callers only evaluate it on zero-progress steps, so the activity
        scan costs nothing on the hot path; a step where every live job
        reports an all-zero desire (e.g. warm-up phases) is quiescent,
        not a work-conservation violation.
        """
        st = self._state
        if progress:
            st.stall_run = 0
            return False
        if not active:
            return False
        if not self._faulty:
            raise SimulationError(
                f"step {t}: scheduler {self._scheduler.name!r} executed "
                f"nothing while {len(st.alive)} jobs are active — not "
                "work-conserving"
            )
        # A stall: live jobs, zero progress (e.g. every demanded category
        # dark).  Absorbed, counted, and bounded.
        st.stall_run += 1
        st.stall_steps += 1
        st.longest_stall = max(st.longest_stall, st.stall_run)
        if st.stall_run > self._max_stall_steps:
            raise SimulationError(
                f"step {t}: no progress for {st.stall_run} consecutive "
                f"steps with {len(st.alive)} jobs alive — the machine "
                f"never recovered (max_stall_steps {self._max_stall_steps})"
            )
        return True

    def _step(self) -> None:
        """One time step (phases 1-4 plus fault injection)."""
        scheduler = self._scheduler
        st = self._state
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        t, arrivals, caps_t, step_machine = self._begin_step()

        desires = {jid: job.desire_vector() for jid, job in st.alive.items()}
        if prof is not None:
            prof.lap("desires")
        allotments = scheduler.allocate(
            t, desires, jobs=st.alive if scheduler.clairvoyant else None
        )
        if self._validate:
            check_allotments(step_machine, desires, allotments)
        if prof is not None:
            prof.lap("allotment")

        executed: dict[int, list[list[int]]] = {}
        progress = 0
        if self._max_speed > 1:
            progress = self._execute_rounds(allotments, executed)
        else:
            for jid, alloc in allotments.items():
                alloc = np.asarray(alloc, dtype=np.int64)
                if not alloc.any():
                    continue
                executed[jid] = st.alive[jid].execute(
                    alloc, self._policy, self._rng
                )
                st.busy += alloc
                progress += int(alloc.sum())
        if prof is not None:
            prof.lap("execution")

        failed, killed = self._inject_faults(t, executed)
        if prof is not None:
            prof.lap("faults")

        if self._supervisor is not None:
            self._supervise(
                t, caps_t, desires, allotments, executed
            )
        if prof is not None:
            prof.lap("supervise")

        stalled = self._account_stall(
            t,
            progress,
            progress == 0 and any(d.any() for d in desires.values()),
        )

        if self._on_step is not None:
            self._on_step(t, st.alive)

        completions: list[int] = []
        if executed:
            # A live job can only become complete by executing (jobs that
            # are complete on entry are rejected up front, and faults only
            # roll work back), so the completion scan is restricted to the
            # jobs that ran this step — while still iterating the live
            # dict so the completions tuple keeps arrival order.
            for jid in list(st.alive):
                if jid in executed and st.alive[jid].is_complete:
                    st.alive[jid].completion_time = t
                    st.completion[jid] = t
                    completions.append(jid)
                    del st.alive[jid]
        if completions:
            st.makespan = t
            st.history = _fold_completions(st.history, t, completions)

        if obs is not None:
            self._obs_step(
                t,
                desires,
                allotments,
                progress,
                len(arrivals),
                len(completions),
                stalled,
            )

        if st.trace is not None:
            st.trace.append(
                StepRecord(
                    t=t,
                    desires=desires,
                    allotments={
                        jid: np.asarray(a, dtype=np.int64)
                        for jid, a in allotments.items()
                    },
                    executed=executed,
                    arrivals=tuple(arrivals),
                    completions=tuple(completions),
                    failed=failed,
                    killed=tuple(killed),
                )
            )

        if self._journal is not None:
            self._journal_step(t)
        if prof is not None:
            prof.lap("bookkeeping")

    def _execute_rounds(
        self, allotments: dict, executed: dict[int, list[list[int]]]
    ) -> int:
        """Execution phase on a machine with speeds above 1.

        Round ``r`` of ``max_speed`` runs the categories whose speed
        exceeds ``r``.  Each job's round is clipped to its current desire
        (a round may run tasks an earlier round enabled), completed jobs
        sit out, and the executed task ids merge per job.  Returns the
        units executed.
        """
        st = self._state
        speeds = np.asarray(self._machine.speeds, dtype=np.int64)
        progress = 0
        for r in range(self._max_speed):
            in_round = speeds > r
            for jid, alloc in allotments.items():
                job = st.alive[jid]
                if job.is_complete:
                    continue
                alloc = np.minimum(
                    np.where(in_round, alloc, 0), job.desire_vector()
                )
                if not alloc.any():
                    continue
                ids = job.execute(alloc, self._policy, self._rng)
                merged = executed.setdefault(jid, [[] for _ in ids])
                for alpha, tasks in enumerate(ids):
                    merged[alpha].extend(tasks)
                st.busy += alloc
                progress += int(alloc.sum())
        return progress

    # ------------------------------------------------------------------
    def _supervise(
        self, t, caps_t, desires, allotments, executed
    ) -> None:
        """Evaluate invariant monitors against the just-executed step.

        ``strict`` mode propagates :class:`InvariantViolation` from the
        supervisor.  ``resilient`` mode turns each violation into an
        :class:`Incident`; a violation attributable to a live,
        uncompleted job quarantines that job — it leaves the live set
        (so stall accounting and termination stay honest) and is
        reported in ``SimulationResult.quarantined_jobs``.
        """
        st = self._state
        view = StepView(
            t=t,
            capacities=tuple(caps_t),
            nominal_capacities=self._machine.capacities,
            desires=desires,
            allotments=allotments,
            executed=executed,
            scheduler=self._scheduler,
            checkpoint=self.checkpoint,
        )
        for v in self._supervisor.observe(view):  # strict mode raises
            action = "logged"
            if v.job_id is not None:
                job = st.alive.get(v.job_id)
                if job is not None and not job.is_complete:
                    del st.alive[v.job_id]
                    st.quarantined[v.job_id] = job
                    st.release.pop(v.job_id, None)
                    if self._since is not None:
                        self._since.release_changed(v.job_id)
                    st.history = crc32(b"q%d;" % v.job_id, st.history)
                    action = "quarantined"
            incident = Incident(
                step=t,
                monitor=v.monitor,
                message=v.message,
                job_id=v.job_id,
                category=v.category,
                action=action,
            ).to_dict()
            st.incidents.append(incident)
            st.history = crc32(
                b"i" + json.dumps(incident, sort_keys=True).encode() + b";",
                st.history,
            )
            if self._obs is not None:
                self._obs.on_incident(
                    t,
                    monitor=v.monitor,
                    job_id=v.job_id,
                    action=action,
                    message=v.message,
                )

    # ------------------------------------------------------------------
    def _inject_faults(
        self, t: int, executed: dict[int, list[list[int]]]
    ) -> tuple[dict[int, list[list[int]]], list[int]]:
        """Apply the fault model: fail tasks, kill/resubmit jobs."""
        if self._fault_model is None:
            return {}, []
        st = self._state
        k = self._machine.num_categories

        failed: dict[int, list[list[int]]] = {}
        if executed:
            raw = self._fault_model.task_failures(t, executed)
            for jid in sorted(raw):
                if jid not in executed:
                    raise SimulationError(
                        f"fault model failed tasks of job {jid} which "
                        f"executed nothing at step {t}"
                    )
                norm = [
                    [int(v) for v in tasks] for tasks in raw[jid]
                ]
                if len(norm) != k:
                    raise SimulationError(
                        f"fault model returned {len(norm)} categories for "
                        f"job {jid}, expected {k}"
                    )
                for alpha, tasks in enumerate(norm):
                    if tasks and not set(tasks) <= set(executed[jid][alpha]):
                        raise SimulationError(
                            f"fault model failed tasks {tasks} of job "
                            f"{jid} category {alpha} that did not execute "
                            f"at step {t}"
                        )
                if not any(norm):
                    continue
                st.alive[jid].fail_tasks(norm)
                failed[jid] = norm
                for alpha, tasks in enumerate(norm):
                    st.wasted[alpha] += len(tasks)
                if self._obs is not None:
                    self._obs.on_task_failures(
                        t, jid, [len(tasks) for tasks in norm]
                    )

        killed: list[int] = []
        if st.alive:
            for jid in self._fault_model.job_kills(t, tuple(st.alive)):
                jid = int(jid)
                job = st.alive.pop(jid, None)
                if job is None:
                    continue
                killed.append(jid)
                # Every unit the dying attempt executed is thrown away.
                st.wasted += (
                    job.work_vector() - job.remaining_work_vector()
                ).astype(np.int64)
                if self._obs is not None:
                    self._obs.on_job_kill(t, jid)
                attempt = st.attempts.get(jid, 1)
                if self._since is not None:
                    self._since.attempts[jid] = None
                if (
                    self._retry_policy is not None
                    and self._retry_policy.allows_retry(attempt)
                ):
                    delay = self._retry_policy.delay(attempt)
                    st.attempts[jid] = attempt + 1
                    st.history = crc32(
                        b"r%d,%d;" % (jid, attempt + 1), st.history
                    )
                    fresh = job.fresh_copy()
                    # released at t+delay-1 => first executable at t+delay
                    fresh.release_time = t + delay - 1
                    heapq.heappush(
                        st.resubmit, (fresh.release_time, jid, fresh)
                    )
                    if self._obs is not None:
                        self._obs.on_retry(
                            t, jid, attempt + 1, fresh.release_time
                        )
                else:
                    st.attempts.setdefault(jid, 1)
                    st.failed_jobs.append(jid)
                    st.release.pop(jid, None)
                    if self._since is not None:
                        self._since.release_changed(jid)
                    st.history = crc32(b"f%d;" % jid, st.history)
                    if self._obs is not None:
                        self._obs.on_job_failed(t, jid, attempt)
        return failed, killed

    # ------------------------------------------------------------------
    def _finalize(self) -> SimulationResult:
        if self._result is not None:
            return self._result
        st = self._state
        retries = {
            jid: n - 1 for jid, n in sorted(st.attempts.items()) if n > 1
        }
        # digest() requires a checkpointable scheduler; only journaled
        # runs need it (for the end record).
        final_digest = self.digest() if self._journal is not None else None
        self._result = SimulationResult(
            scheduler_name=self._scheduler.name,
            num_jobs=st.arrived + len(st.pending),
            capacities=self._machine.capacities,
            makespan=st.makespan,
            completion_times=st.completion,
            release_times=st.release,
            idle_steps=st.idle_steps,
            busy=st.busy,
            trace=st.trace,
            wasted=st.wasted if self._fault_model is not None else None,
            stall_steps=st.stall_steps,
            longest_stall=st.longest_stall,
            retries=retries,
            failed_jobs=tuple(sorted(st.failed_jobs)),
            incidents=tuple(
                Incident.from_dict(d) for d in st.incidents
            ),
            quarantined_jobs=tuple(sorted(st.quarantined)),
        )
        if self._obs is not None:
            self._obs.on_run_end(
                st.t,
                makespan=st.makespan,
                idle_steps=st.idle_steps,
                completed=len(st.completion),
                failed=len(st.failed_jobs),
                quarantined=len(st.quarantined),
                utilization=self._result.utilization_vector(),
                transitions=self._scheduler.obs_transitions(),
            )
        if self._journal is not None:
            # A journal without an end record is, by definition, a crash.
            self._journal_put(
                "end",
                {"digest": final_digest, "makespan": st.makespan},
            )
            self._journal.close()
        return self._result

    def _journal_step(self, t: int) -> None:
        """The journal tail of unit step ``t``, shared by every kernel.

        One ``step`` record with the post-step digest, and a
        checkpoint-delta record every ``checkpoint_every`` steps while
        work remains.
        """
        self._journal_put("step", {"t": t, "digest": self.digest()})
        if t % self._journal.checkpoint_every == 0 and self._unfinished():
            self._journal_put("checkpoint", self._checkpoint_delta())

    # ------------------------------------------------------------------
    # observability (read-only telemetry; see repro.obs)
    # ------------------------------------------------------------------
    def _journal_put(self, record_type: str, data: dict) -> None:
        """Journal append that also notifies the observability layer."""
        self._journal.append(record_type, data)
        if self._obs is not None:
            self._obs.on_journal_record(
                self._state.t if self._state is not None else 0,
                record_type,
            )

    def _obs_step(
        self,
        t: int,
        desires: dict,
        allotments: dict,
        progress: int,
        n_arrivals: int,
        n_completions: int,
        stalled: bool,
    ) -> None:
        """Per-step telemetry for the dict-shaped reference step."""
        obs = self._obs
        k = self._machine.num_categories
        desired_tot = np.zeros(k, dtype=np.int64)
        for d in desires.values():
            desired_tot += np.asarray(d, dtype=np.int64)
        allocated_tot = np.zeros(k, dtype=np.int64)
        for a in allotments.values():
            allocated_tot += np.asarray(a, dtype=np.int64)
        realloc = self._obs_realloc_dict(allotments)
        if obs.bus.active:
            obs.bus.emit(
                t,
                "alloc",
                allotments={
                    int(jid): np.asarray(a).tolist()
                    for jid, a in allotments.items()
                },
            )
        self._obs_common(
            t,
            desired_tot,
            allocated_tot,
            realloc,
            progress,
            n_arrivals,
            n_completions,
            stalled,
        )

    def _obs_common(
        self,
        t: int,
        desired_tot,
        allocated_tot,
        realloc: float,
        progress: int,
        n_arrivals: int,
        n_completions: int,
        stalled: bool,
    ) -> None:
        """Shared tail of per-step telemetry (both engines funnel here)."""
        obs = self._obs
        rr_depths = self._scheduler.obs_rr_depths()
        wall = perf_counter() - self._obs_w0
        caps = self._state.last_caps
        if caps is self._obs_caps_key:
            caps_total = self._obs_caps_total
        else:
            self._obs_caps_key = caps
            caps_total = self._obs_caps_total = sum(caps)
        if obs.metrics is not None:
            obs.metrics.record_step(
                desired_tot,
                allocated_tot,
                progress,
                n_arrivals,
                n_completions,
                stalled,
                realloc,
                rr_depths,
                wall,
                caps_total,
            )
        if obs.bus.active:
            delta = self._obs_transitions_delta()
            if delta:
                for alpha, kind, n in delta:
                    obs.bus.emit(
                        t,
                        "transition",
                        category=alpha,
                        transition=kind,
                        count=n,
                    )
            obs.bus.emit(
                t,
                "step",
                desired=np.asarray(desired_tot).tolist(),
                allocated=np.asarray(allocated_tot).tolist(),
                progress=progress,
                arrivals=n_arrivals,
                completions=n_completions,
                stalled=stalled,
                realloc=realloc,
                rr_depths=rr_depths,
                wall=wall,
            )

    def _obs_realloc_dict(self, allotments: dict) -> float:
        """``sum_j |a_j(t) - a_j(t-1)|`` against the previous step.

        Matches :func:`repro.sim.metrics.reallocation_volume` on a
        recorded trace: absent jobs count as the zero vector and the
        first step of a run contributes nothing.
        """
        prev = self._obs_prev_alloc
        self._obs_prev_alloc = allotments
        if prev is None:
            return 0.0
        if isinstance(prev, list):
            prev = self._obs_matrix_to_dict(prev)
        total = 0
        for jid, a in allotments.items():
            a = np.asarray(a, dtype=np.int64)
            p = prev.get(jid)
            if p is None:
                total += int(a.sum())
            else:
                total += int(
                    np.abs(a - np.asarray(p, dtype=np.int64)).sum()
                )
        for jid, p in prev.items():
            if jid not in allotments:
                total += int(np.asarray(p, dtype=np.int64).sum())
        return float(total)

    @staticmethod
    def _obs_matrix_to_dict(prev: list) -> dict:
        """Expand a fast-engine ``["matrix", jids, A]`` snapshot."""
        _tag, jids, mat = prev
        return {int(j): mat[i] for i, j in enumerate(jids)}

    def _obs_transitions_delta(self) -> list[tuple[int, str, int]] | None:
        """New DEQ<->RR transitions since the previous snapshot."""
        cur = self._scheduler.obs_transitions()
        if cur is None:
            return None
        prev = self._obs_prev_trans
        self._obs_prev_trans = [dict(c) for c in cur]
        out: list[tuple[int, str, int]] = []
        for alpha, counts in enumerate(cur):
            base = (
                prev[alpha]
                if prev is not None and alpha < len(prev)
                else {}
            )
            for kind, n in counts.items():
                dn = int(n) - int(base.get(kind, 0))
                if dn:
                    out.append((alpha, kind, dn))
        return out

    # ------------------------------------------------------------------
    def digest(self) -> int:
        """CRC32 fingerprint of the current run state.

        Cheap relative to a full checkpoint (no trace, no static job
        definitions) yet covers everything that evolves step to step:
        clock, counters, RNG, live jobs' runtime state, the scheduler's
        state and the running ``history`` CRC, which stands in for every
        completion, retry, failure, quarantine and incident so far — so
        the cost is O(live jobs), not O(run history).  Journals store one
        per step; recovery replays and requires every digest to match,
        proving bit-for-bit resume.
        """
        from repro.sim.journal import state_digest

        self._ensure_started()
        st = self._state
        return state_digest(
            {
                "t": st.t,
                "arrived": st.arrived,
                "idle": st.idle_steps,
                "stall": [st.stall_steps, st.stall_run, st.longest_stall],
                "makespan": st.makespan,
                "busy": st.busy.tolist(),
                "wasted": st.wasted.tolist(),
                "alive": self._live_remaining(),
                "resubmit": sorted(
                    (r, jid) for r, jid, _job in st.resubmit
                ),
                "last_caps": list(st.last_caps),
                "history": st.history,
                "scheduler": self._scheduler.state_dict(),
                "rng": self._rng.bit_generator.state,
            }
        )

    def _live_remaining(self) -> dict[str, list[int]]:
        """Each live job's remaining work vector, keyed by ``str(id)``:
        the digest's view of live job state."""
        return {
            str(j): job.remaining_work_vector().tolist()
            for j, job in self._state.alive.items()
        }

    def _journal_meta(self) -> dict:
        """The journal's run header (enough to rebuild hooks on recovery)."""
        from repro.io.serialize import machine_to_dict
        from repro.sim.journal import JOURNAL_VERSION

        return {
            "format": "journal",
            "version": JOURNAL_VERSION,
            "scheduler": self._scheduler.name,
            "policy": getattr(self._policy, "name", None),
            "machine": machine_to_dict(self._machine),
            "checkpoint_every": self._journal.checkpoint_every,
            "record_trace": self._record_trace,
            "has_fault_model": self._fault_model is not None,
            "has_retry_policy": self._retry_policy is not None,
            "churn": (
                self._churn.to_dict() if self._churn is not None else None
            ),
            "supervisor": (
                self._supervisor.to_dict()
                if self._supervisor is not None
                else None
            ),
        }

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Serializable snapshot of the full mid-run state.

        Captures engine counters and history maps, the scheduler's
        state, the unarrived jobs' static definitions, the live,
        resubmitted and quarantined jobs' definitions *and* runtime
        state, the RNG and the recorded trace, as plain-JSON data (via
        :mod:`repro.io.serialize`).  Jobs that already finished appear
        only in the history maps; a trace-recording run also lists every
        arrived job's static definition (``arrived``), which validating
        its trace needs.  Resuming via :meth:`restore` and running to
        completion yields a result bitwise-identical to the
        uninterrupted run.
        """
        from repro.io.serialize import (
            job_snapshot_to_dict,
            job_to_dict,
            machine_to_dict,
        )

        if self._result is not None:
            raise SimulationError(
                "cannot checkpoint a finished run; keep the result instead"
            )
        self._ensure_started()
        st = self._state
        if self._obs is not None:
            self._obs.on_checkpoint(st.t)
        live = self._live_sections()
        live["engine"].update(
            {
                "completion": {
                    str(j): c for j, c in st.completion.items()
                },
                "release": {str(j): r for j, r in st.release.items()},
                "attempts": {str(j): n for j, n in st.attempts.items()},
                "failed_jobs": list(st.failed_jobs),
                "max_stall_steps": self._max_stall_steps,
                "validate": self._validate,
                "has_fault_model": self._fault_model is not None,
                "has_churn": self._churn is not None,
                "has_supervisor": self._supervisor is not None,
                "incidents": [dict(d) for d in st.incidents],
                "quarantined_ids": sorted(st.quarantined),
            }
        )
        return {
            "format": "checkpoint",
            "version": _CHECKPOINT_VERSION,
            "machine": machine_to_dict(self._machine),
            **live,
            "quarantined": [
                job_snapshot_to_dict(job) for job in st.quarantined.values()
            ],
            "arrived": [job_to_dict(j) for j in st.arrived_jobs],
        }

    def _live_sections(self) -> dict:
        """The checkpoint sections that hold live state (O(live jobs)).

        Unarrived, live and resubmitted jobs, the scheduler, the RNG,
        the engine counters (``history`` among them) and the recorded
        trace — what a journal checkpoint-delta record repeats in full.
        """
        from repro.io.serialize import job_snapshot_to_dict
        from repro.io.trace_io import trace_to_dict

        st = self._state
        return {
            "scheduler": {
                "name": self._scheduler.name,
                "state": self._scheduler.state_dict(),
            },
            "rng": self._rng.bit_generator.state,
            "engine": {
                "t": st.t,
                "arrived": st.arrived,
                "idle_steps": st.idle_steps,
                "stall_steps": st.stall_steps,
                "stall_run": st.stall_run,
                "longest_stall": st.longest_stall,
                "makespan": st.makespan,
                "busy": st.busy.tolist(),
                "wasted": st.wasted.tolist(),
                "max_steps": self._max_steps,
                "last_caps": list(st.last_caps),
                "history": st.history,
            },
            "jobs": [job_snapshot_to_dict(j) for j in st.pending],
            "alive": [
                job_snapshot_to_dict(job) for job in st.alive.values()
            ],
            "resubmit": [
                {"release": r, "job": job_snapshot_to_dict(job)}
                for r, _jid, job in sorted(
                    st.resubmit, key=lambda e: (e[0], e[1])
                )
            ],
            "trace": (
                trace_to_dict(st.trace) if st.trace is not None else None
            ),
        }

    def _checkpoint_delta(self) -> dict:
        """A journal checkpoint-delta record: live state + new history.

        The live sections in full, plus what the run appended to its
        history since the previous checkpoint record: completions,
        release additions and removals, attempt changes, failures,
        incidents, quarantined jobs and (trace-recording runs) arrived
        jobs' static definitions.  Empty kinds are left out.
        :meth:`recover` folds a chain of these onto the journal's full
        checkpoint record.
        """
        from repro.io.serialize import job_snapshot_to_dict, job_to_dict

        st = self._state
        since = self._since
        if self._obs is not None:
            self._obs.on_checkpoint(st.t)
        history = {
            "completion": [
                [j, c] for j, c in _dict_tail(st.completion, since.completion)
            ],
            "release": [
                [j, st.release[j]] for j in since.release if j in st.release
            ],
            "unrelease": [j for j in since.release if j not in st.release],
            "attempts": [[j, st.attempts[j]] for j in since.attempts],
            "failed": st.failed_jobs[since.failed :],
            "incidents": [dict(d) for d in st.incidents[since.incidents :]],
            "quarantined": [
                job_snapshot_to_dict(job)
                for _j, job in _dict_tail(st.quarantined, since.quarantined)
            ],
            "arrived": [
                job_to_dict(j) for j in st.arrived_jobs[since.arrived :]
            ],
        }
        since.mark(st)
        return {
            "format": "checkpoint-delta",
            **self._live_sections(),
            "history": {kind: v for kind, v in history.items() if v},
        }

    @classmethod
    def restore(
        cls,
        data: dict,
        scheduler: Scheduler,
        *,
        policy: ExecutionPolicy = FIFO,
        on_step=None,
        fault_model=None,
        retry_policy=None,
        supervisor: Supervisor | None = None,
        churn: ChurnSchedule | None = None,
        journal=None,
        obs: Observability | None = None,
    ) -> "Simulator":
        """Rebuild a mid-run simulator from a :meth:`checkpoint` snapshot.

        Callables are not serializable, so the caller re-supplies the
        scheduler instance (same class; its state is restored from the
        snapshot), the policy and the fault/retry/supervisor/churn hooks
        — they must match the original run for the resumed result to be
        identical.  A malformed document (wrong format,
        unknown version, missing or wrongly typed sections, a scheduler
        state the scheduler cannot load) fails with
        :class:`~repro.errors.SerializationError` naming the problem.
        """
        from repro.io.serialize import (
            job_from_dict,
            job_snapshot_from_dict,
            machine_from_dict,
        )
        from repro.io.trace_io import trace_from_dict

        _check_checkpoint(data)
        eng = data["engine"]
        if eng["has_fault_model"] != (fault_model is not None):
            raise SimulationError(
                "checkpointed run and restore disagree on fault_model "
                "presence"
            )
        if eng["has_churn"] != (churn is not None):
            raise SimulationError(
                "checkpointed run and restore disagree on churn presence"
            )
        if eng["has_supervisor"] != (supervisor is not None):
            raise SimulationError(
                "checkpointed run and restore disagree on supervisor "
                "presence"
            )
        if scheduler.name != data["scheduler"]["name"]:
            raise SimulationError(
                f"checkpoint was taken under scheduler "
                f"{data['scheduler']['name']!r}, restore got "
                f"{scheduler.name!r}"
            )
        machine = machine_from_dict(data["machine"])
        pending = [job_snapshot_from_dict(d) for d in data["jobs"]]
        arrived_jobs = [job_from_dict(d) for d in data["arrived"]]
        sim = cls(
            machine,
            scheduler,
            JobSet(
                arrived_jobs + pending, num_categories=machine.num_categories
            ),
            policy=policy,
            record_trace=data["trace"] is not None,
            max_steps=eng["max_steps"],
            validate=eng["validate"],
            on_step=on_step,
            fault_model=fault_model,
            retry_policy=retry_policy,
            supervisor=supervisor,
            churn=churn,
            max_stall_steps=eng["max_stall_steps"],
            obs=obs,
        )
        scheduler.reset(machine)
        try:
            scheduler.load_state_dict(data["scheduler"]["state"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"checkpoint scheduler state does not load into "
                f"{scheduler.name!r}: {exc}"
            ) from None
        sim._rng.bit_generator.state = data["rng"]

        st = _RunState()
        st.t = int(eng["t"])
        st.pending = pending
        st.arrived = int(eng["arrived"])
        st.history = int(eng["history"])
        st.arrived_jobs = arrived_jobs
        st.alive = {}
        for snap in data["alive"]:
            job = job_snapshot_from_dict(snap)
            st.alive[job.job_id] = job
        st.completion = {
            int(j): int(c) for j, c in eng["completion"].items()
        }
        st.release = {int(j): int(r) for j, r in eng["release"].items()}
        st.busy = np.asarray(eng["busy"], dtype=np.int64)
        st.wasted = np.asarray(eng["wasted"], dtype=np.int64)
        st.idle_steps = int(eng["idle_steps"])
        st.stall_steps = int(eng["stall_steps"])
        st.stall_run = int(eng["stall_run"])
        st.longest_stall = int(eng["longest_stall"])
        st.makespan = int(eng["makespan"])
        st.attempts = {
            int(j): int(n) for j, n in eng["attempts"].items()
        }
        st.failed_jobs = [int(j) for j in eng["failed_jobs"]]
        st.resubmit = []
        for entry in data["resubmit"]:
            job = job_snapshot_from_dict(entry["job"])
            st.resubmit.append((int(entry["release"]), job.job_id, job))
        heapq.heapify(st.resubmit)
        st.last_caps = tuple(int(c) for c in eng["last_caps"])
        st.incidents = [dict(d) for d in eng["incidents"]]
        st.quarantined = {}
        for snap in data["quarantined"]:
            job = job_snapshot_from_dict(snap)
            st.quarantined[job.job_id] = job
        if sorted(st.quarantined) != [int(j) for j in eng["quarantined_ids"]]:
            raise SerializationError(
                "checkpoint quarantined job snapshots do not match "
                "engine quarantined_ids"
            )
        st.trace = (
            trace_from_dict(data["trace"])
            if data["trace"] is not None
            else None
        )
        sim._state = st
        if journal is not None:
            # A fresh journal attached to a restored run gets its own
            # header so it is independently recoverable.
            sim._journal = journal
            sim._journal_started = True
            sim._journal_put("meta", sim._journal_meta())
            sim._journal_put("checkpoint", sim.checkpoint())
            sim._since = _HistorySince(st)
        return sim

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        journal_path: str,
        *,
        scheduler: Scheduler | None = None,
        policy: ExecutionPolicy | None = None,
        on_step=None,
        fault_model=None,
        retry_policy=None,
        fsync: bool = True,
        obs: Observability | None = None,
    ) -> "Simulator":
        """Rebuild a crashed run from its write-ahead journal.

        Reads the valid prefix of ``journal_path`` (a torn or corrupt
        tail — the signature of a mid-write crash — is detected by CRC
        framing and physically truncated), folds the checkpoint-delta
        records onto the last full checkpoint record before them,
        restores the result, then *replays* every journaled step after
        the last checkpoint record,
        requiring each step's state digest to match the journaled one:
        recovery is verified bit-for-bit, not assumed.  The returned
        simulator keeps appending to the same journal, so a
        crash-recover-crash-recover chain leaves one continuous file.

        The scheduler, policy, supervisor and churn schedule (capacity
        faults included) are rebuilt from journal metadata when not
        supplied; fault models and retry policies are arbitrary callables
        the journal cannot capture, so runs using them must pass the
        identical objects back in.

        Raises :class:`~repro.errors.JournalError` on an unreadable or
        headerless journal, on a journal whose ``end`` record shows the
        run already completed, on a malformed checkpoint-delta record or
        one with no full checkpoint record before it, and on replay
        divergence.
        """
        return cls._recover(
            journal_path,
            scheduler=scheduler,
            policy=policy,
            on_step=on_step,
            fault_model=fault_model,
            retry_policy=retry_policy,
            fsync=fsync,
            obs=obs,
        )[0]

    @classmethod
    def _recover(
        cls,
        journal_path: str,
        *,
        scheduler: Scheduler | None = None,
        policy: ExecutionPolicy | None = None,
        on_step=None,
        fault_model=None,
        retry_policy=None,
        fsync: bool = True,
        obs: Observability | None = None,
    ) -> "tuple[Simulator, list]":
        """:meth:`recover`, also returning the journal records it read
        and verified (so a caller needing them parses the file once)."""
        from repro.jobs.policies import policy_by_name
        from repro.schedulers import scheduler_by_name
        from repro.sim.journal import (
            JOURNAL_VERSION,
            Journal,
            read_journal,
        )

        records, _valid_bytes, clean = read_journal(
            journal_path, truncate=True
        )
        if not records or records[0].type != "meta":
            raise JournalError(
                f"{journal_path!r} has no valid meta record — not a "
                "journal, or torn before the header reached disk"
            )
        meta = records[0].data
        if meta.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"unsupported journal version {meta.get('version')!r} "
                f"(this build reads version {JOURNAL_VERSION})"
            )
        if any(r.type == "end" for r in records):
            raise JournalError(
                f"{journal_path!r} records a completed run (end record "
                "present); nothing to recover"
            )
        checkpoints = [
            i for i, r in enumerate(records) if r.type == "checkpoint"
        ]
        if not checkpoints:
            raise JournalError(
                f"{journal_path!r} holds no intact checkpoint; the "
                "journal was torn before the initial snapshot reached "
                "disk — re-run from scratch"
            )
        ckpt_idx = checkpoints[-1]
        full = [i for i in checkpoints if not _is_delta(records[i].data)]
        if not full:
            raise JournalError(
                f"{journal_path!r}: checkpoint record seq "
                f"{records[checkpoints[0]].seq} is a delta with no full "
                "checkpoint record before it"
            )
        doc = records[full[-1]].data
        for i in checkpoints:
            if i > full[-1]:
                _fold_delta(
                    doc,
                    records[i].data,
                    f"{journal_path!r} checkpoint record seq "
                    f"{records[i].seq}",
                )

        if meta.get("has_fault_model") and fault_model is None:
            raise JournalError(
                "journaled run used a fault model; pass the identical "
                "fault_model to recover()"
            )
        if meta.get("has_retry_policy") and retry_policy is None:
            raise JournalError(
                "journaled run used a retry policy; pass the identical "
                "retry_policy to recover()"
            )
        if scheduler is None:
            scheduler = scheduler_by_name(meta["scheduler"])
        if policy is None:
            policy = (
                policy_by_name(meta["policy"])
                if meta.get("policy")
                else FIFO
            )
        supervisor = (
            Supervisor.from_dict(meta["supervisor"])
            if meta.get("supervisor")
            else None
        )
        churn = (
            ChurnSchedule.from_dict(meta["churn"])
            if meta.get("churn")
            else None
        )

        sim = cls.restore(
            doc,
            scheduler,
            policy=policy,
            on_step=on_step,
            fault_model=fault_model,
            retry_policy=retry_policy,
            supervisor=supervisor,
            churn=churn,
            obs=obs,
        )
        # Replay the steps journaled after the checkpoint, digest-checked.
        # One step record == one reference _step() call (idle
        # fast-forwards happen *inside* a step), so the mapping is exact.
        # Every engine replays through the reference step: the fast
        # engine's lean kernel may cover several steps in one call, and
        # it would be chosen before the journal is re-attached below.
        # Online arrivals and withdrawals (``submit``/``cancel`` records,
        # written by :meth:`inject_job` / :meth:`cancel_pending`) are
        # re-applied at their exact journal position, so the interleaving
        # with steps — and therefore every subsequent digest — is
        # reproduced.
        from repro.io.serialize import job_snapshot_from_dict

        # The replayed steps' history belongs in the next delta record.
        sim._since = _HistorySince(sim._state)
        for rec in records[ckpt_idx + 1 :]:
            if rec.type == "submit":
                sim.inject_job(job_snapshot_from_dict(rec.data["job"]))
                continue
            if rec.type == "cancel":
                sim.cancel_pending(int(rec.data["job_id"]))
                continue
            if rec.type != "step":
                continue
            target_t = int(rec.data["t"])
            if not sim._unfinished():
                raise JournalError(
                    f"journal has a step record for t={target_t} but the "
                    "restored run is already finished — journal and "
                    "checkpoint disagree"
                )
            Simulator._step(sim)
            if sim._state.t != target_t or sim.digest() != int(
                rec.data["digest"]
            ):
                raise JournalError(
                    f"replay diverged at step {target_t}: recovered "
                    "state does not reproduce the journaled digest "
                    "(journal and run inputs disagree)"
                )
        sim._journal = Journal(
            journal_path,
            checkpoint_every=int(meta.get("checkpoint_every", 25)),
            fsync=fsync,
            start_seq=records[-1].seq,
        )
        sim._journal_started = True
        return sim, records


def simulate(
    machine: KResourceMachine,
    scheduler: Scheduler,
    jobset: JobSet,
    *,
    policy: ExecutionPolicy = FIFO,
    seed: int | None = None,
    record_trace: bool = False,
    max_steps: int | None = None,
    validate: bool = True,
    fresh: bool = True,
    fault_model=None,
    retry_policy=None,
    supervisor: Supervisor | None = None,
    churn: ChurnSchedule | None = None,
    journal=None,
    max_stall_steps: int = 1000,
    engine: str | None = None,
    obs: Observability | None = None,
) -> SimulationResult:
    """One-call convenience: run ``jobset`` under ``scheduler``.

    With ``fresh=True`` (default) the job set is copied first, so the same
    ``JobSet`` can be fed to several schedulers for comparison.

    ``engine`` picks the substrate: ``"reference"`` (the canonical step
    loop), ``"fast"`` (the vectorised engine of
    :mod:`repro.sim.fastengine` — bit-identical results, see
    :mod:`repro.sim.conformance`), or ``None`` for the process default.
    """
    if fresh:
        jobset = jobset.fresh_copy()
    return engine_class(engine)(
        machine,
        scheduler,
        jobset,
        policy=policy,
        seed=seed,
        record_trace=record_trace,
        max_steps=max_steps,
        validate=validate,
        fault_model=fault_model,
        retry_policy=retry_policy,
        supervisor=supervisor,
        churn=churn,
        journal=journal,
        max_stall_steps=max_stall_steps,
        obs=obs,
    ).run()
