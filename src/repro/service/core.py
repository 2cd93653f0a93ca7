"""The scheduling service core: a live engine under streaming admission.

:class:`SchedulingService` owns one long-running simulator (reference or
fast engine — both support online injection) started on an *empty* job
set, and exposes the five service operations — ``submit``, ``status``,
``cancel``, ``drain``, ``stats`` — as plain synchronous methods.  The
asyncio server in :mod:`repro.service.server` drives exactly this
object; tests and in-process demos can use it directly with no sockets
involved.

Semantics worth spelling out:

* **Durability.**  A submission is acknowledged only after the job is
  injected into the engine — on a journaled service that means the
  ``submit`` record is already fsync'd.  Ack'd means recoverable:
  :meth:`SchedulingService.recover` rebuilds the exact pre-crash state
  (engine replayed digest-verified, tenant accounting re-derived from
  the journal's submit/cancel records).
* **Effective release times.**  Jobs release at the engine's current
  virtual step (or later, if the submitter asked for a future release);
  the ack reports the effective release.  The virtual clock only
  advances while admitted work exists, so an idle service admits the
  next burst at the step it stopped.
* **Job identity.**  The service assigns ids from a monotone sequence
  in admission order; submitter-side ids are ignored.  That makes the
  engine's determinism contract trivial to keep: ids are unique by
  construction and reproduced exactly on recovery.
* **Equivalence to batch.**  After a drain, the completed jobs'
  response times are identical to a batch ``simulate()`` of the same
  jobs with the same effective release times on the same seed/engine —
  the service is the *same computation* fed incrementally, which the
  end-to-end tests assert literally.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ServiceError, SimulationError
from repro.jobs.base import Job
from repro.jobs.jobset import JobSet
from repro.machine.machine import KResourceMachine
from repro.obs import MetricsRegistry, Observability, get_default_obs
from repro.schedulers import scheduler_by_name
from repro.service.admission import (
    AdmissionController,
    theorem3_certificate,
)
from repro.service.resilience import SERVICE_STATES, service_state_code
from repro.sim.engine import engine_class
from repro.sim.journal import Journal

__all__ = ["SchedulingService", "ServiceConfig"]

#: engine job states that count against quotas ("in flight")
_IN_FLIGHT_STATES = ("pending", "running", "retrying")

#: in-flight jobs, as a fraction of ``max_in_flight``, at or above which
#: a service reports ``degraded``
DEGRADED_DEPTH_FRAC = 0.8


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one :class:`SchedulingService`.

    ``capacities``/``names``/``scheduler``/``engine``/``seed`` define
    the machine triple; ``step_slice`` is how many virtual steps one
    :meth:`SchedulingService.tick` advances; the admission fields map
    onto :class:`~repro.service.admission.AdmissionController`; the
    journal fields arm crash recovery.
    """

    capacities: tuple[int, ...]
    names: tuple[str, ...] | None = None
    scheduler: str = "k-rad"
    engine: str | None = None
    seed: int = 0
    step_slice: int = 8
    tenant_quota: int = 8
    max_in_flight: int = 64
    retry_after: int = 8
    shed_horizon: int | None = None
    journal_path: str | None = None
    checkpoint_every: int = 25
    fsync: bool = True
    #: record every accepted submit/cancel as an NDJSON workload trace
    #: (:mod:`repro.workloads.trace`) replayable via ``krad replay``;
    #: the fault spec stored in ``extra["faults"]`` (a
    #: :func:`repro.sim.faults.fault_spec` dict) is embedded in the
    #: trace header so replays rebuild identical fault hooks
    trace_path: str | None = None
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.step_slice < 1:
            raise ServiceError(
                f"step_slice must be >= 1, got {self.step_slice}"
            )
        if self.checkpoint_every < 1:
            raise ServiceError(
                f"checkpoint_every must be >= 1, got "
                f"{self.checkpoint_every}"
            )


class SchedulingService:
    """One live engine plus admission control and tenant accounting.

    Parameters
    ----------
    config:
        The :class:`ServiceConfig`.
    obs:
        Telemetry bundle shared by the engine and the service layer
        (submissions/rejections/cancellations are service events).
        ``None`` falls back to the process default, else to a fresh
        metrics-only :class:`Observability` so ``/metrics`` always has
        something to serve.
    fault_model, retry_policy, churn:
        Passed to the engine verbatim — the serving loop runs under
        fault injection exactly like a batch run does.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        obs: Observability | None = None,
        fault_model=None,
        retry_policy=None,
        churn=None,
        max_stall_steps: int = 1000,
        _sim=None,
    ) -> None:
        self.config = config
        if obs is None:
            obs = get_default_obs()
        if obs is None:
            obs = Observability()
        self.obs = obs
        self.admission = AdmissionController(
            tenant_quota=config.tenant_quota,
            max_in_flight=config.max_in_flight,
            retry_after=config.retry_after,
            shed_horizon=config.shed_horizon,
        )
        if _sim is not None:
            self._sim = _sim
        else:
            machine = KResourceMachine(
                config.capacities, names=config.names
            )
            journal = (
                Journal(
                    config.journal_path,
                    checkpoint_every=config.checkpoint_every,
                    fsync=config.fsync,
                )
                if config.journal_path is not None
                else None
            )
            self._sim = engine_class(config.engine)(
                machine,
                scheduler_by_name(config.scheduler),
                JobSet([], num_categories=machine.num_categories),
                seed=config.seed,
                journal=journal,
                fault_model=fault_model,
                retry_policy=retry_policy,
                churn=churn,
                max_stall_steps=max_stall_steps,
                obs=obs,
            )
        self._trace_writer = None
        if config.trace_path is not None:
            from repro.workloads.trace import WorkloadTraceWriter

            # append=True makes restarts additive: a recovered service
            # keeps extending the run's one workload trace (the engine
            # replays journaled submissions internally, so none are
            # re-recorded here).
            self._trace_writer = WorkloadTraceWriter(
                config.trace_path,
                capacities=tuple(config.capacities),
                names=config.names,
                scheduler=config.scheduler,
                seed=config.seed,
                faults=config.extra.get("faults"),
                churn=config.extra.get("churn"),
                append=True,
            )
        self._tenant_of: dict[int, str] = {}
        #: per tenant, the ids that may still be in flight (terminal ids
        #: are dropped for good: a job never returns to flight)
        self._flight_of: dict[str, list[int]] = {}
        self._release_of: dict[int, int] = {}
        self._cancelled: set[int] = set()
        #: submission-token -> stored ack (idempotent resubmission)
        self._tokens: dict[str, dict] = {}
        self._next_id = 0
        self._accepted = 0
        self._rejected = 0
        self._duplicates = 0
        self._draining = False
        self._result = None
        #: True between recover() and the first completed tick
        self._recovering = False
        self._last_state = "healthy"
        self._state_changes = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def simulator(self):
        """The live engine (read it, don't drive it around the service)."""
        return self._sim

    @property
    def clock(self) -> int:
        return self._sim.clock

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def result(self):
        """The final :class:`SimulationResult` once drained, else None."""
        return self._result

    def tenant_in_flight(self, tenant: str) -> int:
        """The tenant's pending, running and retrying jobs (O(those))."""
        ids = self._flight_of.get(tenant)
        if not ids:
            return 0
        state = self._sim.job_state
        ids[:] = [jid for jid in ids if state(jid) in _IN_FLIGHT_STATES]
        return len(ids)

    def total_in_flight(self) -> int:
        depths = self._sim.queue_depths()
        return depths["pending"] + depths["running"]

    def certificate_horizon(self, extra_job: Job | None = None) -> float:
        """Theorem-3 certified completion horizon of the backlog.

        With ``extra_job`` the horizon is computed as if that job were
        admitted at the current step — the quantity the load-shedding
        gate judges.
        """
        sim = self._sim
        backlog = sim.backlog_vector()
        span = sim.backlog_span()
        if extra_job is not None:
            backlog = backlog + extra_job.work_vector()
            span = max(span, int(extra_job.span()))
        return theorem3_certificate(
            backlog,
            span,
            self._sim._machine.capacities,
            self._sim._machine.pmax,
        )

    # ------------------------------------------------------------------
    # service state
    # ------------------------------------------------------------------
    def journal_latency_s(self) -> float:
        """EWMA append latency of the engine's journal (0 without one)."""
        journal = getattr(self._sim, "_journal", None)
        if journal is None:
            return 0.0
        return float(getattr(journal, "append_latency_s", 0.0))

    def service_state(self) -> str:
        """Current service state, one of :data:`SERVICE_STATES`.

        ``draining`` once a drain was asked; ``degraded`` while a
        recovery is not yet confirmed by a completed tick, or while the
        jobs in flight reach ``DEGRADED_DEPTH_FRAC`` of
        ``max_in_flight``; ``healthy`` otherwise.  Recomputed on every
        call and compared against the previous answer, so any path that
        consults the state (submit, ``/healthz``, metrics) also
        publishes transitions.
        """
        if self._draining or self._result is not None:
            state = "draining"
        elif self._recovering or (
            self.total_in_flight() / self.config.max_in_flight
            >= DEGRADED_DEPTH_FRAC
        ):
            state = "degraded"
        else:
            state = "healthy"
        if state != self._last_state:
            prev, self._last_state = self._last_state, state
            self._state_changes += 1
            self.obs.on_state_change(self.clock, state=state, prev=prev)
        return state

    def health(self) -> dict:
        """The ``/healthz`` document: state, code, and live vitals."""
        state = self.service_state()
        return {
            "ok": state == "healthy",
            "state": state,
            "state_code": service_state_code(state),
            "clock": self.clock,
            "draining": self._draining,
            "recovering": self._recovering,
            "in_flight": self.total_in_flight(),
            "max_in_flight": self.config.max_in_flight,
            "journal_latency_s": round(self.journal_latency_s(), 6),
        }

    # ------------------------------------------------------------------
    # the five operations
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        job: Job | dict,
        *,
        release_time: int | None = None,
        token: str | None = None,
    ) -> dict:
        """Admit one job (or reject it with a reason + ``retry_after``).

        ``job`` may be a :class:`~repro.jobs.base.Job` or its
        ``job_to_dict`` document (the wire format).  The service
        re-assigns the job id; the ack carries the assigned id and the
        effective release time.

        ``token`` is an optional client-supplied idempotency key: a
        submission whose token matches an already-*acknowledged* one is
        not admitted again — the original ack comes back with
        ``"duplicate": true``.  That makes retrying a submit safe even
        when the first ack was lost in flight: at-least-once delivery
        plus token dedupe equals exactly-once admission.  Rejections are
        not stored; a retried rejected token gets a fresh decision.
        """
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError("tenant must be a non-empty string")
        if token is not None and (
            not isinstance(token, str) or not token
        ):
            raise ServiceError(
                "submission token must be a non-empty string when given"
            )
        if token is not None and token in self._tokens:
            self._duplicates += 1
            return {**self._tokens[token], "duplicate": True}
        if isinstance(job, dict):
            from repro.io.serialize import job_from_dict

            job = job_from_dict(job)
        if not isinstance(job, Job):
            raise ServiceError(
                f"job must be a Job or its job_to_dict document, got "
                f"{type(job).__name__}"
            )
        if self._result is not None:
            self._draining = True  # drained implies draining
        certificate = None
        if (
            self.admission.shed_horizon is not None or self._draining
        ) and self._result is None:
            certificate = self.certificate_horizon(extra_job=job)
        self.service_state()  # publish a state change before deciding
        decision = self.admission.decide(
            tenant,
            tenant_in_flight=self.tenant_in_flight(tenant),
            total_in_flight=self.total_in_flight(),
            draining=self._draining,
            certificate=certificate,
        )
        if not decision.accepted:
            self._rejected += 1
            self.obs.on_reject(
                self.clock,
                tenant=tenant,
                reason=decision.reason,
                retry_after=decision.retry_after,
            )
            return {
                "ok": False,
                "error": decision.detail,
                "reason": decision.reason,
                "retry_after": decision.retry_after,
            }
        jid = self._next_id
        job.job_id = jid
        clock = self.clock
        release = clock if release_time is None else max(
            clock, int(release_time)
        )
        meta = {"tenant": tenant}
        if token is not None:
            meta["token"] = token
        self._sim.inject_job(job, release_time=release, meta=meta)
        # Only count the id as consumed once injection succeeded — a
        # rejected or failed injection must not burn ids, or recovery
        # (which replays only journaled submits) would drift.
        self._next_id = jid + 1
        self._accepted += 1
        if self._trace_writer is not None:
            self._trace_writer.record_submit(
                t=clock, release=release, tenant=tenant, job=job
            )
        self._tenant_of[jid] = tenant
        self._flight_of.setdefault(tenant, []).append(jid)
        self._release_of[jid] = release
        self.obs.on_submit(
            clock, tenant=tenant, job_id=jid, release=release
        )
        ack = {
            "ok": True,
            "job_id": jid,
            "tenant": tenant,
            "release": release,
            "state": "pending",
        }
        if token is not None:
            # The token is journaled with the submit record, so the
            # dedupe map survives crash recovery with the ack it guards.
            self._tokens[token] = dict(ack)
        return ack

    def status(self, job_id: int) -> dict:
        """Lifecycle snapshot of one submitted job."""
        tenant = self._tenant_of.get(job_id)
        if tenant is None:
            return {"ok": False, "error": f"unknown job id {job_id}"}
        out = {
            "ok": True,
            "job_id": job_id,
            "tenant": tenant,
            "release": self._release_of[job_id],
        }
        if job_id in self._cancelled:
            out["state"] = "cancelled"
            return out
        out["state"] = self._sim.job_state(job_id)
        done = self._sim.completion_time(job_id)
        if done is not None:
            out["completion"] = done
            out["response_time"] = done - self._release_of[job_id]
        return out

    def cancel(self, job_id: int) -> dict:
        """Withdraw a not-yet-released job its submitter thought better of."""
        tenant = self._tenant_of.get(job_id)
        if tenant is None:
            return {"ok": False, "error": f"unknown job id {job_id}"}
        if job_id in self._cancelled:
            return {"ok": False, "error": f"job {job_id} already cancelled"}
        try:
            self._sim.cancel_pending(job_id)
        except SimulationError as exc:
            return {"ok": False, "error": str(exc)}
        self._cancelled.add(job_id)
        if self._trace_writer is not None:
            self._trace_writer.record_cancel(t=self.clock, job_id=job_id)
        self.obs.on_cancel(self.clock, tenant=tenant, job_id=job_id)
        return {"ok": True, "job_id": job_id, "state": "cancelled"}

    def stats(self) -> dict:
        """Live service counters (the ``stats`` wire op)."""
        depths = self._sim.queue_depths()
        return {
            "ok": True,
            "clock": self.clock,
            "engine": self._sim.engine_name,
            "scheduler": self._sim._scheduler.name,
            "capacities": list(self.config.capacities),
            "draining": self._draining,
            "state": self.service_state(),
            "accepted": self._accepted,
            "rejected": self._rejected,
            "duplicates": self._duplicates,
            "cancelled": len(self._cancelled),
            "depths": depths,
            "in_flight": {
                t: self.tenant_in_flight(t)
                for t in sorted(self._flight_of)
                if self.tenant_in_flight(t)
            },
            "certificate_horizon": round(self.certificate_horizon(), 3),
        }

    def drain(self) -> dict:
        """Stop admitting, run the backlog to completion, summarise.

        Idempotent: a second drain returns the same summary.  The
        underlying engine finalizes (journaled services write the
        ``end`` record, so the journal reads as a *completed* run).
        """
        self._draining = True
        if self._trace_writer is not None:
            self._trace_writer.close()
        if self._result is None:
            self._result = self._sim.run()
            self.obs.on_drain(
                self.clock,
                completed=len(self._result.completion_times),
                failed=len(self._result.failed_jobs),
            )
        res = self._result
        per_tenant: dict[str, dict[str, int]] = {}
        for jid, tenant in self._tenant_of.items():
            bucket = per_tenant.setdefault(
                tenant, {"completed": 0, "failed": 0, "cancelled": 0}
            )
            if jid in res.completion_times:
                bucket["completed"] += 1
            elif jid in self._cancelled:
                bucket["cancelled"] += 1
            else:
                bucket["failed"] += 1
        return {
            "ok": True,
            "makespan": res.makespan,
            "digest": int(self._sim.digest()),
            "clock": self.clock,
            "accepted": self._accepted,
            "completed": len(res.completion_times),
            "failed": list(res.failed_jobs),
            "cancelled": sorted(self._cancelled),
            "per_tenant": per_tenant,
            "completions": {
                int(j): int(t) for j, t in res.completion_times.items()
            },
            "releases": {
                int(j): int(r) for j, r in self._release_of.items()
            },
            "response_times": {
                int(j): int(t) - self._release_of[int(j)]
                for j, t in res.completion_times.items()
            },
        }

    def close(self) -> None:
        """Release the journal and trace files without draining.

        The journal keeps every record that reached the disk, so
        :meth:`recover` resumes from it.  When the journal cannot flush
        its buffered tail (a full or failed disk) that tail is lost, as
        in a crash, and the flush's ``OSError`` is raised once both
        files are closed.
        """
        journal = getattr(self._sim, "_journal", None)
        try:
            if journal is not None:
                journal.close()
        finally:
            if self._trace_writer is not None:
                self._trace_writer.close()

    # ------------------------------------------------------------------
    # serving-loop support
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Advance the engine one ``step_slice``; True when quiescent."""
        if self._result is not None:
            return True
        quiescent = self._sim.advance_until(
            self.clock + self.config.step_slice
        )
        if self._recovering:
            # First completed slice after a recovery: the replayed state
            # demonstrably advances, so the degraded rung clears.
            self._recovering = False
            self.service_state()
        return quiescent

    def metrics_registry(self) -> MetricsRegistry:
        """Engine metrics + live service gauges, one scrapeable registry."""
        if self.obs.metrics is not None:
            reg = self.obs.metrics.to_registry()
        else:
            reg = MetricsRegistry()
        reg.gauge(
            "service_clock", "current virtual step of the live engine"
        ).set(self.clock)
        reg.gauge(
            "service_draining", "1 once drain was requested"
        ).set(1.0 if self._draining else 0.0)
        reg.gauge(
            "service_certificate_horizon",
            "Theorem-3 certified completion horizon of the backlog",
        ).set(self.certificate_horizon())
        state = self.service_state()
        reg.gauge(
            "service_state",
            "service state as a numeric code "
            "(0=healthy 1=degraded 2=draining)",
        ).set(service_state_code(state))
        for name in SERVICE_STATES:
            reg.gauge(
                "service_state_info",
                "one-hot service state",
                state=name,
            ).set(1.0 if name == state else 0.0)
        reg.counter(
            "service_state_changes_total",
            "service-state transitions since start",
        ).inc(self._state_changes)
        reg.counter(
            "service_duplicate_submissions_total",
            "submissions deduplicated by idempotency token",
        ).inc(self._duplicates)
        reg.gauge(
            "service_journal_append_latency_seconds",
            "EWMA latency of fsync'd journal appends (write+fsync)",
        ).set(self.journal_latency_s())
        depths = self._sim.queue_depths()
        for state in ("pending", "running", "completed", "failed"):
            reg.gauge(
                "service_jobs", "jobs by lifecycle state", state=state
            ).set(depths[state])
        for tenant in sorted(self._flight_of):
            reg.gauge(
                "service_in_flight",
                "unfinished jobs per tenant",
                tenant=tenant,
            ).set(self.tenant_in_flight(tenant))
        return reg

    def metrics_text(self) -> str:
        """The live ``/metrics`` payload (Prometheus text format)."""
        return self.metrics_registry().to_prometheus_text()

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        config: ServiceConfig,
        *,
        obs: Observability | None = None,
        fault_model=None,
        retry_policy=None,
    ) -> "SchedulingService":
        """Rebuild a crashed service from its write-ahead journal.

        The engine recovers bit-for-bit (checkpoint + digest-verified
        replay of steps *and* submit/cancel records); the service layer
        then re-derives its tenant map, id sequence and cancellation
        set from the journal's submit/cancel records — everything an
        ack ever promised is restored.  Volatile telemetry (rejection
        counters, metrics histograms) restarts from the replayed tail;
        rejections were never acknowledged as durable.

        The churn schedule (capacity faults included) and the stall
        bound come back from the journal.  Fault models and retry
        policies are callables the journal cannot capture — pass the
        identical ones the crashed service ran with (same flags ⇒ same
        models, since the shipped fault models are pure functions of
        (seed, step)).
        """
        if config.journal_path is None:
            raise ServiceError(
                "recover needs config.journal_path pointing at the "
                "crashed service's journal"
            )
        # The engine has read and CRC-checked every record; the service
        # maps come from the same records, not from a second parse.
        sim, records = engine_class(config.engine)._recover(
            config.journal_path,
            fault_model=fault_model,
            retry_policy=retry_policy,
            fsync=config.fsync,
            obs=obs,
        )
        svc = cls(config, obs=sim._obs, _sim=sim)
        for rec in records:
            if rec.type == "submit":
                static = rec.data["job"]["static"]
                jid = int(static["job_id"])
                meta = rec.data.get("meta", {})
                tenant = str(meta.get("tenant", "default"))
                release = int(rec.data["job"]["release_time"])
                svc._tenant_of[jid] = tenant
                svc._flight_of.setdefault(tenant, []).append(jid)
                svc._release_of[jid] = release
                svc._accepted += 1
                svc._next_id = max(svc._next_id, jid + 1)
                token = meta.get("token")
                if token:
                    # Restore the dedupe map with the ack the original
                    # submission was promised — a client retrying across
                    # the crash still gets exactly-once admission.
                    svc._tokens[str(token)] = {
                        "ok": True,
                        "job_id": jid,
                        "tenant": tenant,
                        "release": release,
                        "state": "pending",
                    }
            elif rec.type == "cancel":
                svc._cancelled.add(int(rec.data["job_id"]))
        svc._recovering = True
        svc.service_state()  # publish the degraded rung immediately
        return svc

    @classmethod
    def open(
        cls,
        config: ServiceConfig,
        *,
        obs: Observability | None = None,
        fault_model=None,
        retry_policy=None,
        churn=None,
        max_stall_steps: int = 1000,
    ) -> "SchedulingService":
        """Start fresh, or resume from an existing non-empty journal.

        The idempotent entry point a supervisor restarts through: the
        same command line works for the first boot (no journal on disk
        yet) and for every restart after a crash (journal present, so
        the service recovers digest-verified instead of starting over).
        Returns a service whose ``_recovering`` flag tells the caller
        which path was taken.
        """
        if (
            config.journal_path is not None
            and os.path.exists(config.journal_path)
            and os.path.getsize(config.journal_path) > 0
        ):
            return cls.recover(
                config,
                obs=obs,
                fault_model=fault_model,
                retry_policy=retry_policy,
            )
        return cls(
            config,
            obs=obs,
            fault_model=fault_model,
            retry_policy=retry_policy,
            churn=churn,
            max_stall_steps=max_stall_steps,
        )
