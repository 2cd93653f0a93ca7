"""``repro.obs`` — lightweight observability for both engines.

One :class:`Observability` instance bundles the three telemetry layers
and is handed to a :class:`~repro.sim.engine.Simulator` (or installed
process-wide with :func:`set_default_obs`, which the CLI's ``--obs-out``
/ ``--events-out`` flags use):

* :class:`~repro.obs.events.EventBus` — typed per-step events
  (allocations, DEQ<->RR transitions, fault injections, retries,
  quarantines, checkpoint/journal writes), zero-overhead when nobody
  subscribed;
* :class:`~repro.obs.metrics.RunMetrics` — per-category counters,
  gauges and fixed-bucket histograms with Prometheus-text and JSON
  exporters;
* :class:`~repro.obs.profile.PhaseProfiler` — opt-in per-phase timing
  so speedups can be attributed to specific engine mechanisms.

Observability is strictly read-only: it never touches the RNG, the
scheduler, job state, checkpoints or digests, so a run is byte-identical
with it on or off — ``tests/test_obs.py`` proves that differentially on
the golden THM3/THM5 cells.  See docs/OBSERVABILITY.md for the event
taxonomy, the metric families and measured overhead.
"""

from __future__ import annotations

from repro.obs.events import (
    EVENT_KINDS,
    Event,
    EventBus,
    EventLog,
    JsonlEventWriter,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunMetrics,
    parse_prometheus_text,
)
from repro.obs.profile import PhaseProfiler

__all__ = [
    "EVENT_KINDS",
    "Counter",
    "Event",
    "EventBus",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonlEventWriter",
    "MetricsRegistry",
    "Observability",
    "PhaseProfiler",
    "RunMetrics",
    "get_default_obs",
    "parse_prometheus_text",
    "set_default_obs",
]


class Observability:
    """The bundle the engines consume: bus + metrics + profiler.

    Parameters
    ----------
    metrics:
        Collect :class:`RunMetrics` (default on — the cheap layer).
    profile:
        Attach a :class:`PhaseProfiler` (default off; adds two
        ``perf_counter`` calls per engine phase).
    events_path:
        Open a :class:`JsonlEventWriter` on this path and subscribe it
        to the bus (the CLI's ``--events-out``).  Subscribing activates
        the bus, so per-step events are then built and serialised —
        expect measurable overhead, unlike the metrics layer.
    """

    def __init__(
        self,
        *,
        metrics: bool = True,
        profile: bool = False,
        events_path: str | None = None,
    ) -> None:
        self.bus = EventBus()
        self.metrics = RunMetrics() if metrics else None
        self.profiler = PhaseProfiler() if profile else None
        self._writer: JsonlEventWriter | None = None
        if events_path is not None:
            self._writer = JsonlEventWriter(events_path)
            self.bus.subscribe(self._writer)

    # ------------------------------------------------------------------
    # engine-facing hooks (every one is no-op cheap when the layer is off)
    # ------------------------------------------------------------------
    def on_run_start(self, *, engine, scheduler, capacities, num_jobs):
        if self.metrics is not None:
            self.metrics.record_run_start()
        if self.bus.active:
            self.bus.emit(
                0,
                "run_start",
                engine=engine,
                scheduler=scheduler,
                capacities=list(capacities),
                num_jobs=num_jobs,
            )

    def on_task_failures(self, t, job_id, per_category):
        if self.metrics is not None:
            self.metrics.record_task_failures(sum(per_category))
        if self.bus.active:
            self.bus.emit(
                t, "task_failure", job=job_id, tasks=list(per_category)
            )

    def on_job_kill(self, t, job_id):
        if self.metrics is not None:
            self.metrics.record_job_kill()
        if self.bus.active:
            self.bus.emit(t, "job_kill", job=job_id)

    def on_retry(self, t, job_id, attempt, release):
        if self.metrics is not None:
            self.metrics.record_retry()
        if self.bus.active:
            self.bus.emit(
                t, "retry", job=job_id, attempt=attempt, release=release
            )

    def on_job_failed(self, t, job_id, attempts):
        if self.metrics is not None:
            self.metrics.record_job_failed()
        if self.bus.active:
            self.bus.emit(t, "job_failed", job=job_id, attempts=attempts)

    def on_incident(self, t, *, monitor, job_id, action, message):
        quarantined = action == "quarantined"
        if self.metrics is not None:
            self.metrics.record_incident(monitor, quarantined)
        if self.bus.active:
            self.bus.emit(
                t,
                "incident",
                monitor=monitor,
                job=job_id,
                action=action,
                message=message,
            )
            if quarantined:
                self.bus.emit(t, "quarantine", job=job_id, monitor=monitor)

    # ------------------------------------------------------------------
    # service-facing hooks (repro.service; the engines never call these)
    # ------------------------------------------------------------------
    def on_submit(self, t, *, tenant, job_id, release):
        if self.metrics is not None:
            self.metrics.record_submission(tenant)
        if self.bus.active:
            self.bus.emit(
                t, "submit", tenant=tenant, job=job_id, release=release
            )

    def on_reject(self, t, *, tenant, reason, retry_after):
        if self.metrics is not None:
            self.metrics.record_rejection(reason)
        if self.bus.active:
            self.bus.emit(
                t,
                "reject",
                tenant=tenant,
                reason=reason,
                retry_after=retry_after,
            )

    def on_cancel(self, t, *, tenant, job_id):
        if self.metrics is not None:
            self.metrics.record_cancellation()
        if self.bus.active:
            self.bus.emit(t, "cancel", tenant=tenant, job=job_id)

    def on_drain(self, t, *, completed, failed):
        if self.bus.active:
            self.bus.emit(t, "drain", completed=completed, failed=failed)

    def on_state_change(self, t, *, state, prev):
        if self.metrics is not None:
            self.metrics.record_state_change(state)
        if self.bus.active:
            self.bus.emit(t, "state_change", state=state, prev=prev)

    def on_shard_state_change(self, t, *, shard, state, prev, reason):
        if self.bus.active:
            self.bus.emit(
                t,
                "shard_state_change",
                shard=shard,
                state=state,
                prev=prev,
                reason=reason,
            )

    def on_checkpoint(self, t):
        if self.metrics is not None:
            self.metrics.record_checkpoint()
        if self.bus.active:
            self.bus.emit(t, "checkpoint")

    def on_journal_record(self, t, record_type):
        if self.metrics is not None:
            self.metrics.record_journal(record_type)
        if self.bus.active:
            self.bus.emit(t, "journal", record_type=record_type)

    def on_run_end(
        self,
        t,
        *,
        makespan,
        idle_steps,
        completed,
        failed,
        quarantined,
        utilization,
        transitions,
    ):
        if self.metrics is not None:
            self.metrics.record_run_end(
                makespan=makespan,
                idle_steps=idle_steps,
                utilization=utilization,
                transitions=transitions,
            )
        if self.bus.active:
            self.bus.emit(
                t,
                "run_end",
                makespan=makespan,
                completed=completed,
                failed=failed,
                quarantined=quarantined,
            )

    # ------------------------------------------------------------------
    # export / lifecycle
    # ------------------------------------------------------------------
    def export_prometheus(self) -> str:
        if self.metrics is None:
            raise ValueError(
                "this Observability was built with metrics=False"
            )
        return self.metrics.to_prometheus_text()

    def export_json(self) -> dict:
        if self.metrics is None:
            raise ValueError(
                "this Observability was built with metrics=False"
            )
        return self.metrics.to_dict()

    def write_prometheus(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_prometheus())

    def close(self) -> None:
        """Detach and close the JSONL writer, if any."""
        if self._writer is not None:
            self.bus.unsubscribe(self._writer)
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_DEFAULT_OBS: Observability | None = None


def set_default_obs(obs: Observability | None) -> None:
    """Install (or clear) the process-wide default observability.

    Simulators built without an explicit ``obs=`` pick this up, which is
    how the CLI's ``--obs-out`` / ``--events-out`` flags reach every
    ``simulate()`` call an experiment makes.  ``None`` disables.
    """
    global _DEFAULT_OBS
    _DEFAULT_OBS = obs


def get_default_obs() -> Observability | None:
    return _DEFAULT_OBS
