"""In-memory span tracer that wraps the program's public calls.

The benchmark never edits the program: it replaces selected methods and
functions with timing wrappers for the duration of a traced run and puts
the originals back afterwards.  A span is one call of a wrapped function;
spans nest, and each span's *self time* is its duration minus the time
covered by the spans it encloses, so the per-layer seconds add up to the
traced wall time without double counting.

A span whose name is already open on the stack (``FastSimulator.digest``
calling ``Simulator.digest`` through ``super()``, a composite fault model
calling its parts) is not counted again.  Hot per-job calls are wrapped
as counters only, which keeps the tracing overhead small and measurable.
"""

from __future__ import annotations

import os
import time
import types
from collections import defaultdict

from common import high_percentile, median, metric_units

_clock = time.perf_counter


class Tracer:
    """Aggregated spans plus the per-request records a run joins on."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: inclusive per-call durations, kept for spans with percentiles
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: acknowledged job id -> seconds the server spent in ``submit``
        self.submit_s: dict[int, float] = {}
        #: virtual steps, executed and wasted work of every finished run
        self.virtual_steps = 0
        self.work_executed = 0
        self.work_wasted = 0
        self._stack: list[list] = []  # [name, seconds covered by children]
        self._open: dict[str, int] = defaultdict(int)
        self._queued: dict[int, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back (reverse order)."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def span(self, owner, attr: str, name, *, keep=False, on_exit=None):
        """Time ``owner.attr`` as span ``name``.

        ``name`` may be a callable of the call's arguments (one span name
        per journal record type).  ``keep`` stores each inclusive duration
        for percentiles; ``on_exit(args, result, seconds, outermost)`` runs
        after the span closes.
        """
        orig = owner.__dict__[attr]
        stack, open_, calls, self_s = (
            self._stack, self._open, self.calls, self.self_s
        )
        samples = self.samples

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if open_[label]:
                return orig(*args, **kwargs)
            open_[label] += 1
            frame = [label, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                open_[label] -= 1
                calls[label] += 1
                self_s[label] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if keep:
                    samples[label].append(dt)
            if on_exit is not None:
                on_exit(args, result, dt, not stack)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of a hot per-job method without timing them."""
        orig = owner.__dict__[attr]
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def span_all(self, classes, attr: str, name, **kwargs) -> None:
        """:meth:`span` on every class that defines ``attr`` itself."""
        for cls in classes:
            if attr in cls.__dict__:
                self.span(cls, attr, name, **kwargs)

    def count_all(self, classes, attr: str, name: str) -> None:
        for cls in classes:
            if attr in cls.__dict__:
                self.count(cls, attr, name)

    # ------------------------------------------------------------------
    # layer sets
    # ------------------------------------------------------------------
    def install_engine_layers(self) -> None:
        """Engine, K-RAD, jobs, faults, journal, serialize and obs."""
        from repro.jobs.base import Job
        from repro.jobs.dag_job import DagJob
        from repro.jobs.phase_job import PhaseJob
        from repro.io import serialize
        from repro.obs.metrics import RunMetrics
        from repro.schedulers.krad import KRad, KRadBatch
        from repro.sim import faults, journal
        from repro.sim.engine import Simulator
        from repro.sim.fastengine import FastSimulator

        engines = (FastSimulator, Simulator)
        for attr in ("inject_job", "advance_until", "run", "digest",
                     "checkpoint"):
            self.span_all(engines, attr, f"engine.{attr}")
        self.span(KRad, "allocate", "krad.allocate")
        self.span(KRadBatch, "allocate", "krad.allocate")
        self.span(KRadBatch, "allocate_matrix", "krad.allocate")
        jobs = (Job, PhaseJob, DagJob)
        self.count_all(jobs, "desire_vector", "jobs.desire_vector")
        self.count_all(jobs, "advance_steady", "jobs.advance_steady")
        self.span_all(jobs, "execute", "jobs.execute")
        models = [
            obj for obj in vars(faults).values()
            if isinstance(obj, type) and issubclass(obj, faults.FaultModel)
        ]
        self.span_all(models, "task_failures", "faults")
        self.span_all(models, "job_kills", "faults")
        self.span(
            journal.Journal, "append",
            lambda _self, rtype, _data: f"journal.append.{rtype}",
        )
        # the journal reaches fsync through its module's ``os`` name
        timed_os = types.SimpleNamespace(**vars(os))
        self.span(timed_os, "fsync", "journal.fsync")
        self._patch(journal, "os", timed_os)
        self.span(serialize, "job_from_dict", "serialize.job_from_dict")
        for attr in list(RunMetrics.__dict__):
            if attr.startswith("record_"):
                self.span(RunMetrics, attr, "obs.record")

    def install_service_layers(self) -> None:
        """Server-side layers: queue, admission, core, shard, router."""
        from repro.service.admission import AdmissionController
        from repro.service.core import SchedulingService
        from repro.service.queue import FairSubmissionQueue
        from repro.service.router import ConsistentHashRing, RoutingTable
        from repro.service.shard import ShardedSchedulingService, ShardSupervisor

        self.install_engine_layers()
        self._install_queue(FairSubmissionQueue)

        def on_decide(_args, decision, _dt, _outer):
            if decision.accepted:
                self.calls["admission.accepted"] += 1

        self.span(AdmissionController, "decide", "admission.decide",
                  on_exit=on_decide)

        def on_submit(_args, ack, dt, outermost):
            if outermost and ack.get("ok"):
                self.submit_s[int(ack["job_id"])] = dt

        def on_drain(args, _summary, _dt, _outer):
            self.add_result(args[0].result)

        self.span(SchedulingService, "submit", "core.submit",
                  on_exit=on_submit)
        self.span(SchedulingService, "tick", "core.tick", keep=True)
        self.span(SchedulingService, "drain", "core.drain",
                  on_exit=on_drain)
        self.span(ShardedSchedulingService, "submit", "shard.submit",
                  on_exit=on_submit)
        self.span(ShardedSchedulingService, "tick", "shard.tick")
        self.span(ShardSupervisor, "tick_all", "shard.tick_all")
        self.span(RoutingTable, "shard_for", "router.shard_for")
        self.span(ConsistentHashRing, "shard_for", "router.shard_for")

    def _install_queue(self, queue_cls) -> None:
        push, pop = queue_cls.__dict__["push"], queue_cls.__dict__["pop"]
        queued, waits = self._queued, self.samples["queue.wait"]

        def timed_push(q, tenant, item):
            queued[id(item)] = _clock()
            return push(q, tenant, item)

        def timed_pop(q):
            tenant, item = pop(q)
            t0 = queued.pop(id(item), None)
            if t0 is not None:
                waits.append(_clock() - t0)
            return tenant, item

        self._patch(queue_cls, "push", timed_push)
        self._patch(queue_cls, "pop", timed_pop)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def add_result(self, result) -> None:
        """Account one finished run's virtual steps and work."""
        self.virtual_steps += int(result.makespan)
        self.work_executed += int(result.busy.sum())
        self.work_wasted += int(result.wasted_work_vector().sum())

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "submit_s": {str(k): v for k, v in self.submit_s.items()},
            "virtual_steps": self.virtual_steps,
            "work_executed": self.work_executed,
            "work_wasted": self.work_wasted,
        }


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: every per-layer metric, in the order of ``BENCHMARK.json``.  Counts and
#: seconds are per pass: one serve round (the round's submissions plus
#: its drain), one replay of every scenario trace, or one simulate() of
#: each DAG mix.  ``.s`` is self time; a layer that does not run reads 0.
PER_LAYER = list(metric_units("per_layer"))


def merge(dumps: list[dict]) -> dict:
    """Sum several :meth:`Tracer.to_dict` dumps into one."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "samples": defaultdict(list), "virtual_steps": 0,
           "work_executed": 0, "work_wasted": 0}
    for d in dumps:
        for key in ("calls", "self_s"):
            for name, v in d[key].items():
                out[key][name] += v
        for name, v in d["samples"].items():
            out["samples"][name].extend(v)
        for key in ("virtual_steps", "work_executed", "work_wasted"):
            out[key] += d[key]
    return out


def layer_metrics(spans: dict, *, passes: int, submits: int = 0,
                  wait_ms=(), journal_bytes: int = 0,
                  replay_s: dict | None = None,
                  overhead: float = 0.0) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from merged spans of ``passes``."""
    calls, self_s, samples = spans["calls"], spans["self_s"], spans["samples"]

    def p99_ms(values) -> float:
        return high_percentile(values)[0] * 1e3 if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {
        "server.wait_ms.p50": median(wait_ms) if wait_ms else 0.0,
        "server.wait_ms.p99": high_percentile(wait_ms)[0] if wait_ms else 0.0,
        "queue.wait_ms.p99": p99_ms(samples.get("queue.wait")),
        "core.tick.ms.p99": p99_ms(samples.get("core.tick")),
        "admission.accept_ratio": ratio(calls.get("admission.accepted", 0),
                                        calls.get("admission.decide", 0)),
        "krad.allocs_per_step": ratio(calls.get("krad.allocate", 0),
                                      spans["virtual_steps"]),
        "faults.goodput_ratio": ratio(
            spans["work_executed"] - spans["work_wasted"],
            spans["work_executed"]),
        "journal.bytes_per_submit": ratio(journal_bytes, submits),
        "journal.fsyncs_per_submit": ratio(calls.get("journal.fsync", 0),
                                           submits),
        "trace.overhead_frac": overhead,
    }
    for name in PER_LAYER:
        if name in m:
            continue
        if name.startswith("replay."):
            m[name] = (replay_s or {}).get(name[len("replay."):-2], 0.0)
        elif name.endswith(".calls"):
            m[name] = calls.get(name[:-6], 0) / passes
        else:
            m[name] = self_s.get(name[:-2], 0.0) / passes
    return {name: m[name] for name in PER_LAYER}


def shares(spans: dict, passes: int, wall_s: float, top: int = 12) -> list:
    """The largest self times per pass, as ``(span, seconds, share of
    the pass's wall time)``: the layer shares of one traced run."""
    per_pass = sorted(((name, v / passes) for name, v in
                       spans["self_s"].items()), key=lambda kv: -kv[1])
    return [(name, v, v / wall_s) for name, v in per_pass[:top]]
