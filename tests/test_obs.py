"""Observability layer: primitives, engine wiring, and the central
claim that telemetry is read-only — a run is byte-identical with
observability on or off, differentially on the golden THM3/THM5 cells.
"""

import json

import numpy as np
import pytest

from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.obs import (
    EVENT_KINDS,
    EventBus,
    EventLog,
    Histogram,
    JsonlEventWriter,
    MetricsRegistry,
    Observability,
    PhaseProfiler,
    get_default_obs,
    parse_prometheus_text,
    set_default_obs,
)
from repro.schedulers import KRad
from repro.sim import (
    JobKiller,
    RecordingScheduler,
    RetryPolicy,
    ScriptedViolation,
    Supervisor,
    assert_conformant,
    default_monitors,
    reallocation_volume,
    run_conformance,
    simulate,
)
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# golden cells (THM3 / THM5 — the conformance anchors of the repo)
# ----------------------------------------------------------------------
def _thm3_build(obs_factory=None):
    def build():
        rng = np.random.default_rng(0)
        machine = KResourceMachine((4, 2))
        js = workloads.random_phase_jobset(rng, 2, 16, max_work=30)
        kwargs = dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=0,
            record_trace=True,
        )
        if obs_factory is not None:
            kwargs["obs"] = obs_factory()
        return kwargs

    return build


def _thm5_build(obs_factory=None):
    def build():
        rng = np.random.default_rng(0)
        machine = KResourceMachine((6, 4))
        js = workloads.light_phase_jobset(rng, machine, 4)
        kwargs = dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=0,
            record_trace=True,
        )
        if obs_factory is not None:
            kwargs["obs"] = obs_factory()
        return kwargs

    return build


@pytest.fixture(autouse=True)
def _no_default_obs():
    """Keep the process-wide default clear across tests."""
    set_default_obs(None)
    yield
    set_default_obs(None)


# ----------------------------------------------------------------------
# event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_idle_bus_is_inactive_and_emit_is_noop(self):
        bus = EventBus()
        assert not bus.active
        bus.emit(3, "step", progress=1)  # must not raise, nothing stored

    def test_subscribe_activates_and_unsubscribe_deactivates(self):
        bus, log = EventBus(), EventLog()
        bus.subscribe(log)
        assert bus.active
        bus.emit(1, "checkpoint")
        bus.unsubscribe(log)
        assert not bus.active
        bus.emit(2, "checkpoint")
        assert [e.t for e in log.events] == [1]

    def test_event_payload_and_to_dict(self):
        bus, log = EventBus(), EventLog()
        bus.subscribe(log)
        bus.emit(7, "retry", job=3, attempt=2, release=9)
        (e,) = log.events
        assert (e.t, e.kind) == (7, "retry")
        assert e.to_dict() == {
            "t": 7,
            "kind": "retry",
            "job": 3,
            "attempt": 2,
            "release": 9,
        }

    def test_fan_out_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.kind)))
        bus.subscribe(lambda e: seen.append(("b", e.kind)))
        bus.emit(0, "run_start")
        assert seen == [("a", "run_start"), ("b", "run_start")]

    def test_eventlog_of_kind_and_counts(self):
        bus, log = EventBus(), EventLog()
        bus.subscribe(log)
        bus.emit(1, "step")
        bus.emit(1, "alloc")
        bus.emit(2, "step")
        assert len(log.of_kind("step")) == 2
        assert log.kinds() == {"step": 2, "alloc": 1}


class TestJsonlEventWriter:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with JsonlEventWriter(str(path)) as w:
            bus.subscribe(w)
            bus.emit(1, "step", progress=np.int64(5), desired=np.arange(2))
            bus.emit(2, "run_end", makespan=4)
        lines = path.read_text().splitlines()
        assert w.count == 2
        first = json.loads(lines[0])
        assert first == {
            "t": 1,
            "kind": "step",
            "progress": 5,
            "desired": [0, 1],
        }
        assert json.loads(lines[1])["kind"] == "run_end"

    def test_rejects_unserialisable_payload(self, tmp_path):
        with JsonlEventWriter(str(tmp_path / "e.jsonl")) as w:
            with pytest.raises(TypeError, match="not JSON-serialisable"):
                w(type("E", (), {"to_dict": lambda s: {"x": object()}})())


# ----------------------------------------------------------------------
# metric primitives + exporters
# ----------------------------------------------------------------------
class TestHistogram:
    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram((1.0, 1.0))

    def test_observe_places_inclusive_upper_bounds(self):
        h = Histogram((1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 2.0, 99.0):
            h.observe(v)
        assert h.counts == [2, 2, 1]  # <=1, <=2, +Inf
        assert h.cumulative() == [2, 4, 5]
        assert h.count == 5 and h.sum == pytest.approx(104.0)


class TestMetricsRegistry:
    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().counter("x_total").inc(-1)

    def test_text_round_trips_through_strict_parser(self):
        reg = MetricsRegistry()
        reg.counter("retries_total", "retries", category=0).inc(3)
        reg.gauge("last_makespan", "makespan").set(17)
        h = reg.histogram("wall_seconds", "wall", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        samples = parse_prometheus_text(reg.to_prometheus_text())
        assert samples['krad_retries_total{category="0"}'] == 3
        assert samples["krad_last_makespan"] == 17
        assert samples['krad_wall_seconds_bucket{le="+Inf"}'] == 2
        assert samples["krad_wall_seconds_count"] == 2

    def test_parser_rejects_undeclared_and_duplicates(self):
        with pytest.raises(ValueError, match="undeclared"):
            parse_prometheus_text("krad_mystery_total 3\n")
        dup = (
            "# TYPE krad_x_total counter\n"
            "krad_x_total 1\nkrad_x_total 2\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_prometheus_text(dup)
        with pytest.raises(ValueError, match="unparsable"):
            parse_prometheus_text(
                "# TYPE krad_x_total counter\nkrad_x_total abc\n"
            )


class TestPhaseProfiler:
    def test_laps_accumulate_per_phase(self):
        prof = PhaseProfiler()
        prof.step_begin()
        prof.lap("arrivals")
        prof.lap("execution")
        prof.step_begin()
        prof.lap("arrivals")
        assert prof.counts == {"arrivals": 2, "execution": 1}
        assert prof.total == pytest.approx(sum(prof.totals.values()))
        assert "arrivals" in prof.report()


# ----------------------------------------------------------------------
# the central claim: obs on/off is byte-identical, on the golden cells
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cell", [_thm3_build, _thm5_build], ids=["thm3", "thm5"]
)
def test_obs_on_off_identical_on_golden_cells(cell, tmp_path):
    """Traces, result fingerprints, metrics and per-step journal digests
    are identical with observability off, metrics-only, and full event
    streaming — on both engines."""
    off = run_conformance(cell(None), check_journal=True)
    on = run_conformance(
        cell(lambda: Observability(profile=True)), check_journal=True
    )
    streamed = run_conformance(
        cell(
            lambda: Observability(events_path=str(tmp_path / "ev.jsonl"))
        ),
        check_journal=True,
    )
    assert off.ok and on.ok and streamed.ok
    for variant in (on, streamed):
        assert variant.fingerprints == off.fingerprints
        assert variant.traces == off.traces
        assert variant.metrics == off.metrics
        assert variant.journal_digests == off.journal_digests


def test_engine_metrics_match_reference_counters():
    """RunMetrics totals line up with the finished result's counters."""
    kwargs = _thm3_build(Observability)()
    obs = kwargs["obs"]
    machine, sched, js = (
        kwargs["machine"],
        kwargs["scheduler"],
        kwargs["jobset"],
    )
    result = simulate(machine, sched, js, seed=0, record_trace=True, obs=obs)
    m = obs.metrics
    assert m.runs == 1
    assert m.completions == len(result.completion_times) == 16
    assert m.steps == result.makespan
    assert m.last_makespan == result.makespan
    assert m.progress == int(np.asarray(result.busy).sum())
    assert m.last_utilization == tuple(
        float(u) for u in result.utilization_vector()
    )
    # transitions exported per category, kinds from the RAD ledger
    assert len(m.transitions) == 2
    assert all(
        k in {"deq_to_rr", "rr_to_deq", "rebatch", "absorb"}
        for cat in m.transitions
        for k in cat
    )


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_realloc_metric_equals_trace_volume(engine):
    """The streaming reallocation counter reproduces the trace-derived
    post-hoc metric exactly, on both engines' traced paths."""
    kwargs = _thm3_build(Observability)()
    obs = kwargs["obs"]
    result = simulate(
        kwargs["machine"],
        kwargs["scheduler"],
        kwargs["jobset"],
        seed=0,
        record_trace=True,
        engine=engine,
        obs=obs,
    )
    assert obs.metrics.realloc_units == pytest.approx(
        reallocation_volume(result.trace)["total"]
    )


def test_lean_path_metrics_match_reference():
    """The fast engine's untraced lean path (matrix allocations) exports
    the same telemetry as the reference engine, family by family."""
    report = assert_conformant(_thm5_build(None))
    steps = report.telemetry["fast"]["krad_steps_total"]["values"]["{}"]
    assert steps == report.fingerprints["fast"]["makespan"]


def test_fault_run_exports_nonzero_retry_counters(tmp_path):
    """Acceptance cell: a fault-injected run's Prometheus export parses
    strictly and shows nonzero kill/retry counters; the JSONL stream
    carries the matching typed events."""
    events = tmp_path / "events.jsonl"
    rng = np.random.default_rng(3)
    machine = KResourceMachine((4, 4))
    js = workloads.random_phase_jobset(rng, 2, 12, max_work=30)
    with Observability(events_path=str(events)) as obs:
        simulate(
            machine,
            KRad(machine),
            js,
            seed=3,
            fault_model=JobKiller(0.05, seed=11),
            retry_policy=RetryPolicy(max_attempts=4),
            obs=obs,
        )
        text = obs.export_prometheus()
    samples = parse_prometheus_text(text)
    assert samples["krad_job_kills_total"] > 0
    assert samples["krad_retries_total"] > 0
    kinds = {
        json.loads(line)["kind"]
        for line in events.read_text().splitlines()
    }
    assert {"job_kill", "retry", "run_start", "step", "run_end"} <= kinds
    assert kinds <= set(EVENT_KINDS)


def test_supervised_run_exports_quarantine_counters():
    """Acceptance cell: a quarantining supervisor run shows nonzero
    incident and quarantine counters in the export."""
    rng = np.random.default_rng(8)
    machine = KResourceMachine((4, 4))
    js = workloads.random_phase_jobset(rng, 2, 8, max_work=25)
    monitors = default_monitors()
    monitors.append(ScriptedViolation(step=6, job_id=js[0].job_id))
    obs = Observability()
    result = simulate(
        machine,
        KRad(machine),
        js,
        seed=8,
        supervisor=Supervisor(monitors, mode="resilient"),
        obs=obs,
    )
    assert result.quarantined_jobs  # the drill actually quarantined
    samples = parse_prometheus_text(obs.export_prometheus())
    assert samples["krad_quarantines_total"] > 0
    assert (
        samples['krad_incidents_total{monitor="scripted-violation"}'] > 0
    )


def test_journal_and_checkpoint_counters(tmp_path):
    from repro.sim.journal import Journal

    obs = Observability()
    kwargs = _thm3_build(None)()
    sim = Simulator(
        kwargs["machine"],
        kwargs["scheduler"],
        kwargs["jobset"],
        seed=0,
        journal=Journal(str(tmp_path / "run.journal"), checkpoint_every=10),
        obs=obs,
    )
    sim.run()
    m = obs.metrics
    assert m.checkpoints > 0
    assert m.journal_records.get("step", 0) > 0
    assert m.journal_records.get("meta", 0) == 1
    assert m.journal_records.get("end", 0) == 1
    assert m.journal_records.get("checkpoint", 0) == m.checkpoints


def test_event_stream_kinds_are_within_taxonomy(tmp_path):
    """Every emitted kind on a full-featured run is a declared kind."""
    log = EventLog()
    obs = Observability()
    obs.bus.subscribe(log)
    kwargs = _thm5_build(None)()
    simulate(
        kwargs["machine"],
        kwargs["scheduler"],
        kwargs["jobset"],
        seed=0,
        engine="fast",
        obs=obs,
    )
    kinds = set(log.kinds())
    assert kinds <= set(EVENT_KINDS)
    assert {"run_start", "step", "alloc", "run_end"} <= kinds


def test_transition_events_sum_to_scheduler_ledger():
    log = EventLog()
    obs = Observability()
    obs.bus.subscribe(log)
    kwargs = _thm3_build(None)()
    sched = kwargs["scheduler"]
    simulate(
        kwargs["machine"], sched, kwargs["jobset"], seed=0, obs=obs
    )
    emitted: dict[tuple, int] = {}
    for e in log.of_kind("transition"):
        key = (e.data["category"], e.data["transition"])
        emitted[key] = emitted.get(key, 0) + e.data["count"]
    ledger = {
        (alpha, kind): n
        for alpha, cat in enumerate(sched.obs_transitions())
        for kind, n in cat.items()
        if n
    }
    assert emitted == ledger


# ----------------------------------------------------------------------
# default-obs installation (the CLI's process-wide hook)
# ----------------------------------------------------------------------
def test_default_obs_reaches_implicit_simulators():
    obs = Observability()
    set_default_obs(obs)
    assert get_default_obs() is obs
    kwargs = _thm3_build(None)()
    simulate(kwargs["machine"], kwargs["scheduler"], kwargs["jobset"], seed=0)
    assert obs.metrics.runs == 1
    set_default_obs(None)
    kwargs = _thm3_build(None)()
    simulate(kwargs["machine"], kwargs["scheduler"], kwargs["jobset"], seed=0)
    assert obs.metrics.runs == 1  # uninstalled: no longer observed


def test_explicit_obs_wins_over_default():
    installed, explicit = Observability(), Observability()
    set_default_obs(installed)
    kwargs = _thm3_build(None)()
    simulate(
        kwargs["machine"],
        kwargs["scheduler"],
        kwargs["jobset"],
        seed=0,
        obs=explicit,
    )
    assert explicit.metrics.runs == 1
    assert installed.metrics.runs == 0


def test_observability_without_metrics_rejects_export():
    obs = Observability(metrics=False)
    with pytest.raises(ValueError, match="metrics=False"):
        obs.export_prometheus()
    with pytest.raises(ValueError, match="metrics=False"):
        obs.export_json()


def test_profiler_attributes_engine_phases():
    for engine, expect in (
        ("reference", {"arrivals", "desires", "allotment", "execution"}),
        ("fast", {"arrivals", "allotment", "execution"}),
    ):
        obs = Observability(profile=True)
        kwargs = _thm3_build(None)()
        simulate(
            kwargs["machine"],
            kwargs["scheduler"],
            kwargs["jobset"],
            seed=0,
            engine=engine,
            obs=obs,
        )
        assert expect <= set(obs.profiler.totals), engine
        assert obs.profiler.total > 0


# ----------------------------------------------------------------------
# RecordingScheduler: records, bus streaming, forwarding
# ----------------------------------------------------------------------
class TestRecordingScheduler:
    def _run(self, **wrap_kwargs):
        rng = np.random.default_rng(0)
        machine = KResourceMachine((1,))  # 1 processor, 3 jobs: RR forced
        js = workloads.random_phase_jobset(
            rng, 1, 3, max_work=12, max_parallelism=2
        )
        sched = RecordingScheduler(KRad(machine), **wrap_kwargs)
        result = simulate(machine, sched, js, seed=0)
        return sched, result

    def test_records_cover_starved_jobs(self):
        """With 3 jobs on 1 processor some step has a job alpha-active
        (positive desire) but unserved — active_jobs must include it,
        served_jobs must not."""
        sched, result = self._run()
        assert sched.keep_records and sched.records
        starved = [
            rec
            for rec in sched.records
            if set(rec.active_jobs(0)) - set(rec.served_jobs(0))
        ]
        assert starved, "expected at least one starved (RR-waiting) job"
        rec = starved[0]
        assert set(rec.served_jobs(0)) <= set(rec.active_jobs(0))
        for jid in rec.active_jobs(0):
            assert rec.desires[jid][0] > 0
        for jid in rec.served_jobs(0):
            assert rec.allotments[jid][0] > 0

    def test_bus_streaming_defaults_to_no_records(self):
        bus, log = EventBus(), EventLog()
        bus.subscribe(log)
        sched, result = self._run(bus=bus)
        assert not sched.keep_records and not sched.records
        allocs = log.of_kind("alloc")
        assert len(allocs) == result.makespan
        assert all(e.data["source"] == "scheduler" for e in allocs)
        # stream carries the same starvation signal the records would
        assert any(
            any(
                d[0] > 0 and e.data["allotments"].get(jid, [0])[0] == 0
                for jid, d in e.data["desires"].items()
            )
            for e in allocs
        )

    def test_keep_records_true_gives_both(self):
        bus, log = EventBus(), EventLog()
        bus.subscribe(log)
        sched, result = self._run(bus=bus, keep_records=True)
        assert len(sched.records) == len(log.of_kind("alloc"))
        assert len(sched.records) == result.makespan

    def test_idle_bus_emits_nothing(self):
        sched, _ = self._run(bus=EventBus(), keep_records=True)
        assert sched.records  # recording still on explicitly

    def test_forwards_capacity_change_and_obs_surface(self):
        calls = []

        class Probe(KRad):
            def notify_capacity_change(self, old, new):
                calls.append((tuple(old), tuple(new)))
                super().notify_capacity_change(old, new)

        machine = KResourceMachine((4, 2))
        sched = RecordingScheduler(Probe(machine))
        sched.reset(machine)
        sched.notify_capacity_change((4, 2), (2, 2))
        assert calls == [((4, 2), (2, 2))]
        assert sched.obs_rr_depths() == sched.inner.obs_rr_depths()
        assert sched.obs_transitions() == sched.inner.obs_transitions()

    def test_wrapped_conformance_under_churn(self):
        """The wrapper stays transparent across engines even when the
        capacity-change hook must migrate RAD state mid-run."""
        from repro.machine.churn import ChurnEvent, ChurnSchedule

        def build():
            rng = np.random.default_rng(6)
            machine = KResourceMachine((4, 4))
            js = workloads.random_phase_jobset(rng, 2, 10, max_work=30)
            churn = ChurnSchedule(
                (4, 4), [ChurnEvent(5, 0, -3, duration=10)]
            )
            return dict(
                machine=machine,
                scheduler=RecordingScheduler(KRad(machine)),
                jobset=js,
                seed=6,
                record_trace=True,
                churn=churn,
            )

        # identical to the unwrapped scenario, proving transparency
        wrapped = run_conformance(build, check_journal=False)
        assert wrapped.ok
        base = run_conformance(
            lambda: {**build(), "scheduler": KRad()}, check_journal=False
        )
        assert wrapped.traces == base.traces
