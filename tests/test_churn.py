"""Elastic processor churn: events, schedules, and scheduler migration.

Churn is the engine's one capacity timeline: one-off events may *grow* a
category past the nominal machine, while recurring windows and random
availability (the capacity faults of :mod:`repro.sim.faults`) only remove
processors.  These tests pin the event/schedule semantics, the document
round trip, the engine integration (rebinds, boundary notifications,
envelope-sized traces), the forced RAD DEQ<->RR state migrations, and the
time-expanded-LB certificate.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.errors import SerializationError, SimulationError
from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.machine.churn import ChurnEvent, ChurnSchedule
from repro.schedulers import KRad
from repro.sim import Simulator, simulate, validate_schedule
from repro.theory import bounds


class TestChurnEvent:
    def test_permanent_event_active_forever(self):
        ev = ChurnEvent(step=3, category=0, delta=-2)
        assert not ev.active_at(1)
        assert not ev.active_at(2)
        assert ev.active_at(3)
        assert ev.active_at(10_000)

    def test_transient_event_window(self):
        ev = ChurnEvent(step=3, category=1, delta=2, duration=4)
        assert not ev.active_at(2)
        assert ev.active_at(3)
        assert ev.active_at(6)  # live for exactly `duration` steps
        assert not ev.active_at(7)

    def test_recurring_window(self):
        ev = ChurnEvent(step=3, category=0, delta=-2, duration=2, period=5)
        live = [t for t in range(1, 16) if ev.active_at(t)]
        assert live == [3, 4, 8, 9, 13, 14]

    def test_validation(self):
        with pytest.raises(SimulationError):
            ChurnEvent(step=0, category=0, delta=1)
        with pytest.raises(SimulationError):
            ChurnEvent(step=1, category=0, delta=0)
        with pytest.raises(SimulationError):
            ChurnEvent(step=1, category=0, delta=1, duration=0)
        with pytest.raises(SimulationError, match="duration <= period"):
            ChurnEvent(step=1, category=0, delta=-1, duration=6, period=5)
        with pytest.raises(SimulationError, match="duration <= period"):
            ChurnEvent(step=1, category=0, delta=-1, period=5)
        with pytest.raises(SimulationError, match="delta < 0"):
            ChurnEvent(step=1, category=0, delta=1, duration=1, period=5)

    def test_dict_round_trip(self):
        ev = ChurnEvent(step=5, category=1, delta=-3, duration=2)
        assert ChurnEvent.from_dict(ev.to_dict()) == ev
        perm = ChurnEvent(step=2, category=0, delta=4)
        assert ChurnEvent.from_dict(perm.to_dict()) == perm
        cyc = ChurnEvent(step=1, category=0, delta=-1, duration=2, period=7)
        assert ChurnEvent.from_dict(cyc.to_dict()) == cyc


class TestChurnSchedule:
    def test_capacities_sum_active_deltas(self):
        churn = ChurnSchedule(
            (4, 2),
            [
                ChurnEvent(step=2, category=0, delta=-1, duration=3),
                ChurnEvent(step=3, category=0, delta=-1),
                ChurnEvent(step=3, category=1, delta=2),
            ],
        )
        assert churn.capacities(1) == (4, 2)
        assert churn.capacities(2) == (3, 2)
        assert churn.capacities(3) == (2, 4)
        assert churn.capacities(5) == (3, 4)  # transient reverted

    def test_growth_past_nominal(self):
        churn = ChurnSchedule(
            (4, 2), [ChurnEvent(step=2, category=0, delta=8)]
        )
        assert churn.capacities(2) == (12, 2)
        assert churn.peak_capacities() == (12, 2)

    def test_removals_clamp_at_zero(self):
        churn = ChurnSchedule(
            (2,), [ChurnEvent(step=1, category=0, delta=-5)]
        )
        assert churn.capacities(1) == (0,)

    def test_availability_thins_after_events(self):
        events = [ChurnEvent(step=1, category=0, delta=4)]
        full = ChurnSchedule((4, 2), events)
        thin = ChurnSchedule((4, 2), events, availability=0.5, seed=3)
        draws = [thin.capacities(t) for t in range(1, 40)]
        assert all(
            0 <= c <= f for t, caps in enumerate(draws, start=1)
            for c, f in zip(caps, full.capacities(t))
        )
        assert draws != [full.capacities(t) for t in range(1, 40)]
        assert thin.capacities(7) == thin.capacities(7)
        same = ChurnSchedule((4, 2), events, availability=0.5, seed=3)
        assert [same.capacities(t) for t in range(1, 40)] == draws

    def test_peak_ignores_removal_only_parts(self):
        churn = ChurnSchedule(
            (4, 2),
            [
                ChurnEvent(step=1, category=0, delta=-3, duration=2, period=4),
                ChurnEvent(step=3, category=1, delta=2, duration=2),
            ],
            availability=0.3,
        )
        assert churn.peak_capacities() == (4, 4)
        assert churn.breakpoints() == (1, 3, 5)

    def test_version_1_document_still_loads(self):
        doc = {
            "format": "churn-schedule",
            "version": 1,
            "nominal": [4, 2],
            "events": [
                {"step": 2, "category": 0, "delta": -1, "duration": 3}
            ],
        }
        churn = ChurnSchedule.from_dict(doc)
        assert churn.events == (
            ChurnEvent(step=2, category=0, delta=-1, duration=3),
        )
        assert churn.availability is None
        assert churn.to_dict()["version"] == 2

    def test_breakpoints(self):
        churn = ChurnSchedule(
            (4, 2),
            [
                ChurnEvent(step=3, category=0, delta=-1, duration=4),
                ChurnEvent(step=5, category=1, delta=1),
            ],
        )
        assert churn.breakpoints() == (1, 3, 5, 7)

    def test_validation(self):
        with pytest.raises(SimulationError):
            ChurnSchedule((0,), [])
        with pytest.raises(SimulationError):
            ChurnSchedule((4,), [ChurnEvent(step=1, category=1, delta=1)])
        with pytest.raises(SimulationError):
            ChurnSchedule((4,), ["not an event"])
        with pytest.raises(SimulationError, match="availability"):
            ChurnSchedule((4,), availability=1.5)

    def test_dict_round_trip(self):
        churn = ChurnSchedule(
            (4, 2),
            [
                ChurnEvent(step=2, category=0, delta=-2, duration=3),
                ChurnEvent(step=4, category=1, delta=5),
            ],
        )
        clone = ChurnSchedule.from_dict(churn.to_dict())
        assert clone.nominal == churn.nominal
        assert clone.events == churn.events
        for t in range(1, 12):
            assert clone.capacities(t) == churn.capacities(t)

    def test_from_dict_rejects_bad_documents(self):
        with pytest.raises(SerializationError):
            ChurnSchedule.from_dict({"format": "jobset"})
        good = ChurnSchedule((4,), []).to_dict()
        good["version"] = 99
        with pytest.raises(SerializationError):
            ChurnSchedule.from_dict(good)

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"nominal": None}, "nominal"),
            ({"events": None}, "events"),
            ({"nominal": ["x"]}, "nominal"),
            ({"events": [{"category": 0, "delta": 1}]}, "step"),
            ({"events": [{"step": "x", "category": 0, "delta": 1}]}, "step"),
            ({"events": [[1, 0, 1]]}, "mapping"),
            (
                {"events": [{"step": 1, "category": 0, "delta": -1,
                             "duration": 1, "period": "x"}]},
                "period",
            ),
            (
                {"events": [{"step": 1, "category": 0, "delta": -1,
                             "duration": 3, "period": 2}]},
                "period",
            ),
            (
                {"events": [{"step": 1, "category": 0, "delta": 2,
                             "duration": 1, "period": 2}]},
                "delta < 0",
            ),
            ({"availability": 0.5}, "availability"),
            ({"availability": {"p": "x", "seed": 0}}, "availability"),
            ({"availability": {"p": 0.5}}, "availability"),
            ({"availability": {"p": 2.0, "seed": 0}}, "availability"),
        ],
        ids=[
            "no-nominal", "no-events", "str-nominal", "event-no-step",
            "event-str-step", "event-array", "event-str-period",
            "event-period-below-duration", "event-recurring-growth",
            "availability-scalar", "availability-str-p",
            "availability-no-seed", "availability-out-of-range",
        ],
    )
    def test_from_dict_names_the_malformed_field(self, patch, field):
        doc = ChurnSchedule((4,), []).to_dict()
        doc.update(patch)
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(SerializationError, match=field):
            ChurnSchedule.from_dict(doc)


class TestEngineUnderChurn:
    def test_shrink_slows_but_completes(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 8, size_hint=20)
        healthy = simulate(machine2, KRad(), js)
        churn = ChurnSchedule(
            (4, 2), [ChurnEvent(step=3, category=0, delta=-3)]
        )
        churned = simulate(machine2, KRad(), js, churn=churn)
        assert set(churned.completion_times) == set(
            healthy.completion_times
        )
        assert churned.makespan >= healthy.makespan

    def test_growth_never_hurts(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 10, size_hint=20)
        healthy = simulate(machine2, KRad(), js)
        churn = ChurnSchedule(
            (4, 2),
            [
                ChurnEvent(step=2, category=0, delta=4),
                ChurnEvent(step=2, category=1, delta=2),
            ],
        )
        grown = simulate(machine2, KRad(), js, churn=churn)
        assert grown.makespan <= healthy.makespan
        assert len(grown.completion_times) == len(js)

    def test_trace_sized_to_peak_envelope(self, rng, machine2):
        """Growth past nominal must fit in the recorded trace."""
        js = workloads.random_dag_jobset(rng, 2, 8, size_hint=20)
        churn = ChurnSchedule(
            (4, 2), [ChurnEvent(step=2, category=0, delta=6)]
        )
        r = simulate(machine2, KRad(), js, churn=churn, record_trace=True)
        assert r.trace.capacities == churn.peak_capacities()
        validate_schedule(r.trace, js)

    def test_transient_blackout_stalls_then_recovers(self, rng):
        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 4, size_hint=12)
        churn = ChurnSchedule(
            (4,), [ChurnEvent(step=2, category=0, delta=-4, duration=3)]
        )
        r = simulate(machine, KRad(), js, churn=churn)
        assert len(r.completion_times) == len(js)
        assert r.stall_steps > 0

    def test_churned_run_is_deterministic(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 8, size_hint=20)
        churn = ChurnSchedule(
            (4, 2),
            [
                ChurnEvent(step=2, category=0, delta=-2, duration=2),
                ChurnEvent(step=5, category=1, delta=3),
            ],
        )
        r1 = simulate(machine2, KRad(), js, churn=churn)
        r2 = simulate(machine2, KRad(), js, churn=churn)
        assert r1.makespan == r2.makespan
        assert r1.completion_times == r2.completion_times

    def test_churn_nominal_must_match_machine(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 4)
        churn = ChurnSchedule(
            (8, 4), [ChurnEvent(step=2, category=0, delta=-1)]
        )
        with pytest.raises(SimulationError, match="nominal"):
            Simulator(machine2, KRad(), js.fresh_copy(), churn=churn)


class TestRadMigration:
    """Forced DEQ<->RR migrations across churn boundaries."""

    def _totals(self, sched):
        out = {}
        for cat in sched.churn_transitions():
            for kind, n in cat.items():
                out[kind] = out.get(kind, 0) + n
        return out

    def test_shrink_below_active_forces_rr(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 12, size_hint=20)
        churn = ChurnSchedule(
            (4, 2), [ChurnEvent(step=3, category=0, delta=-3)]
        )
        sched = KRad()
        r = Simulator(
            machine2, sched, js.fresh_copy(), churn=churn
        ).run()
        totals = self._totals(sched)
        assert len(r.completion_times) == len(js)
        assert totals["deq_to_rr"] >= 1
        assert totals["rebatch"] >= 1

    def test_growth_absorbs_open_cycle(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 12, size_hint=20)
        churn = ChurnSchedule(
            (4, 2), [ChurnEvent(step=3, category=0, delta=8)]
        )
        sched = KRad()
        r = Simulator(
            machine2, sched, js.fresh_copy(), churn=churn
        ).run()
        totals = self._totals(sched)
        assert len(r.completion_times) == len(js)
        assert totals["absorb"] >= 1
        assert totals["rr_to_deq"] >= 1

    def test_no_churn_no_migrations(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 12, size_hint=20)
        sched = KRad()
        Simulator(
            machine2,
            sched,
            js.fresh_copy(),
            churn=ChurnSchedule((4, 2), []),
        ).run()
        totals = self._totals(sched)
        assert totals["rebatch"] == 0
        assert totals["absorb"] == 0


class TestChurnCertificate:
    def test_time_expanded_lb_certifies_churned_makespan(
        self, rng, machine2
    ):
        js = workloads.random_dag_jobset(rng, 2, 10, size_hint=20)
        churn = ChurnSchedule(
            (4, 2),
            [
                ChurnEvent(step=3, category=0, delta=-3, duration=5),
                ChurnEvent(step=4, category=1, delta=2),
            ],
        )
        r = simulate(machine2, KRad(), js, churn=churn)
        ratio = bounds.theorem3_ratio(2, max(churn.peak_capacities()))
        lb = bounds.time_expanded_lower_bound(
            js, machine2, churn.capacities, horizon=2 * r.makespan + 10
        )
        assert lb >= 1
        assert r.makespan <= ratio * lb + 1e-9

    def test_constant_profile_reduces_to_plain_bound(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 8, size_hint=20)
        lb_plain = bounds.makespan_lower_bound(js, machine2)
        lb_time = bounds.time_expanded_lower_bound(
            js, machine2, lambda t: (4, 2), horizon=10_000
        )
        assert lb_time == pytest.approx(np.ceil(lb_plain), abs=1.0)
        assert lb_time >= lb_plain - 1e-9

    def test_time_expanded_lb_reads_machine_speeds(self):
        """Above unit speed a step offers ``P_alpha(t) * s_alpha`` work
        units and the span term is speed-weighted, so the bound stays
        below every measured makespan.  Counting processor-steps and
        plain spans put it above 14 of these 20 (seed 0: bound 52 over
        a makespan of 42)."""
        machine = KResourceMachine((2, 2), speeds=(1, 4))
        for seed in range(20):
            js = workloads.random_dag_jobset(
                np.random.default_rng(seed), 2, 6
            )
            churn = ChurnSchedule(
                (2, 2),
                [ChurnEvent(step=3, category=0, delta=-1, duration=4)],
            )
            lb = bounds.time_expanded_lower_bound(
                js, machine, churn.capacities, horizon=10_000
            )
            r = simulate(machine, KRad(), js, churn=churn, seed=0)
            assert r.makespan >= lb, (seed, r.makespan, lb)
            if seed == 0:
                assert (r.makespan, lb) == (42, 30.0)


class TestChurnCheckpoint:
    def test_resume_mid_churn_identical(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 8, size_hint=20)
        churn = ChurnSchedule(
            (4, 2),
            [
                ChurnEvent(step=2, category=0, delta=-2, duration=4),
                ChurnEvent(step=6, category=1, delta=3),
            ],
        )

        def make_sim():
            return Simulator(
                machine2,
                KRad(),
                js.fresh_copy(),
                churn=churn,
                record_trace=True,
            )

        ref = make_sim().run()
        sim = make_sim()
        assert sim.run_until(4) is None
        snap = sim.checkpoint()
        resumed = Simulator.restore(
            snap, KRad(), churn=churn
        ).run()
        assert resumed.makespan == ref.makespan
        assert resumed.completion_times == ref.completion_times

    def test_churn_presence_must_match_on_restore(self, rng, machine2):
        js = workloads.random_dag_jobset(rng, 2, 6, size_hint=12)
        churn = ChurnSchedule(
            (4, 2), [ChurnEvent(step=2, category=0, delta=-1)]
        )
        sim = Simulator(machine2, KRad(), js.fresh_copy(), churn=churn)
        assert sim.run_until(3) is None
        snap = sim.checkpoint()
        with pytest.raises(SimulationError, match="churn"):
            Simulator.restore(snap, KRad())


@hst.composite
def churn_schedules(draw):
    """Random one-off and recurring events, with or without availability."""
    k = draw(hst.integers(1, 3))
    nominal = tuple(draw(hst.integers(1, 6)) for _ in range(k))
    events = []
    for _ in range(draw(hst.integers(0, 5))):
        step = draw(hst.integers(1, 20))
        cat = draw(hst.integers(0, k - 1))
        if draw(hst.booleans()):
            period = draw(hst.integers(1, 12))
            events.append(
                ChurnEvent(
                    step=step,
                    category=cat,
                    delta=draw(hst.integers(-8, -1)),
                    duration=draw(hst.integers(1, period)),
                    period=period,
                )
            )
        else:
            events.append(
                ChurnEvent(
                    step=step,
                    category=cat,
                    delta=draw(hst.integers(-8, 8).filter(bool)),
                    duration=draw(
                        hst.one_of(hst.none(), hst.integers(1, 10))
                    ),
                )
            )
    availability = draw(
        hst.one_of(hst.none(), hst.floats(0.0, 1.0, allow_nan=False))
    )
    return ChurnSchedule(
        nominal,
        events,
        availability=availability,
        seed=draw(hst.integers(0, 2**31)),
    )


@given(churn_schedules())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_churn_document_round_trip_and_envelope(churn):
    clone = ChurnSchedule.from_dict(churn.to_dict())
    assert clone.to_dict() == churn.to_dict()
    peak = churn.peak_capacities()
    for t in range(1, 60):
        caps = churn.capacities(t)
        assert clone.capacities(t) == caps
        assert all(0 <= c <= p for c, p in zip(caps, peak))
