"""Tests for failure injection: capacity faults, task failures, kills."""

import numpy as np
import pytest

from repro.errors import ScheduleError, SimulationError
from repro.jobs import workloads
from repro.machine import ChurnEvent, ChurnSchedule, KResourceMachine
from repro.schedulers import KRad, KRoundRobin
from repro.sim import RecordingScheduler, Simulator, simulate, validate_schedule
from repro.sim.faults import (
    CompositeFaultModel,
    JobKiller,
    RandomDegradation,
    ScriptedKills,
    TaskFailures,
    periodic_outage,
)


class TestPeriodicOutage:
    def test_schedule_shape(self):
        sched = periodic_outage(
            (8, 4), category=0, period=10, duration=3, degraded=2
        )
        assert sched(1) == (2, 4)
        assert sched(3) == (2, 4)
        assert sched(4) == (8, 4)
        assert sched(11) == (2, 4)  # next period

    def test_is_churn_that_only_removes(self):
        sched = periodic_outage(
            (8, 4), category=0, period=10, duration=3, degraded=2
        )
        assert isinstance(sched, ChurnSchedule)
        assert sched.peak_capacities() == (8, 4)
        idle = periodic_outage((8, 4), category=0, period=10, duration=0)
        assert idle.events == ()
        assert all(idle(t) == (8, 4) for t in range(1, 12))

    def test_full_outage_allowed(self):
        sched = periodic_outage(
            (8, 4), category=1, period=6, duration=2, degraded=0
        )
        assert sched(1) == (8, 0)
        assert sched(3) == (8, 4)

    def test_validation(self):
        with pytest.raises(SimulationError):
            periodic_outage((4,), category=1, period=5, duration=1)
        with pytest.raises(SimulationError):
            periodic_outage((4,), category=0, period=5, duration=6)
        with pytest.raises(SimulationError):
            periodic_outage(
                (4,), category=0, period=5, duration=1, degraded=-1
            )
        with pytest.raises(SimulationError):
            periodic_outage(
                (4,), category=0, period=5, duration=1, degraded=5
            )


class TestRandomDegradation:
    def test_deterministic_in_t(self):
        d = RandomDegradation((8, 4), availability=0.5, seed=3)
        assert d(7) == d(7)
        # call order must not matter
        a = [d(t) for t in (5, 1, 9)]
        b = [d(t) for t in (9, 5, 1)]
        assert a == [b[1], b[2], b[0]]

    def test_can_reach_zero(self):
        d = RandomDegradation((2,), availability=0.01, seed=0)
        caps = [d(t)[0] for t in range(1, 50)]
        assert all(c >= 0 for c in caps)
        assert min(caps) == 0  # full outages do occur at 1% availability

    def test_availability_validated(self):
        RandomDegradation((4,), availability=0.0)  # full outage: legal now
        with pytest.raises(SimulationError):
            RandomDegradation((4,), availability=-0.1)
        with pytest.raises(SimulationError):
            RandomDegradation((4,), availability=1.1)


class TestTaskFailures:
    def test_deterministic(self):
        executed = {0: [[1, 2, 3], []], 1: [[], [7]]}
        fm1 = TaskFailures(0.5, seed=9)
        fm2 = TaskFailures(0.5, seed=9)
        assert fm1.task_failures(4, executed) == fm2.task_failures(
            4, executed
        )

    def test_subset_of_executed(self):
        executed = {0: [[1, 2, 3], [5, 6]]}
        fm = TaskFailures(0.7, seed=1)
        failed = fm.task_failures(3, executed)
        for jid, per_cat in failed.items():
            for alpha, tasks in enumerate(per_cat):
                assert set(tasks) <= set(executed[jid][alpha])

    def test_rate_zero_fails_nothing(self):
        fm = TaskFailures(0.0)
        assert fm.task_failures(1, {0: [[1, 2], [3]]}) == {}

    def test_rate_validated(self):
        with pytest.raises(SimulationError):
            TaskFailures(1.0)
        with pytest.raises(SimulationError):
            TaskFailures(-0.1)


class TestKillModels:
    def test_scripted_kills(self):
        fm = ScriptedKills({3: [1, 2], 5: [0]})
        assert list(fm.job_kills(3, (0, 1, 2))) == [1, 2]
        assert list(fm.job_kills(3, (0,))) == []  # not alive: no-op
        assert list(fm.job_kills(4, (0, 1, 2))) == []

    def test_job_killer_deterministic(self):
        k1 = JobKiller(0.3, seed=5)
        k2 = JobKiller(0.3, seed=5)
        alive = (0, 1, 2, 3)
        assert list(k1.job_kills(7, alive)) == list(k2.job_kills(7, alive))

    def test_composite_merges(self):
        fm = CompositeFaultModel(
            [ScriptedKills({2: [0]}), ScriptedKills({2: [0, 1]})]
        )
        assert sorted(fm.job_kills(2, (0, 1, 2))) == [0, 1]


class TestEngineIntegration:
    def test_outage_slows_but_completes(self, rng):
        machine = KResourceMachine((8, 4))
        js = workloads.random_dag_jobset(rng, 2, 8, size_hint=20)
        healthy = simulate(machine, KRad(), js)
        faulty = simulate(
            machine,
            KRad(),
            js,
            churn=periodic_outage(
                (8, 4), category=0, period=8, duration=4
            ),
        )
        assert set(faulty.completion_times) == set(healthy.completion_times)
        assert faulty.makespan >= healthy.makespan

    def test_full_outage_stalls_then_recovers(self, rng):
        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 4, size_hint=12)
        r = simulate(
            machine,
            KRad(),
            js,
            churn=periodic_outage(
                (4,), category=0, period=6, duration=2, degraded=0
            ),
        )
        assert len(r.completion_times) == len(js)
        assert r.stall_steps > 0
        assert r.longest_stall >= 1

    def test_stall_bound_enforced(self, rng):
        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 2)
        with pytest.raises(SimulationError, match="never recovered"):
            simulate(
                machine,
                KRad(),
                js,
                # permanently dark
                churn=ChurnSchedule(
                    (4,), [ChurnEvent(step=1, category=0, delta=-4)]
                ),
                max_stall_steps=10,
            )

    def test_trace_stays_valid_under_faults(self, rng):
        machine = KResourceMachine((4, 4))
        js = workloads.random_dag_jobset(rng, 2, 5)
        r = simulate(
            machine,
            KRad(),
            js,
            churn=RandomDegradation((4, 4), seed=1),
            record_trace=True,
        )
        validate_schedule(r.trace, js)  # degraded <= nominal, still valid

    def test_task_failures_rework_then_complete(self, rng):
        machine = KResourceMachine((4, 2))
        js = workloads.random_dag_jobset(rng, 2, 5, size_hint=15)
        healthy = simulate(machine, KRad(), js)
        faulty = simulate(
            machine,
            KRad(),
            js,
            fault_model=TaskFailures(0.2, seed=11),
            record_trace=True,
        )
        assert set(faulty.completion_times) == set(healthy.completion_times)
        assert faulty.total_wasted > 0
        assert faulty.makespan >= healthy.makespan
        # wasted placements excluded from tau: schedule still valid
        validate_schedule(faulty.trace, js)
        # executed-minus-wasted equals each job's total work
        assert (faulty.busy - faulty.wasted_work_vector() >= 0).all()

    def test_task_failures_deterministic_end_to_end(self, rng):
        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 4, size_hint=10)
        r1 = simulate(
            machine, KRad(), js, fault_model=TaskFailures(0.3, seed=2)
        )
        r2 = simulate(
            machine, KRad(), js, fault_model=TaskFailures(0.3, seed=2)
        )
        assert r1.completion_times == r2.completion_times
        assert r1.makespan == r2.makespan
        assert (r1.wasted == r2.wasted).all()

    def test_kill_without_retry_abandons(self, rng):
        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 3, size_hint=8)
        victim = js.jobs[0].job_id
        r = simulate(
            machine,
            KRad(),
            js,
            fault_model=ScriptedKills({1: [victim]}),
            record_trace=True,
        )
        assert victim in r.failed_jobs
        assert victim not in r.completion_times
        assert len(r.completion_times) == len(js) - 1
        validate_schedule(r.trace, js, failed_jobs=r.failed_jobs)

    def test_rr_scheduler_state_survives_rebind(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.heavy_phase_jobset(rng, machine, load_factor=4.0)
        r = simulate(
            machine,
            KRoundRobin(),
            js,
            churn=periodic_outage(
                (2,), category=0, period=6, duration=2
            ),
        )
        assert len(r.completion_times) == len(js)

    def test_rebind_category_mismatch_rejected(self):
        sched = KRad()
        sched.reset(KResourceMachine((4, 4)))
        with pytest.raises(ScheduleError):
            sched.rebind(KResourceMachine((4,)))

    def test_max_steps_default_scales_for_faulty_runs(self, rng):
        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 2)
        healthy = Simulator(machine, KRad(), js.fresh_copy())
        degraded = Simulator(
            machine,
            KRad(),
            js.fresh_copy(),
            churn=RandomDegradation((4,), seed=0),
        )
        assert degraded._max_steps > healthy._max_steps


class TestRecordingUnderDegradation:
    """Satellite: RecordingScheduler must stay transparent under rebinds."""

    def _run(self, rng, sched):
        machine = KResourceMachine((4, 2))
        js = workloads.random_dag_jobset(rng, 2, 5, size_hint=15)
        cap = periodic_outage(
            (4, 2), category=0, period=5, duration=2, degraded=1
        )
        rec = RecordingScheduler(sched)
        r = simulate(machine, rec, js, churn=cap, record_trace=True)
        return machine, js, cap, rec, r

    def test_records_intact_and_run_completes(self, rng):
        machine, js, cap, rec, r = self._run(rng, KRad())
        assert len(r.completion_times) == len(js)
        # one record per non-skipped step, consecutive t
        steps = [record.t for record in rec.records]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)
        validate_schedule(r.trace, js)

    def test_allotments_respect_degraded_caps(self, rng):
        """The inner scheduler must see the *degraded* capacities.

        Before rebind forwarding, the wrapped scheduler kept allocating
        against nominal capacities during outages — this pins the fix.
        """
        machine, js, cap, rec, r = self._run(rng, KRad())
        violations = []
        for record in rec.records:
            caps_t = cap(record.t)
            total = np.zeros(machine.num_categories, dtype=np.int64)
            for alloc in record.allotments.values():
                total += np.asarray(alloc, dtype=np.int64)
            if (total > np.asarray(caps_t)).any():
                violations.append((record.t, total.tolist(), caps_t))
        assert not violations

    def test_round_robin_inner_also_respects_caps(self, rng):
        machine, js, cap, rec, r = self._run(rng, KRoundRobin())
        for record in rec.records:
            caps_t = np.asarray(cap(record.t))
            total = sum(
                (np.asarray(a, dtype=np.int64) for a in record.allotments.values()),
                start=np.zeros(machine.num_categories, dtype=np.int64),
            )
            assert (total <= caps_t).all()


# ----------------------------------------------------------------------
# property suite: CompositeFaultModel == union of its parts, every step
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

_SETTINGS = settings(max_examples=50, deadline=None)


def _task_failures(draw):
    return TaskFailures(
        draw(st.floats(0.0, 0.9)), seed=draw(st.integers(0, 1000))
    )


def _job_killer(draw):
    return JobKiller(
        draw(st.floats(0.0, 0.9)), seed=draw(st.integers(0, 1000))
    )


def _scripted_kills(draw):
    kills = draw(
        st.dictionaries(
            st.integers(1, 10),
            st.lists(st.integers(0, 7), max_size=4),
            max_size=3,
        )
    )
    return ScriptedKills(kills)


@st.composite
def fault_models(draw):
    kind = draw(st.sampled_from(["task", "kill", "scripted"]))
    if kind == "task":
        return _task_failures(draw)
    if kind == "kill":
        return _job_killer(draw)
    return _scripted_kills(draw)


@st.composite
def executed_maps(draw):
    """jid -> per-category lists of distinct task ids (K = 2)."""
    jids = draw(st.lists(st.integers(0, 7), unique=True, max_size=4))
    return {
        jid: [
            sorted(
                draw(
                    st.sets(st.integers(0, 30), max_size=5)
                )
            )
            for _ in range(2)
        ]
        for jid in jids
    }


class TestCompositeUnionProperty:
    @_SETTINGS
    @given(
        models=st.lists(fault_models(), min_size=1, max_size=4),
        executed=executed_maps(),
        t=st.integers(1, 10),
    )
    def test_task_failures_are_exact_union(self, models, executed, t):
        composite = CompositeFaultModel(models)
        merged = composite.task_failures(t, executed)
        # union of the independently-evaluated parts, per job and category
        expected: dict[int, list[set]] = {}
        for model in models:
            for jid, per_cat in model.task_failures(t, executed).items():
                slot = expected.setdefault(jid, [set(), set()])
                for alpha, tasks in enumerate(per_cat):
                    slot[alpha] |= set(tasks)
        assert set(merged) == set(expected)
        for jid, per_cat in merged.items():
            for alpha, tasks in enumerate(per_cat):
                assert len(tasks) == len(set(tasks))  # no duplicates
                assert set(tasks) == expected[jid][alpha]
                assert set(tasks) <= set(executed[jid][alpha])

    @_SETTINGS
    @given(
        models=st.lists(fault_models(), min_size=1, max_size=4),
        alive=st.lists(st.integers(0, 7), unique=True, max_size=6),
        t=st.integers(1, 10),
    )
    def test_job_kills_are_exact_union(self, models, alive, t):
        composite = CompositeFaultModel(models)
        merged = list(composite.job_kills(t, tuple(alive)))
        expected: set[int] = set()
        order: list[int] = []
        for model in models:
            for jid in model.job_kills(t, tuple(alive)):
                if jid not in expected:
                    expected.add(jid)
                    order.append(jid)
        assert merged == order  # first-occurrence order, deduplicated
        assert set(merged) <= set(alive)

    @_SETTINGS
    @given(
        models=st.lists(fault_models(), min_size=1, max_size=3),
        executed=executed_maps(),
        t=st.integers(1, 10),
    )
    def test_composite_is_deterministic(self, models, executed, t):
        a = CompositeFaultModel(models)
        b = CompositeFaultModel(models)
        assert a.task_failures(t, executed) == b.task_failures(t, executed)
        alive = tuple(sorted(executed))
        assert list(a.job_kills(t, alive)) == list(b.job_kills(t, alive))
