"""Edge-case tests for the simulation engine and shop scheduler."""

import numpy as np
import pytest

from repro.dag import builders
from repro.errors import SimulationError
from repro.jobs import JobSet, workloads
from repro.jobs.phase_job import Phase, PhaseJob
from repro.machine import KResourceMachine
from repro.schedulers import DagShopScheduler, KRad, check_allotments
from repro.sim import (
    RetryPolicy,
    ScriptedKills,
    ScriptedViolation,
    Simulator,
    Supervisor,
    engine_class,
    simulate,
    validate_schedule,
)


class TestEngineEdges:
    def test_rerun_guard(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 3)
        sim = Simulator(machine2, KRad(), js)
        sim.run()
        with pytest.raises(SimulationError, match="fresh copy"):
            sim.run()

    def test_simulate_fresh_false_consumes(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 3)
        simulate(machine2, KRad(), js, fresh=False)
        with pytest.raises(SimulationError):
            simulate(machine2, KRad(), js, fresh=False)

    def test_completion_and_release_same_step(self, machine2):
        # job 1 releases at the exact step job 0 completes
        js = JobSet.from_dags(
            [builders.chain([0], 2), builders.chain([0], 2)],
            release_times=[0, 1],
        )
        r = simulate(machine2, KRad(), js)
        assert r.completion_times == {0: 1, 1: 2}
        assert r.idle_steps == 0

    def test_many_simultaneous_completions(self, machine2):
        js = JobSet.from_dags(
            [builders.chain([0], 2) for _ in range(4)]
        )
        r = simulate(machine2, KRad(), js)
        assert all(ct == 1 for ct in r.completion_times.values())
        assert r.makespan == 1

    def test_on_step_exceptions_propagate(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 2)

        def boom(t, alive):
            raise RuntimeError("instrumentation failure")

        with pytest.raises(RuntimeError, match="instrumentation"):
            Simulator(machine2, KRad(), js, on_step=boom).run()

    def test_max_steps_exact_boundary(self, machine2):
        js = JobSet.from_dags([builders.chain([0] * 5, 2)])
        # exactly enough steps succeeds
        r = simulate(machine2, KRad(), js, max_steps=5)
        assert r.makespan == 5
        with pytest.raises(SimulationError):
            simulate(machine2, KRad(), js, max_steps=4)

    def test_back_to_back_idle_intervals(self, machine2):
        js = JobSet.from_dags(
            [builders.chain([0], 2) for _ in range(3)],
            release_times=[0, 10, 20],
        )
        r = simulate(machine2, KRad(), js)
        assert r.completion_times == {0: 1, 1: 11, 2: 21}
        assert r.idle_steps == 18


class TestDagShopScheduler:
    def test_one_processor_per_job(self):
        machine = KResourceMachine((4, 4))
        sched = DagShopScheduler()
        sched.reset(machine)
        d = {
            0: np.asarray([3, 2]),
            1: np.asarray([0, 5]),
        }
        alloc = sched.allocate(1, d)
        check_allotments(machine, d, alloc)
        for a in alloc.values():
            assert a.sum() <= 1

    def test_uses_lowest_index_category(self):
        machine = KResourceMachine((2, 2))
        sched = DagShopScheduler()
        sched.reset(machine)
        alloc = sched.allocate(1, {0: np.asarray([1, 1])})
        assert alloc[0].tolist() == [1, 0]

    def test_falls_through_when_category_full(self):
        machine = KResourceMachine((1, 2))
        sched = DagShopScheduler()
        sched.reset(machine)
        d = {i: np.asarray([1, 1]) for i in range(3)}
        alloc = sched.allocate(1, d)
        totals = sum(a for v in alloc.values() for a in v.tolist())
        assert totals == 3  # 1 on cat0, 2 on cat1

    def test_rotation_is_fair(self):
        machine = KResourceMachine((1,))
        sched = DagShopScheduler()
        sched.reset(machine)
        served = []
        d = {i: np.asarray([1]) for i in range(3)}
        for t in range(1, 7):
            alloc = sched.allocate(t, d)
            served.extend(j for j, a in alloc.items() if a[0] > 0)
        assert served == [0, 1, 2, 0, 1, 2]

    def test_produces_valid_schedules(self, rng):
        machine = KResourceMachine((2, 2))
        js = workloads.random_dag_jobset(rng, 2, 4, size_hint=8)
        r = simulate(machine, DagShopScheduler(), js, record_trace=True)
        validate_schedule(r.trace, js)
        # shop floor: per-job response >= per-job total work
        for j in js:
            assert r.response_time(j.job_id) >= j.total_work()


class TestInjectKnownIds:
    """``inject_job`` refuses every id the run already knows, in every
    lifecycle state, and accepts a cancelled id again."""

    @staticmethod
    def _sim(engine):
        def job(jid, work, release=0):
            return PhaseJob([Phase([work], [1])], jid, release)

        jobs = [
            job(0, 50),  # live
            job(1, 1),  # completes at step 1
            job(2, 50),  # killed at step 6, retry waiting at step 6
            job(3, 50),  # quarantined at step 2
            job(4, 50),  # killed at steps 2 and 4: retries exhausted
            job(5, 5, release=100),  # pending
        ]
        machine = KResourceMachine((6,))
        return engine_class(engine)(
            machine,
            KRad(),
            JobSet(jobs, num_categories=1),
            seed=0,
            fault_model=ScriptedKills({2: [4], 4: [4], 6: [2]}),
            retry_policy=RetryPolicy(max_attempts=2, base_delay=1),
            supervisor=Supervisor(
                [ScriptedViolation(step=2, job_id=3)], mode="resilient"
            ),
        )

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_every_known_id_refused(self, engine):
        sim = self._sim(engine)
        sim.advance_until(6)
        expected = {
            0: "running",
            1: "completed",
            2: "retrying",
            3: "quarantined",
            4: "failed",
            5: "pending",
        }
        assert {j: sim.job_state(j) for j in expected} == expected
        for jid in expected:
            with pytest.raises(SimulationError, match="already known"):
                sim.inject_job(
                    PhaseJob([Phase([3], [1])], jid), release_time=7
                )
        # a cancelled id leaves the run and may be submitted again
        sim.cancel_pending(5)
        assert sim.job_state(5) == "unknown"
        sim.inject_job(PhaseJob([Phase([3], [1])], 5), release_time=7)
        result = sim.run()
        assert 5 in result.completion_times

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_cancel_refusal_names_the_state(self, engine):
        sim = self._sim(engine)
        sim.advance_until(6)
        for jid, why in (
            (0, "already running"),
            (1, "already completed"),
            (2, "retrying after a kill"),
            (3, "not pending"),  # quarantined
            (4, "not pending"),  # failed
            (99, "not pending"),  # never submitted
        ):
            with pytest.raises(SimulationError, match=why):
                sim.cancel_pending(jid)
        assert sim.cancel_pending(5).job_id == 5
        with pytest.raises(SimulationError, match="not pending"):
            sim.cancel_pending(5)
