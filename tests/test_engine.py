"""Unit tests for the simulation engine."""

import numpy as np
import pytest

from repro.dag import builders
from repro.errors import ScheduleError, SimulationError
from repro.jobs import JobSet, Phase, PhaseJob
from repro.schedulers import KRad
from repro.schedulers.base import Scheduler
from repro.sim import Simulator, simulate


class TestBasics:
    def test_single_chain_job(self, machine2):
        js = JobSet.from_dags([builders.chain([0, 1, 0], 2)])
        r = simulate(machine2, KRad(), js)
        assert r.makespan == 3  # purely sequential
        assert r.mean_response_time == 3
        assert r.completion_times[0] == 3
        assert r.idle_steps == 0

    def test_parallel_job_uses_capacity(self, machine2):
        js = JobSet.from_dags([builders.independent_tasks([8, 0])])
        r = simulate(machine2, KRad(), js)
        assert r.makespan == 2  # 8 tasks on 4 cpus

    def test_mismatched_k_rejected(self, machine2):
        js = JobSet.from_dags([builders.chain([0], 1)])
        with pytest.raises(SimulationError):
            Simulator(machine2, KRad(), js)

    def test_release_semantics(self, machine2):
        # a job released at r first executes at step r+1
        js = JobSet.from_dags([builders.chain([0], 2)], release_times=[3])
        r = simulate(machine2, KRad(), js)
        assert r.completion_times[0] == 4
        assert r.response_time(0) == 1
        assert r.idle_steps == 3

    def test_idle_interval_fast_forward(self, machine2):
        dags = [builders.chain([0], 2), builders.chain([0], 2)]
        js = JobSet.from_dags(dags, release_times=[0, 1000])
        r = simulate(machine2, KRad(), js)
        assert r.makespan == 1001
        assert r.idle_steps == 999

    def test_simultaneous_releases(self, machine2):
        dags = [builders.chain([0], 2) for _ in range(3)]
        js = JobSet.from_dags(dags, release_times=[2, 2, 2])
        r = simulate(machine2, KRad(), js)
        assert all(ct == 3 for ct in r.completion_times.values())

    def test_phase_jobs_supported(self, machine2):
        js = JobSet([PhaseJob([Phase([8, 4], [4, 2])], job_id=0)])
        r = simulate(machine2, KRad(), js)
        assert r.makespan == 2

    def test_busy_accounting(self, machine2):
        js = JobSet.from_dags([builders.independent_tasks([4, 2])])
        r = simulate(machine2, KRad(), js)
        assert r.busy.tolist() == [4, 2]
        assert r.utilization(0) == 1.0

    def test_fresh_flag_preserves_jobset(self, machine2):
        js = JobSet.from_dags([builders.chain([0, 0], 2)])
        simulate(machine2, KRad(), js, fresh=True)
        assert not js[0].is_complete
        simulate(machine2, KRad(), js, fresh=False)
        assert js[0].is_complete


class TestDeterminism:
    def test_same_seed_same_result(self, machine3, rng):
        from repro.jobs import workloads

        js = workloads.random_dag_jobset(rng, 3, 8)
        a = simulate(machine3, KRad(), js, seed=1)
        b = simulate(machine3, KRad(), js, seed=1)
        assert a.makespan == b.makespan
        assert a.completion_times == b.completion_times


class TestGuards:
    def test_max_steps_guard(self, machine2):
        js = JobSet.from_dags([builders.chain([0] * 10, 2)])
        with pytest.raises(SimulationError):
            simulate(machine2, KRad(), js, max_steps=3)

    def test_lazy_scheduler_detected(self, machine2):
        class Lazy(Scheduler):
            name = "lazy"

            def allocate(self, t, desires, jobs=None):
                return {}

        js = JobSet.from_dags([builders.chain([0], 2)])
        with pytest.raises(SimulationError, match="work-conserving"):
            simulate(machine2, Lazy(), js)

    def test_cheating_scheduler_caught_by_validation(self, machine2):
        class Cheater(Scheduler):
            name = "cheater"

            def allocate(self, t, desires, jobs=None):
                # allocates more than capacity
                return {
                    jid: np.full(2, 100, dtype=np.int64) for jid in desires
                }

        js = JobSet.from_dags([builders.independent_tasks([200, 200])])
        with pytest.raises(ScheduleError):
            simulate(machine2, Cheater(), js)

    def test_validation_can_be_disabled_but_jobs_still_guard(self, machine2):
        class Cheater(Scheduler):
            name = "cheater"

            def allocate(self, t, desires, jobs=None):
                return {jid: desires[jid] + 100 for jid in desires}

        js = JobSet.from_dags([builders.chain([0], 2)])
        # job-level allotment check still fires
        with pytest.raises(ScheduleError):
            simulate(machine2, Cheater(), js, validate=False)


class TestTraceRecording:
    def test_trace_absent_by_default(self, machine2):
        js = JobSet.from_dags([builders.chain([0], 2)])
        assert simulate(machine2, KRad(), js).trace is None

    def test_trace_covers_all_work(self, machine2):
        js = JobSet.from_dags([builders.independent_tasks([5, 3])])
        r = simulate(machine2, KRad(), js, record_trace=True)
        assert r.trace is not None
        total = r.trace.busy_matrix().sum(axis=0)
        assert total.tolist() == [5, 3]

    def test_trace_arrivals_and_completions(self, machine2):
        js = JobSet.from_dags(
            [builders.chain([0], 2), builders.chain([1], 2)],
            release_times=[0, 1],
        )
        r = simulate(machine2, KRad(), js, record_trace=True)
        first = r.trace.steps[0]
        assert first.arrivals == (0,)
        assert first.completions == (0,)
        second = r.trace.steps[1]
        assert second.arrivals == (1,)
