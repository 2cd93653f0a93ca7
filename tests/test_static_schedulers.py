"""Tests for the non-adaptive baselines (static partitioning, gang)."""

import numpy as np
import pytest

from repro.jobs import JobSet, Phase, PhaseJob, workloads
from repro.machine import KResourceMachine
from repro.schedulers import (
    GangScheduler,
    KRad,
    StaticPartition,
    check_allotments,
)
from repro.sim import simulate, validate_schedule


def desires(d):
    return {jid: np.asarray(v, dtype=np.int64) for jid, v in d.items()}


class TestStaticPartition:
    def test_quota_assigned_at_arrival(self):
        machine = KResourceMachine((8, 4))
        s = StaticPartition(target_jobs=4)
        s.reset(machine)
        alloc = s.allocate(1, desires({0: [8, 4]}))
        # quota = caps // 4 = (2, 1), capped by desire
        assert alloc[0].tolist() == [2, 1]

    def test_quota_is_sticky(self):
        machine = KResourceMachine((8, 8))
        s = StaticPartition(target_jobs=2)
        s.reset(machine)
        s.allocate(1, desires({0: [8, 8]}))
        # a huge later desire still only gets the original quota
        alloc = s.allocate(2, desires({0: [100, 100]}))
        assert alloc[0].tolist() == [4, 4]

    def test_quota_released_on_completion(self):
        machine = KResourceMachine((4,))
        s = StaticPartition(target_jobs=1)
        s.reset(machine)
        s.allocate(1, desires({0: [4], 1: [4]}))
        # job 0 holds everything; job 1 waits
        alloc = s.allocate(2, desires({1: [4]}))  # job 0 completed
        assert alloc[1].tolist() == [4]

    def test_waiting_jobs_fifo(self):
        machine = KResourceMachine((2,))
        s = StaticPartition(target_jobs=1)
        s.reset(machine)
        a1 = s.allocate(1, desires({0: [2], 1: [2], 2: [2]}))
        assert set(a1) == {0}
        a2 = s.allocate(2, desires({1: [2], 2: [2]}))  # 0 done
        assert set(a2) == {1}

    def test_backfill_prevents_deadlock(self):
        machine = KResourceMachine((2, 2))
        s = StaticPartition(target_jobs=2)
        s.reset(machine)
        # job arrives desiring only category 1 but category-1 capacity is
        # exhausted by earlier quotas whose holders want only category 0...
        s.allocate(1, desires({0: [2, 2], 1: [2, 2]}))
        # both quotas assigned; now both jobs desire ONLY categories their
        # quota lacks -> backfill must grant something
        alloc = s.allocate(2, desires({0: [0, 0], 1: [0, 0]}))
        assert alloc == {} or all(a.sum() <= 1 for a in alloc.values())

    def test_capacity_respected_over_time(self, rng):
        machine = KResourceMachine((4, 2))
        s = StaticPartition(target_jobs=3)
        s.reset(machine)
        for t in range(1, 40):
            d = desires(
                {i: rng.integers(0, 5, size=2) for i in range(6)}
            )
            check_allotments(machine, d, s.allocate(t, d))

    def test_target_jobs_validated(self):
        with pytest.raises(ValueError):
            StaticPartition(target_jobs=0)

    def test_end_to_end_valid_schedule(self, rng):
        machine = KResourceMachine((4, 4))
        js = workloads.random_dag_jobset(rng, 2, 5, size_hint=10)
        r = simulate(machine, StaticPartition(), js, record_trace=True)
        validate_schedule(r.trace, js)


class TestGangScheduler:
    def test_one_job_gets_the_machine(self):
        machine = KResourceMachine((4, 4))
        s = GangScheduler()
        s.reset(machine)
        alloc = s.allocate(1, desires({0: [9, 2], 1: [3, 3]}))
        assert set(alloc) == {0}
        assert alloc[0].tolist() == [4, 2]

    def test_rotation(self):
        machine = KResourceMachine((2,))
        s = GangScheduler()
        s.reset(machine)
        d = desires({0: [2], 1: [2], 2: [2]})
        served = [list(s.allocate(t, d))[0] for t in range(1, 7)]
        assert served == [0, 1, 2, 0, 1, 2]

    def test_end_to_end(self, rng):
        machine = KResourceMachine((4, 2))
        js = workloads.random_phase_jobset(rng, 2, 5, max_work=15)
        r = simulate(machine, GangScheduler(), js, record_trace=True)
        validate_schedule(r.trace, js)
        assert len(r.completion_times) == 5

    def test_adaptive_beats_gang_on_narrow_mix(self):
        # many narrow jobs: gang wastes almost the whole machine per slice
        machine = KResourceMachine((8,))
        jobs = [
            PhaseJob([Phase([6], [1])], job_id=i) for i in range(8)
        ]
        js = JobSet(jobs)
        gang = simulate(machine, GangScheduler(), js)
        krad = simulate(machine, KRad(), js)
        assert krad.makespan < gang.makespan


class TestAdaptExperiment:
    def test_adapt_driver(self):
        from repro.experiments import exp_adaptivity

        report = exp_adaptivity.run(seed=1, repeats=1, n_jobs=6)
        assert report.passed, report.failing_checks()
