"""Tests for the speed-aware clairvoyant baseline and the hunt module."""

import numpy as np
import pytest

from repro.dag import builders
from repro.errors import ReproError, ScheduleError
from repro.jobs import CP_FIRST, DagJob, workloads
from repro.machine import KResourceMachine
from repro.schedulers import SpeedAwareClairvoyant
from repro.sim import simulate


class TestSpeedAwareClairvoyant:
    def test_prioritises_slow_category_chain(self):
        # category 1 is 4x faster; the cat-0 chain carries more weighted
        # span than the (longer) cat-1 chain
        slow = DagJob(builders.chain([0] * 6, 2), job_id=0)
        fast = DagJob(builders.chain([1] * 8, 2), job_id=1)
        machine = KResourceMachine((1, 1), speeds=(1, 4))
        sched = SpeedAwareClairvoyant()
        sched.reset(machine)
        d = {0: np.asarray([1, 0]), 1: np.asarray([0, 1])}
        alloc = sched.allocate(1, d, jobs={0: slow, 1: fast})
        # weighted spans: slow 6, fast 2 -> slow first (no contention here,
        # both get their category anyway)
        assert alloc[0].tolist() == [1, 0]
        assert alloc[1].tolist() == [0, 1]

    def test_contended_category_goes_to_heavier_weighted_job(self):
        a = DagJob(builders.chain([0] * 5, 2), job_id=0)  # weighted 5
        b = DagJob(builders.chain([0, 1, 1], 2), job_id=1)  # 1 + 2/4 = 1.5
        machine = KResourceMachine((1, 2), speeds=(1, 4))
        sched = SpeedAwareClairvoyant()
        sched.reset(machine)
        d = {0: np.asarray([1, 0]), 1: np.asarray([1, 0])}
        alloc = sched.allocate(1, d, jobs={0: a, 1: b})
        assert alloc[0].tolist() == [1, 0]
        assert 1 not in alloc or alloc[1].sum() == 0

    def test_requires_jobs(self):
        machine = KResourceMachine((1,))
        sched = SpeedAwareClairvoyant()
        sched.reset(machine)
        with pytest.raises(ScheduleError):
            sched.allocate(1, {0: np.asarray([1])}, jobs=None)

    def test_end_to_end_on_speed_machine(self, rng):
        machine = KResourceMachine((4, 2), speeds=(1, 4))
        js = workloads.random_dag_jobset(rng, 2, 5, size_hint=10)
        r = simulate(
            machine, SpeedAwareClairvoyant(), js, policy=CP_FIRST
        )
        assert len(r.completion_times) == 5

    def test_phase_jobs_use_conservative_weighting(self, rng):
        js = workloads.random_phase_jobset(rng, 2, 4, max_work=10)
        machine = KResourceMachine((4, 4), speeds=(2, 2))
        sched = SpeedAwareClairvoyant()
        r = simulate(machine, sched, js)
        assert len(r.completion_times) == 4

    def test_churn_window_keeps_machine_speeds(self, rng):
        from repro.machine.churn import ChurnEvent, ChurnSchedule

        seen = []

        class Recording(SpeedAwareClairvoyant):
            def allocate(self, t, desires, jobs=None):
                seen.append((self.machine.capacities, self.machine.speeds))
                return super().allocate(t, desires, jobs)

        machine = KResourceMachine((4, 2), speeds=(1, 4))
        churn = ChurnSchedule(
            machine.capacities,
            [ChurnEvent(step=2, category=0, delta=-2, duration=3)],
        )
        js = workloads.random_dag_jobset(rng, 2, 5, size_hint=10)
        simulate(machine, Recording(), js, policy=CP_FIRST, churn=churn)
        assert (2, 2) in {caps for caps, _ in seen}  # the window was live
        assert {speeds for _, speeds in seen} == {(1, 4)}


class TestHuntUnit:
    def test_deterministic_given_seed(self):
        from repro.analysis.hunt import hunt_adversarial_instances

        machine = KResourceMachine((2, 1))
        a = hunt_adversarial_instances(machine, seed=3, iterations=60)
        b = hunt_adversarial_instances(machine, seed=3, iterations=60)
        assert a.best_ratio == b.best_ratio
        assert a.evaluations == b.evaluations

    def test_best_instance_is_replayable(self):
        from repro.analysis.hunt import hunt_adversarial_instances
        from repro.jobs.policies import CP_LAST
        from repro.schedulers import KRad
        from repro.theory.optimal import optimal_makespan_exact

        machine = KResourceMachine((2, 1))
        res = hunt_adversarial_instances(machine, seed=0, iterations=120)
        js = res.best_jobset
        opt = optimal_makespan_exact(machine, js)
        r = simulate(machine, KRad(), js, policy=CP_LAST)
        assert r.makespan / opt == pytest.approx(res.best_ratio)

    def test_mutations_preserve_validity(self):
        from repro.analysis.hunt import _mutate

        rng = np.random.default_rng(0)
        dags = [builders.chain([0, 1], 2)]
        for _ in range(200):
            dags = _mutate(dags, 2, rng, max_tasks=10)
            for d in dags:
                d.validate()
            assert sum(d.num_vertices for d in dags) <= 10 + 1

    def test_iterations_validated(self):
        from repro.analysis.hunt import hunt_adversarial_instances

        with pytest.raises(ReproError):
            hunt_adversarial_instances(
                KResourceMachine((2,)), iterations=0
            )
