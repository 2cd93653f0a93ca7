"""Unit tests for RandomizedKRad."""

import numpy as np

from repro.dag.lowerbound import figure3_instance
from repro.jobs import CP_LAST, JobSet, workloads
from repro.machine import KResourceMachine
from repro.schedulers import KRad, RandomizedKRad, check_allotments
from repro.sim import simulate, validate_schedule
from repro.theory import check_makespan_bound, check_theorem6


class TestRandomizedKRad:
    def test_allotments_valid_over_time(self):
        machine = KResourceMachine((3, 2))
        sched = RandomizedKRad(seed=1)
        sched.reset(machine)
        rng = np.random.default_rng(0)
        for t in range(1, 40):
            d = {
                i: rng.integers(0, 4, size=2).astype(np.int64)
                for i in range(6)
            }
            check_allotments(machine, d, sched.allocate(t, d))

    def test_deterministic_given_seed(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 8)
        a = simulate(machine2, RandomizedKRad(seed=5), js)
        b = simulate(machine2, RandomizedKRad(seed=5), js)
        assert a.completion_times == b.completion_times

    def test_different_seeds_differ_on_adversarial_instance(self):
        caps = (2, 2)
        inst = figure3_instance(4, caps)
        machine = KResourceMachine(caps)
        js = JobSet.from_dags(inst.dags)
        makespans = {
            simulate(
                machine, RandomizedKRad(seed=s), js, policy=CP_LAST
            ).makespan
            for s in range(8)
        }
        assert len(makespans) > 1  # randomization actually randomizes

    def test_expected_beats_deterministic_on_fig3(self):
        caps = (2, 2)
        inst = figure3_instance(4, caps)
        machine = KResourceMachine(caps)
        js = JobSet.from_dags(inst.dags)
        det = simulate(machine, KRad(), js, policy=CP_LAST).makespan
        assert det == inst.adversarial_makespan
        rand = [
            simulate(
                machine, RandomizedKRad(seed=s), js, policy=CP_LAST
            ).makespan
            for s in range(10)
        ]
        assert float(np.mean(rand)) < det

    def test_schedule_validity(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 6)
        r = simulate(machine2, RandomizedKRad(seed=2), js, record_trace=True)
        validate_schedule(r.trace, js)

    def test_theorem_bounds_hold_per_realisation(self, machine2, rng):
        js = workloads.random_phase_jobset(rng, 2, 10)
        for s in range(5):
            r = simulate(machine2, RandomizedKRad(seed=s), js)
            assert check_makespan_bound(r, js, machine2).holds
            assert check_theorem6(r, js, machine2).holds

    def test_registry_name(self):
        from repro.schedulers import scheduler_by_name

        assert scheduler_by_name("k-rad-random").name == "k-rad-random"
