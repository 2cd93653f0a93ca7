"""Unit tests for the A-GREEDY feedback extension."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.feedback import AGreedyEstimator, FeedbackKRad
from repro.jobs import workloads
from repro.schedulers import KRad, check_allotments
from repro.sim import simulate, validate_schedule
from repro.theory import check_makespan_bound


class TestEstimator:
    def test_initial_estimate_is_one(self):
        est = AGreedyEstimator()
        assert est.estimate(0, 0) == 1

    def test_satisfied_efficient_doubles(self):
        est = AGreedyEstimator(quantum=2, responsiveness=2.0)
        for _ in range(2):
            est.observe(0, 0, allotted=1, used=1, deprived=False)
        assert est.estimate(0, 0) == 2
        for _ in range(2):
            est.observe(0, 0, allotted=2, used=2, deprived=False)
        assert est.estimate(0, 0) == 4

    def test_inefficient_halves(self):
        est = AGreedyEstimator(quantum=1, responsiveness=2.0)
        # grow to 4 first
        est.observe(0, 0, allotted=1, used=1, deprived=False)
        est.observe(0, 0, allotted=2, used=2, deprived=False)
        assert est.estimate(0, 0) == 4
        est.observe(0, 0, allotted=4, used=1, deprived=False)  # wasteful
        assert est.estimate(0, 0) == 2

    def test_deprived_efficient_holds(self):
        est = AGreedyEstimator(quantum=1)
        est.observe(0, 0, allotted=1, used=1, deprived=False)
        value = est.estimate(0, 0)
        est.observe(0, 0, allotted=1, used=1, deprived=True)
        assert est.estimate(0, 0) == value

    def test_estimate_never_below_one(self):
        est = AGreedyEstimator(quantum=1)
        for _ in range(5):
            est.observe(0, 0, allotted=1, used=0, deprived=False)
        assert est.estimate(0, 0) == 1

    def test_estimate_capped(self):
        est = AGreedyEstimator(quantum=1, max_estimate=4)
        for _ in range(6):
            a = est.estimate(0, 0)
            est.observe(0, 0, allotted=a, used=a, deprived=False)
        assert est.estimate(0, 0) == 4

    def test_update_only_at_quantum_boundary(self):
        est = AGreedyEstimator(quantum=3)
        est.observe(0, 0, allotted=1, used=1, deprived=False)
        est.observe(0, 0, allotted=1, used=1, deprived=False)
        assert est.estimate(0, 0) == 1  # quantum not complete
        est.observe(0, 0, allotted=1, used=1, deprived=False)
        assert est.estimate(0, 0) == 2

    def test_forget(self):
        est = AGreedyEstimator(quantum=1)
        est.observe(7, 0, allotted=1, used=1, deprived=False)
        assert est.estimate(7, 0) == 2
        est.forget(7)
        assert est.estimate(7, 0) == 1

    def test_used_above_allotted_rejected(self):
        est = AGreedyEstimator()
        with pytest.raises(ReproError):
            est.observe(0, 0, allotted=1, used=2, deprived=False)

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            AGreedyEstimator(quantum=0)
        with pytest.raises(ReproError):
            AGreedyEstimator(responsiveness=1.0)
        with pytest.raises(ReproError):
            AGreedyEstimator(utilization_threshold=0.0)
        with pytest.raises(ReproError):
            AGreedyEstimator(max_estimate=0)

    def test_reset(self):
        est = AGreedyEstimator(quantum=1)
        est.observe(0, 0, allotted=1, used=1, deprived=False)
        est.reset()
        assert est.estimate(0, 0) == 1


class TestFeedbackKRad:
    def test_completes_and_valid(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 8)
        sched = FeedbackKRad(quantum=4)
        r = simulate(machine2, sched, js, record_trace=True)
        validate_schedule(r.trace, js)
        assert set(r.completion_times) == {j.job_id for j in js}

    def test_allotments_respect_true_desires(self, machine2):
        sched = FeedbackKRad(quantum=2)
        sched.reset(machine2)
        rng = np.random.default_rng(1)
        for t in range(1, 40):
            d = {
                i: rng.integers(0, 6, size=2).astype(np.int64)
                for i in range(5)
            }
            alloc = sched.allocate(t, d)
            check_allotments(machine2, d, alloc)

    def test_waste_accounting(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 8, size_hint=25)
        sched = FeedbackKRad(quantum=2)
        simulate(machine2, sched, js)
        assert sched.wasted >= 0

    def test_reset_clears_waste(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 4)
        sched = FeedbackKRad()
        simulate(machine2, sched, js, fresh=True)
        sched.reset(machine2)
        assert sched.wasted == 0

    def test_degradation_is_bounded(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 10, size_hint=20)
        inst = simulate(machine2, KRad(), js)
        fb = simulate(machine2, FeedbackKRad(quantum=4), js)
        assert fb.makespan <= 2 * inst.makespan

    def test_still_within_theorem3(self, machine3, rng):
        js = workloads.random_dag_jobset(rng, 3, 8)
        r = simulate(machine3, FeedbackKRad(quantum=4), js)
        assert check_makespan_bound(r, js, machine3).holds
