"""Property-based integration tests: theorems hold on arbitrary workloads.

hypothesis drives random K-DAG and phase workloads through the full
simulator and asserts, for every generated instance:

* the recorded schedule is valid (precedence, capacities, categories);
* Theorem 3's makespan guarantee holds for K-RAD;
* Lemma 2's absolute bound holds on idle-free runs;
* Theorems 5/6's response-time guarantees hold on batched sets;
* simulation is deterministic and backend-independent where it should be.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.schedulers import Equi, GreedyFcfs, KDeq, KRad, KRoundRobin
from repro.sim import simulate, validate_schedule
from repro.theory import (
    check_lemma2,
    check_makespan_bound,
    check_theorem5,
    check_theorem6,
)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def machine_strategy(draw):
    k = draw(st.integers(1, 3))
    caps = tuple(draw(st.integers(1, 6)) for _ in range(k))
    return KResourceMachine(caps)


@st.composite
def dag_workload(draw):
    machine = draw(machine_strategy())
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)
    js = workloads.random_dag_jobset(
        rng, machine.num_categories, n, size_hint=8
    )
    return machine, js


@st.composite
def phase_workload(draw):
    machine = draw(machine_strategy())
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(seed)
    js = workloads.random_phase_jobset(
        rng, machine.num_categories, n, max_work=15, max_parallelism=6
    )
    return machine, js


class TestScheduleValidity:
    @given(dag_workload())
    @_SETTINGS
    def test_krad_schedules_are_valid(self, case):
        machine, js = case
        r = simulate(machine, KRad(), js, record_trace=True)
        validate_schedule(r.trace, js)

    @given(dag_workload(), st.sampled_from(["equi", "greedy", "rr", "deq"]))
    @_SETTINGS
    def test_baseline_schedules_are_valid(self, case, which):
        machine, js = case
        sched = {
            "equi": Equi(),
            "greedy": GreedyFcfs(),
            "rr": KRoundRobin(),
            "deq": KDeq(),
        }[which]
        r = simulate(machine, sched, js, record_trace=True)
        validate_schedule(r.trace, js)

    @given(dag_workload(), st.sampled_from(["fifo", "lifo", "cp-first", "cp-last"]))
    @_SETTINGS
    def test_all_policies_produce_valid_schedules(self, case, policy_name):
        from repro.jobs.policies import policy_by_name

        machine, js = case
        r = simulate(
            machine, KRad(), js, policy=policy_by_name(policy_name),
            record_trace=True,
        )
        validate_schedule(r.trace, js)


class TestTheoremGuarantees:
    @given(dag_workload())
    @_SETTINGS
    def test_theorem3_on_dag_jobs(self, case):
        machine, js = case
        r = simulate(machine, KRad(), js)
        assert check_makespan_bound(r, js, machine).holds
        if r.idle_steps == 0:
            assert check_lemma2(r, js, machine).holds

    @given(phase_workload())
    @_SETTINGS
    def test_theorem3_on_phase_jobs(self, case):
        machine, js = case
        r = simulate(machine, KRad(), js)
        assert check_makespan_bound(r, js, machine).holds

    @given(phase_workload())
    @_SETTINGS
    def test_theorem6_on_batched_sets(self, case):
        machine, js = case
        r = simulate(machine, KRad(), js)
        assert check_theorem6(r, js, machine).holds

    @given(dag_workload())
    @_SETTINGS
    def test_theorem6_on_dag_sets(self, case):
        machine, js = case
        r = simulate(machine, KRad(), js)
        assert check_theorem6(r, js, machine).holds

    @given(st.integers(0, 2**31), st.integers(1, 4))
    @_SETTINGS
    def test_theorem5_light_workload(self, seed, n):
        machine = KResourceMachine((8, 8))
        rng = np.random.default_rng(seed)
        js = workloads.light_phase_jobset(rng, machine, min(n, 8))
        r = simulate(machine, KRad(), js)
        assert check_theorem5(r, js, machine).holds

    @given(dag_workload())
    @_SETTINGS
    def test_makespan_at_least_lower_bound(self, case):
        from repro.theory.bounds import makespan_lower_bound

        machine, js = case
        for sched in (KRad(), Equi(), GreedyFcfs()):
            r = simulate(machine, sched, js)
            assert r.makespan >= makespan_lower_bound(js, machine) - 1e-9


class TestConservation:
    @given(dag_workload())
    @_SETTINGS
    def test_executed_work_equals_total_work(self, case):
        machine, js = case
        r = simulate(machine, KRad(), js, record_trace=True)
        done = r.trace.busy_matrix().sum(axis=0)
        assert done.tolist() == js.total_work_vector().tolist()

    @given(dag_workload())
    @_SETTINGS
    def test_all_jobs_complete_with_valid_times(self, case):
        machine, js = case
        r = simulate(machine, KRad(), js)
        assert set(r.completion_times) == {j.job_id for j in js}
        for j in js:
            assert r.completion_times[j.job_id] > j.release_time
        assert r.makespan == max(r.completion_times.values())

    @given(dag_workload())
    @_SETTINGS
    def test_determinism(self, case):
        machine, js = case
        a = simulate(machine, KRad(), js, seed=0)
        b = simulate(machine, KRad(), js, seed=0)
        assert a.completion_times == b.completion_times
