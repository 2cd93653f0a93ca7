"""Differential/cross-validation tests: independent paths must agree.

Each test computes the same quantity two independent ways and demands
agreement — the strongest kind of correctness evidence a simulator can
offer without an external oracle.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.schedulers import (
    DagShopScheduler,
    Equi,
    GangScheduler,
    GreedyFcfs,
    KDeq,
    KRad,
    KRoundRobin,
    StaticPartition,
)
from repro.sim import RecordingScheduler, simulate
from repro.theory.optimal import optimal_makespan_exact

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_ALL_SCHEDULERS = [
    KRad,
    KDeq,
    KRoundRobin,
    Equi,
    GreedyFcfs,
    DagShopScheduler,
    StaticPartition,
    GangScheduler,
]


class TestRecordingMatchesTrace:
    @given(st.integers(0, 2**31))
    @_SETTINGS
    def test_records_agree_with_trace(self, seed):
        """The instrumentation wrapper and the engine trace are written by
        different code paths; their allotments must coincide step by step."""
        machine = KResourceMachine((4, 2))
        rng = np.random.default_rng(seed)
        js = workloads.random_dag_jobset(rng, 2, 5, size_hint=8)
        recorder = RecordingScheduler(KRad())
        result = simulate(machine, recorder, js, record_trace=True)
        assert len(recorder.records) == len(result.trace)
        for rec, step in zip(recorder.records, result.trace):
            assert rec.t == step.t
            rec_map = {
                jid: a.tolist()
                for jid, a in rec.allotments.items()
                if any(a.tolist())
            }
            step_map = {
                jid: np.asarray(a).tolist()
                for jid, a in step.allotments.items()
                if any(np.asarray(a).tolist())
            }
            assert rec_map == step_map

    @given(st.integers(0, 2**31))
    @_SETTINGS
    def test_busy_matches_trace_execution(self, seed):
        machine = KResourceMachine((3, 3))
        rng = np.random.default_rng(seed)
        js = workloads.random_dag_jobset(rng, 2, 4, size_hint=8)
        result = simulate(machine, KRad(), js, record_trace=True)
        assert (
            result.busy.tolist()
            == result.trace.busy_matrix().sum(axis=0).tolist()
        )


class TestExactOptimumDominates:
    @given(st.integers(0, 2**31))
    @_SETTINGS
    def test_no_scheduler_beats_the_exact_optimum(self, seed):
        machine = KResourceMachine((2, 1))
        rng = np.random.default_rng(seed)
        js = workloads.random_dag_jobset(rng, 2, 2, size_hint=4)
        if int(js.total_work_vector().sum()) > 12:
            return
        opt = optimal_makespan_exact(machine, js, max_states=100_000)
        for factory in _ALL_SCHEDULERS:
            r = simulate(machine, factory(), js)
            assert r.makespan >= opt, factory.name


class TestResponseAtLeastSpan:
    @given(
        st.integers(0, 2**31),
        st.sampled_from(list(range(len(_ALL_SCHEDULERS)))),
    )
    @_SETTINGS
    def test_no_job_finishes_faster_than_its_span(self, seed, sched_idx):
        machine = KResourceMachine((4, 4))
        rng = np.random.default_rng(seed)
        js = workloads.random_dag_jobset(rng, 2, 4, size_hint=8)
        r = simulate(machine, _ALL_SCHEDULERS[sched_idx](), js)
        for job in js:
            assert r.response_time(job.job_id) >= job.span()

    @given(st.integers(0, 2**31))
    @_SETTINGS
    def test_makespan_between_certificates(self, seed):
        from repro.theory.bounds import lemma2_bound, makespan_lower_bound

        machine = KResourceMachine((4, 2))
        rng = np.random.default_rng(seed)
        js = workloads.random_dag_jobset(rng, 2, 6, size_hint=10)
        r = simulate(machine, KRad(), js)
        assert (
            makespan_lower_bound(js, machine) - 1e-9
            <= r.makespan
            <= lemma2_bound(js, machine) + 1e-9
        )
