"""Property suites: serialization round-trips and renderer robustness."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io import (
    jobset_from_dict,
    jobset_to_dict,
    jobset_to_swf,
    parse_swf,
    trace_from_dict,
    trace_to_dict,
)
from repro.jobs import RandomOrder, workloads
from repro.machine import KResourceMachine
from repro.schedulers import KRad
from repro.sim import simulate, validate_schedule
from repro.viz import (
    render_gantt,
    render_job_states,
    render_utilization,
)

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def any_workload(draw):
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(1, 6))
    backend = draw(st.sampled_from(["dag", "phase"]))
    online = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if backend == "dag":
        js = workloads.random_dag_jobset(rng, k, n, size_hint=8)
    else:
        js = workloads.random_phase_jobset(rng, k, n, max_work=12)
    if online:
        js = workloads.with_release_times(
            js, workloads.uniform_release_times(rng, n, horizon=10)
        )
    return k, js


class TestJsonRoundTripProperties:
    @given(any_workload())
    @_SETTINGS
    def test_jobset_round_trip_simulates_identically(self, case):
        k, js = case
        machine = KResourceMachine(tuple([3] * k))
        clone = jobset_from_dict(json.loads(json.dumps(jobset_to_dict(js))))
        a = simulate(machine, KRad(), js)
        b = simulate(machine, KRad(), clone)
        assert a.makespan == b.makespan
        assert a.completion_times == b.completion_times

    @given(any_workload())
    @_SETTINGS
    def test_trace_round_trip_still_validates(self, case):
        k, js = case
        machine = KResourceMachine(tuple([3] * k))
        r = simulate(machine, KRad(), js, record_trace=True)
        clone = trace_from_dict(
            json.loads(json.dumps(trace_to_dict(r.trace)))
        )
        validate_schedule(clone, js)


class TestSwfRoundTripProperty:
    @given(st.integers(0, 2**31), st.integers(1, 8))
    @_SETTINGS
    def test_emitted_swf_reparses(self, seed, n):
        rng = np.random.default_rng(seed)
        js = workloads.random_phase_jobset(rng, 1, n, max_parallelism=4)
        jobs = parse_swf(jobset_to_swf(js))
        assert len(jobs) == n
        assert all(j.run_time >= 1 and j.processors >= 1 for j in jobs)


class TestRendererRobustness:
    @given(any_workload())
    @_SETTINGS
    def test_renderers_never_crash(self, case):
        k, js = case
        machine = KResourceMachine(tuple([3] * k))
        r = simulate(machine, KRad(), js, record_trace=True)
        assert render_gantt(r.trace)
        assert render_utilization(r.trace)
        assert render_job_states(r.trace)
        assert render_job_states(r.trace, max_steps=3)

    def test_gantt_symbol_wrap_beyond_62_jobs(self):
        from repro.dag import builders
        from repro.jobs import JobSet

        machine = KResourceMachine((4,))
        js = JobSet.from_dags(
            [builders.chain([0], 1) for _ in range(70)]
        )
        r = simulate(machine, KRad(), js, record_trace=True)
        out = render_gantt(r.trace)
        assert "wrapping" in out  # legend mentions the wrap


class TestRandomPolicyEngine:
    def test_random_order_end_to_end_deterministic(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 5, size_hint=10)
        a = simulate(machine2, KRad(), js, policy=RandomOrder(), seed=9)
        b = simulate(machine2, KRad(), js, policy=RandomOrder(), seed=9)
        assert a.completion_times == b.completion_times

    def test_random_order_valid_schedule(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 5, size_hint=10)
        r = simulate(
            machine2, KRad(), js, policy=RandomOrder(), seed=3,
            record_trace=True,
        )
        validate_schedule(r.trace, js)
