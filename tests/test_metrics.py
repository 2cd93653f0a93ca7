"""Tests for derived metrics (slowdowns, summaries) and the differential
property that K-RAD equals K-DEQ under light workload."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import builders
from repro.errors import ReproError
from repro.jobs import JobSet, workloads
from repro.machine import KResourceMachine
from repro.schedulers import KDeq, KRad
from repro.sim import simulate, slowdowns, summarize_result


class TestSlowdowns:
    def test_isolated_job_has_slowdown_one(self, machine2):
        js = JobSet.from_dags([builders.chain([0, 1, 0], 2)])
        r = simulate(machine2, KRad(), js)
        assert slowdowns(r, js) == {0: 1.0}

    def test_contended_jobs_stretch(self):
        machine = KResourceMachine((1,))
        js = JobSet.from_dags(
            [builders.chain([0] * 4, 1), builders.chain([0] * 4, 1)]
        )
        r = simulate(machine, KRad(), js)
        slow = slowdowns(r, js)
        assert max(slow.values()) > 1.0

    def test_job_set_mismatch_rejected(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 3)
        r = simulate(machine2, KRad(), js)
        other = JobSet.from_dags([builders.chain([0], 2)])
        with pytest.raises(ReproError):
            slowdowns(r, other)

    def test_zero_span_job_rejected(self, machine2, rng):
        """A degenerate job whose span is 0 would divide by zero; the
        guard must name the offending job instead.  PhaseJob refuses
        zero work at construction, so the case is driven through stubs
        mimicking a finished result."""

        class _ZeroSpanJob:
            job_id = 7

            def span(self):
                return 0

        class _Result:
            completion_times = {7: 3}

            def response_times(self):
                return {7: 3}

        class _JobSet:
            def __iter__(self):
                return iter([_ZeroSpanJob()])

        with pytest.raises(ReproError, match="non-positive span"):
            slowdowns(_Result(), _JobSet())


class TestSummarizeResult:
    def test_summary_fields(self, machine2, rng):
        js = workloads.random_phase_jobset(rng, 2, 8)
        r = simulate(machine2, KRad(), js)
        s = summarize_result(r, js)
        assert s.scheduler == "k-rad"
        assert s.makespan == r.makespan
        assert s.mean_response_time == pytest.approx(r.mean_response_time)
        assert (
            s.median_response_time
            <= s.p95_response_time
            <= s.max_response_time
        )
        assert s.mean_slowdown >= 1.0
        assert 0 < s.response_fairness <= 1.0
        assert len(s.utilization) == 2

    def test_as_row_matches_headers(self, machine2, rng):
        js = workloads.random_phase_jobset(rng, 2, 4)
        s = summarize_result(simulate(machine2, KRad(), js), js)
        assert len(s.as_row()) == len(s.ROW_HEADERS)

    def test_empty_jobset_yields_zeros_not_nan(self, machine2):
        """An empty run has no response-time distribution; the summary
        must come back as zeros with vacuous fairness 1.0, without
        numpy's mean-of-empty-slice RuntimeWarning."""
        import warnings

        js = JobSet([], num_categories=2)
        r = simulate(machine2, KRad(), js)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = summarize_result(r, js)
        assert s.makespan == 0
        assert s.mean_response_time == 0.0
        assert s.p95_response_time == 0.0
        assert s.max_response_time == 0
        assert s.mean_slowdown == 0.0
        assert s.response_fairness == 1.0
        assert s.utilization == (0.0, 0.0)

    def test_all_jobs_lost_yields_zeros(self):
        """Every job killed with no retry budget: completions are empty
        even though the run executed steps — same zero-valued digest."""
        from repro.sim import JobKiller, RetryPolicy

        rng = np.random.default_rng(0)
        machine = KResourceMachine((4, 2))
        js = workloads.random_phase_jobset(rng, 2, 4, max_work=20)
        r = simulate(
            machine,
            KRad(),
            js,
            seed=0,
            fault_model=JobKiller(0.99, seed=1),
            retry_policy=RetryPolicy(max_attempts=1),
        )
        assert not r.completion_times and r.failed_jobs
        s = summarize_result(r, js)
        assert s.mean_response_time == 0.0
        assert s.max_slowdown == 0.0
        assert s.response_fairness == 1.0


class TestLightWorkloadEquivalence:
    """Under light workload K-RAD never opens a round-robin cycle, so it
    must behave *identically* to DEQ-only scheduling — a strong
    differential test of both implementations."""

    @given(st.integers(0, 2**31), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_krad_equals_kdeq_when_light(self, seed, n):
        machine = KResourceMachine((8, 8))
        rng = np.random.default_rng(seed)
        js = workloads.light_phase_jobset(rng, machine, min(n, 8))
        a = simulate(machine, KRad(), js)
        b = simulate(machine, KDeq(), js)
        assert a.makespan == b.makespan
        assert a.completion_times == b.completion_times

    def test_divergence_under_heavy_load_is_possible(self):
        """The equivalence is a light-load property, not an identity."""
        machine = KResourceMachine((2,))
        from repro.jobs import Phase, PhaseJob

        jobs = [
            PhaseJob([Phase([6], [2])], job_id=i) for i in range(5)
        ]
        js = JobSet(jobs)
        a = simulate(machine, KRad(), js)
        b = simulate(machine, KDeq(), js)
        # both complete all work; traces may differ in RR vs rotation order
        assert a.makespan >= 15 and b.makespan >= 15


class TestRobustnessMetrics:
    def _chain_js(self, *lengths):
        return JobSet.from_dags(
            [builders.chain([0] * n, 1) for n in lengths]
        )

    def test_healthy_run_all_zeros(self, rng):
        from repro.sim import summarize_robustness

        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 3, size_hint=10)
        s = summarize_robustness(simulate(machine, KRad(), js))
        assert s.total_wasted == 0
        assert s.wasted_fraction == 0.0
        assert s.total_retries == 0
        assert s.failed_jobs == 0
        assert s.stall_steps == 0
        assert s.completed_jobs == len(js)

    def test_wasted_and_goodput_after_kill(self):
        from repro.sim import RetryPolicy, summarize_robustness
        from repro.sim.faults import ScriptedKills

        machine = KResourceMachine((2,))
        js = self._chain_js(6)
        r = simulate(
            machine,
            KRad(),
            js,
            fault_model=ScriptedKills({3: [0]}),
            retry_policy=RetryPolicy(max_attempts=2, base_delay=1),
        )
        s = summarize_robustness(r)
        assert s.total_wasted == 3  # three chain steps discarded
        assert s.total_retries == 1
        assert s.max_retries_per_job == 1
        assert 0.0 < s.wasted_fraction < 1.0
        assert all(0.0 <= g <= 1.0 for g in s.goodput)

    def test_stalls_surface(self, rng):
        from repro.sim import summarize_robustness
        from repro.sim.faults import periodic_outage

        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 3, size_hint=12)
        r = simulate(
            machine,
            KRad(),
            js,
            churn=periodic_outage(
                (4,), category=0, period=5, duration=2, degraded=0
            ),
        )
        s = summarize_robustness(r)
        assert s.stall_steps > 0
        assert s.longest_stall >= 1
        assert s.longest_stall <= s.stall_steps

    def test_as_row_matches_headers(self):
        from repro.sim import summarize_robustness

        machine = KResourceMachine((2,))
        js = self._chain_js(3)
        s = summarize_robustness(simulate(machine, KRad(), js))
        assert len(s.as_row()) == len(s.ROW_HEADERS)
