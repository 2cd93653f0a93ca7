"""Unit tests for traces and the schedule validity checker."""

import pytest

from repro.dag import builders
from repro.errors import ValidationError
from repro.jobs import JobSet
from repro.schedulers import KRad
from repro.sim import simulate, validate_schedule
from repro.sim.trace import StepRecord, Trace


def run_with_trace(machine, dags, releases=None):
    js = JobSet.from_dags(dags, releases)
    result = simulate(machine, KRad(), js, record_trace=True)
    return js, result


class TestTrace:
    def test_placements_processor_packing(self, machine2):
        js, r = run_with_trace(machine2, [builders.independent_tasks([4, 2])])
        placements = list(r.trace.placements())
        cpu_procs = [p.processor for p in placements if p.category == 0]
        assert sorted(cpu_procs) == [0, 1, 2, 3]

    def test_task_times_total(self, machine2):
        js, r = run_with_trace(machine2, [builders.chain([0, 1, 0], 2)])
        tau = r.trace.task_times()
        assert len(tau) == 3
        assert tau[(0, 0)] < tau[(0, 1)] < tau[(0, 2)]

    def test_monotone_steps_enforced(self):
        trace = Trace(num_categories=1, capacities=(1,))
        rec = StepRecord(t=1, desires={}, allotments={}, executed={})
        trace.append(rec)
        with pytest.raises(ValueError):
            trace.append(rec)

    def test_busy_matrix_shape(self, machine2):
        js, r = run_with_trace(machine2, [builders.independent_tasks([4, 2])])
        bm = r.trace.busy_matrix()
        assert bm.shape == (len(r.trace), 2)


class TestValidator:
    def test_valid_schedule_passes(self, machine3, rng):
        from repro.jobs import workloads

        js = workloads.random_dag_jobset(rng, 3, 6)
        r = simulate(machine3, KRad(), js, record_trace=True)
        validate_schedule(r.trace, js)

    def test_detects_double_execution(self, machine2):
        trace = Trace(num_categories=2, capacities=(4, 2))
        js = JobSet.from_dags([builders.independent_tasks([2, 0])])
        trace.append(
            StepRecord(t=1, desires={}, allotments={}, executed={0: [[0, 0], []]})
        )
        with pytest.raises(ValidationError, match="twice"):
            validate_schedule(trace, js)

    def test_detects_missing_task(self, machine2):
        trace = Trace(num_categories=2, capacities=(4, 2))
        js = JobSet.from_dags([builders.independent_tasks([2, 0])])
        trace.append(
            StepRecord(t=1, desires={}, allotments={}, executed={0: [[0], []]})
        )
        with pytest.raises(ValidationError, match="never executed"):
            validate_schedule(trace, js)

    def test_detects_precedence_violation(self, machine2):
        trace = Trace(num_categories=2, capacities=(4, 2))
        js = JobSet.from_dags([builders.chain([0, 0], 2)])
        trace.append(
            StepRecord(t=1, desires={}, allotments={}, executed={0: [[1], []]})
        )
        trace.append(
            StepRecord(t=2, desires={}, allotments={}, executed={0: [[0], []]})
        )
        with pytest.raises(ValidationError, match="precedence"):
            validate_schedule(trace, js)

    def test_detects_capacity_violation(self):
        machine_caps = (1,)
        trace = Trace(num_categories=1, capacities=machine_caps)
        js = JobSet.from_dags([builders.independent_tasks([2])])
        trace.append(
            StepRecord(t=1, desires={}, allotments={}, executed={0: [[0, 1]]})
        )
        with pytest.raises(ValidationError):
            validate_schedule(trace, js)

    def test_detects_wrong_category(self):
        trace = Trace(num_categories=2, capacities=(2, 2))
        dag = builders.chain([0], 2)  # task 0 is category 0
        js = JobSet.from_dags([dag])
        trace.append(
            StepRecord(
                t=1, desires={}, allotments={}, executed={0: [[], [0]]}
            )
        )
        with pytest.raises(ValidationError):
            validate_schedule(trace, js)

    def test_detects_execution_before_release(self):
        trace = Trace(num_categories=1, capacities=(1,))
        js = JobSet.from_dags([builders.chain([0], 1)], release_times=[5])
        trace.append(
            StepRecord(t=3, desires={}, allotments={}, executed={0: [[0]]})
        )
        with pytest.raises(ValidationError, match="released"):
            validate_schedule(trace, js)

    def test_detects_unknown_job(self):
        trace = Trace(num_categories=1, capacities=(1,))
        js = JobSet.from_dags([builders.chain([0], 1)])
        trace.append(
            StepRecord(t=1, desires={}, allotments={}, executed={9: [[0]]})
        )
        with pytest.raises(ValidationError, match="unknown job"):
            validate_schedule(trace, js)
