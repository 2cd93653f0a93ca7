"""Unit tests for the PhaseJob backend."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.jobs import Phase, PhaseJob


class TestPhase:
    def test_basic(self):
        ph = Phase([6, 0], [2, 1])
        assert ph.span() == 3
        assert ph.num_categories == 2

    def test_parallelism_normalised_where_no_work(self):
        ph = Phase([4, 0], [2, 0])
        assert ph.parallelism.tolist() == [2, 1]

    def test_span_ceil(self):
        assert Phase([5], [2]).span() == 3

    def test_validation(self):
        with pytest.raises(WorkloadError):
            Phase([1], [1, 1])  # shape mismatch
        with pytest.raises(WorkloadError):
            Phase([-1], [1])
        with pytest.raises(WorkloadError):
            Phase([3], [0])  # parallelism 0 with work
        with pytest.raises(WorkloadError):
            Phase([0, 0], [1, 1])  # empty phase


class TestPhaseJob:
    def test_requires_phases(self):
        with pytest.raises(WorkloadError):
            PhaseJob([])

    def test_consistent_k_required(self):
        with pytest.raises(WorkloadError):
            PhaseJob([Phase([1], [1]), Phase([1, 1], [1, 1])])

    def test_static_aggregates(self):
        job = PhaseJob([Phase([6, 0], [2, 1]), Phase([0, 4], [1, 4])])
        assert job.work_vector().tolist() == [6, 4]
        assert job.span() == 3 + 1

    def test_desire_follows_phase(self):
        job = PhaseJob([Phase([6, 0], [2, 1]), Phase([0, 4], [1, 4])])
        assert job.desire_vector().tolist() == [2, 0]

    def test_desire_caps_at_remaining(self):
        job = PhaseJob([Phase([3], [2])])
        job.execute(np.asarray([2]), None)
        assert job.desire_vector().tolist() == [1]

    def test_execution_advances_phases(self):
        job = PhaseJob([Phase([2], [2]), Phase([1], [1])])
        assert job.current_phase_index == 0
        job.execute(np.asarray([2]), None)
        assert job.current_phase_index == 1
        job.execute(np.asarray([1]), None)
        assert job.is_complete
        assert job.desire_vector().tolist() == [0]

    def test_full_allotment_reduces_span_by_one(self):
        job = PhaseJob(
            [Phase([4, 2], [2, 2]), Phase([3, 0], [3, 1])]
        )
        spans = [job.remaining_span()]
        while not job.is_complete:
            job.execute(job.desire_vector(), None)
            spans.append(job.remaining_span())
        assert spans == list(range(spans[0], -1, -1))

    def test_partial_allotment_slower(self):
        job = PhaseJob([Phase([4], [4])])
        job.execute(np.asarray([2]), None)
        assert not job.is_complete
        assert job.remaining_work_vector().tolist() == [2]

    def test_over_allotment_rejected(self):
        from repro.errors import ScheduleError

        job = PhaseJob([Phase([4], [2])])
        with pytest.raises(ScheduleError):
            job.execute(np.asarray([3]), None)

    def test_executed_ids_unique_for_trace(self):
        job = PhaseJob([Phase([4], [2])])
        a = job.execute(np.asarray([2]), None)
        b = job.execute(np.asarray([2]), None)
        ids = a[0] + b[0]
        assert len(set(ids)) == 4

    def test_remaining_work_includes_future_phases(self):
        job = PhaseJob([Phase([2], [1]), Phase([5], [1])])
        assert job.remaining_work_vector().tolist() == [7]
        job.execute(np.asarray([1]), None)
        assert job.remaining_work_vector().tolist() == [6]
        # the suffix table against a direct sum of the later phases
        phases = [
            Phase([4, 0], [2, 1]),
            Phase([1, 3], [1, 2]),
            Phase([2, 2], [1, 1]),
        ]
        job = PhaseJob(phases)
        while not job.is_complete:
            idx = job.current_phase_index
            future = sum(ph.work for ph in phases[idx + 1 :])
            assert (
                job.remaining_work_vector() == job.phase_remaining + future
            ).all()
            job.execute(job.desire_vector(), None)
        assert job.remaining_work_vector().tolist() == [0, 0]

    def test_fresh_copy_resets(self):
        job = PhaseJob([Phase([2], [2])], job_id=3, release_time=5)
        job.execute(np.asarray([2]), None)
        assert job.is_complete
        clone = job.fresh_copy()
        assert not clone.is_complete
        assert clone.job_id == 3 and clone.release_time == 5

    def test_phases_property(self):
        phases = [Phase([1], [1])]
        assert PhaseJob(phases).phases == tuple(phases)
