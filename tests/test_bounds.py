"""Unit tests for lower bounds and competitive-ratio closed forms."""

import pytest

from repro.dag import builders
from repro.errors import ReproError
from repro.jobs import JobSet
from repro.machine import KResourceMachine
from repro.theory import bounds


def simple_jobset():
    # job 0: chain of 3 cat-0 tasks (span 3); job 1: 6 independent cat-1
    return JobSet.from_dags(
        [builders.chain([0, 0, 0], 2), builders.independent_tasks([0, 6])]
    )


class TestMakespanLowerBound:
    def test_work_bound_dominates(self):
        machine = KResourceMachine((4, 1))
        js = simple_jobset()
        # work bounds: 3/4 and 6/1; span bound max(3, 1) = 3
        assert bounds.makespan_lower_bound(js, machine) == 6.0

    def test_span_bound_dominates(self):
        machine = KResourceMachine((4, 8))
        js = simple_jobset()
        assert bounds.makespan_lower_bound(js, machine) == 3.0

    def test_release_times_counted(self):
        machine = KResourceMachine((4, 8))
        js = JobSet.from_dags(
            [builders.chain([0, 0, 0], 2), builders.independent_tasks([0, 6])],
            release_times=[10, 0],
        )
        assert bounds.makespan_lower_bound(js, machine) == 13.0

    def test_k_mismatch_rejected(self):
        machine = KResourceMachine((4,))
        with pytest.raises(ReproError):
            bounds.makespan_lower_bound(simple_jobset(), machine)


class TestLemma2Bound:
    def test_formula(self):
        machine = KResourceMachine((4, 2))
        js = simple_jobset()
        expected = 3 / 4 + 6 / 2 + (1 - 1 / 4) * 3
        assert bounds.lemma2_bound(js, machine) == pytest.approx(expected)


class TestClosedForms:
    def test_theorem1_and_3_agree(self):
        assert bounds.theorem1_ratio(3, 8) == bounds.theorem3_ratio(3, 8)
        assert bounds.theorem1_ratio(3, 8) == pytest.approx(4 - 1 / 8)

    def test_theorem1_k1_matches_classic(self):
        assert bounds.theorem1_ratio(1, 16) == pytest.approx(2 - 1 / 16)

    def test_theorem5_ratio(self):
        assert bounds.theorem5_ratio(2, 9) == pytest.approx(5 - 4 / 10)

    def test_theorem6_ratio(self):
        assert bounds.theorem6_ratio(2, 9) == pytest.approx(9 - 8 / 10)

    def test_k1_mean_response_under_3(self):
        for n in (1, 2, 10, 1000):
            assert bounds.k1_mean_response_ratio(n) < 3.0
        assert bounds.k1_mean_response_ratio(10**9) == pytest.approx(3.0, abs=1e-6)

    def test_k1_beats_edmonds(self):
        assert bounds.k1_mean_response_ratio(10**9) < bounds.EDMONDS_EQUI_RATIO

    def test_validation(self):
        with pytest.raises(ReproError):
            bounds.theorem1_ratio(0, 4)
        with pytest.raises(ReproError):
            bounds.theorem5_ratio(1, 0)
        with pytest.raises(ReproError):
            bounds.theorem6_ratio(0, 1)


class TestResponseLowerBounds:
    def test_batched_required(self):
        machine = KResourceMachine((4, 2))
        js = JobSet.from_dags(
            [builders.chain([0], 2), builders.chain([1], 2)],
            release_times=[0, 5],
        )
        with pytest.raises(ReproError):
            bounds.total_response_lower_bound(js, machine)

    def test_span_term(self):
        machine = KResourceMachine((100, 100))
        js = simple_jobset()
        # swa tiny with huge machines; aggregate span = 3 + 1
        assert bounds.total_response_lower_bound(js, machine) == 4.0

    def test_swa_term(self):
        machine = KResourceMachine((1, 1))
        js = simple_jobset()
        from repro.theory.squashed import squashed_sum

        expected = max(squashed_sum([3, 0]), squashed_sum([0, 6]), 4.0)
        assert bounds.total_response_lower_bound(js, machine) == expected

    def test_mean_divides_by_n(self):
        machine = KResourceMachine((1, 1))
        js = simple_jobset()
        assert bounds.mean_response_lower_bound(
            js, machine
        ) == bounds.total_response_lower_bound(js, machine) / 2

    def test_theorem5_total_rt_bound_formula(self):
        machine = KResourceMachine((2, 2))
        js = simple_jobset()
        from repro.theory.squashed import squashed_work_areas

        swa = squashed_work_areas(js.work_matrix(), machine.capacities)
        expected = (2 - 2 / 3) * swa.sum() + 4
        assert bounds.theorem5_total_rt_bound(js, machine) == pytest.approx(
            expected
        )
