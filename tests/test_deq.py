"""Unit and property tests for the DEQ allocation procedure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.schedulers.deq import deq_allocate


class TestDeqBasics:
    def test_everyone_satisfied_when_capacity_ample(self):
        alloc = deq_allocate([1, 2, 3], {1: 2, 2: 3, 3: 1}, 10)
        assert alloc == {1: 2, 2: 3, 3: 1}

    def test_equal_split_when_all_deprived(self):
        alloc = deq_allocate([1, 2], {1: 10, 2: 10}, 8)
        assert alloc == {1: 4, 2: 4}

    def test_remainder_goes_to_queue_front(self):
        alloc = deq_allocate([5, 7, 9], {5: 10, 7: 10, 9: 10}, 8)
        assert alloc == {5: 3, 7: 3, 9: 2}

    def test_small_desire_peeled_then_rest_split(self):
        # fair share 2; job 1 wants 1 -> satisfied; remaining 5 split 2 ways
        alloc = deq_allocate([1, 2, 3], {1: 1, 2: 9, 3: 9}, 6)
        assert alloc[1] == 1
        assert alloc[2] + alloc[3] == 5
        assert abs(alloc[2] - alloc[3]) <= 1

    def test_recursive_peeling(self):
        # after peeling small jobs the fair share grows and more are peeled
        alloc = deq_allocate([1, 2, 3, 4], {1: 1, 2: 2, 3: 3, 4: 100}, 12)
        assert alloc[1] == 1 and alloc[2] == 2 and alloc[3] == 3
        assert alloc[4] == 6

    def test_more_jobs_than_processors(self):
        alloc = deq_allocate([1, 2, 3], {1: 1, 2: 1, 3: 1}, 2)
        assert alloc == {1: 1, 2: 1, 3: 0}

    def test_empty_queue(self):
        assert deq_allocate([], {}, 4) == {}

    def test_zero_capacity(self):
        assert deq_allocate([1], {1: 3}, 0) == {1: 0}

    def test_negative_capacity_rejected(self):
        with pytest.raises(ScheduleError):
            deq_allocate([1], {1: 1}, -1)

    def test_nonpositive_desire_rejected(self):
        with pytest.raises(ScheduleError):
            deq_allocate([1], {1: 0}, 4)


@st.composite
def deq_instance(draw):
    n = draw(st.integers(1, 12))
    desires = {
        i: draw(st.integers(1, 30)) for i in range(n)
    }
    capacity = draw(st.integers(0, 40))
    return list(range(n)), desires, capacity


class TestDeqProperties:
    @given(deq_instance())
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, instance):
        queue, desires, capacity = instance
        alloc = deq_allocate(queue, desires, capacity)
        # every queued job is allotted (possibly zero)
        assert set(alloc) == set(queue)
        # never exceeds desire, never negative
        for jid, a in alloc.items():
            assert 0 <= a <= desires[jid]
        total = sum(alloc.values())
        # capacity respected
        assert total <= capacity
        # work-conserving: either all capacity used or every job satisfied
        if total < capacity:
            assert all(alloc[j] == desires[j] for j in queue)

    @given(deq_instance())
    @settings(max_examples=300, deadline=None)
    def test_deprived_jobs_get_equal_share(self, instance):
        """Deprived jobs receive the mean deprived allotment (within 1)."""
        queue, desires, capacity = instance
        alloc = deq_allocate(queue, desires, capacity)
        deprived = [alloc[j] for j in queue if alloc[j] < desires[j]]
        if deprived:
            assert max(deprived) - min(deprived) <= 1
            # no satisfied job received more than a deprived one got + 1:
            # DEQ protects small requests, it never starves the deprived
            satisfied = [alloc[j] for j in queue if alloc[j] == desires[j]]
            if satisfied:
                assert max(satisfied) <= max(deprived) + 1

    @given(deq_instance())
    @settings(max_examples=200, deadline=None)
    def test_deterministic(self, instance):
        queue, desires, capacity = instance
        assert deq_allocate(queue, desires, capacity) == deq_allocate(
            queue, desires, capacity
        )
