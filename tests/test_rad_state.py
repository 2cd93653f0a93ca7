"""Unit tests for the RAD per-category state machine (Figure 2 semantics)."""

from repro.schedulers.rad import RadCategoryState


def make_state(n_jobs):
    st = RadCategoryState()
    st.register(range(n_jobs))
    return st


class TestDeqRegime:
    def test_few_jobs_get_deq(self):
        st = make_state(2)
        alloc = st.allocate({0: 3, 1: 1}, capacity=4)
        assert alloc == {0: 3, 1: 1}
        assert not st.in_rr_cycle()

    def test_inactive_jobs_ignored(self):
        st = make_state(3)
        alloc = st.allocate({0: 2, 1: 0, 2: 2}, capacity=4)
        assert alloc == {0: 2, 2: 2}

    def test_no_active_jobs(self):
        st = make_state(2)
        assert st.allocate({0: 0, 1: 0}, capacity=4) == {}


class TestRoundRobinCycle:
    def test_cycle_opens_when_active_exceeds_capacity(self):
        st = make_state(5)
        alloc = st.allocate({i: 1 for i in range(5)}, capacity=2)
        assert alloc == {0: 1, 1: 1}
        assert st.in_rr_cycle()
        assert st.marked_jobs == {0, 1}

    def test_unmarked_jobs_served_next(self):
        st = make_state(5)
        st.allocate({i: 1 for i in range(5)}, capacity=2)
        alloc = st.allocate({i: 1 for i in range(5)}, capacity=2)
        assert alloc == {2: 1, 3: 1}

    def test_cycle_closes_with_deq_and_unmark(self):
        st = make_state(5)
        desires = {i: 1 for i in range(5)}
        st.allocate(desires, 2)  # 0,1
        st.allocate(desires, 2)  # 2,3
        alloc = st.allocate(desires, 2)  # 4 unmarked; recycle one marked job
        assert alloc[4] == 1
        assert sum(alloc.values()) == 2  # one marked job recycled via DEQ
        assert not st.in_rr_cycle()  # cycle closed, all unmarked

    def test_service_is_fifo_across_cycles(self):
        st = make_state(4)
        desires = {i: 1 for i in range(4)}
        first = st.allocate(desires, 2)
        second = st.allocate(desires, 2)
        # cycle closed after second step (all 4 served)
        assert not st.in_rr_cycle()
        third = st.allocate(desires, 2)
        # next cycle serves jobs in the order they were served before
        assert set(first) == {0, 1}
        assert set(second) == {2, 3}
        assert set(third) == {0, 1}

    def test_newcomer_joins_current_cycle_unmarked(self):
        st = make_state(3)
        desires = {0: 1, 1: 1, 2: 1}
        st.allocate(desires, 2)  # serve 0,1; mark
        st.register([99])  # arrives mid-cycle
        desires = {0: 1, 1: 1, 2: 1, 99: 1}
        alloc = st.allocate(desires, 2)
        # 2 and 99 are the unmarked ones
        assert set(alloc) == {2, 99}

    def test_completed_job_pruned(self):
        st = make_state(3)
        st.allocate({0: 1, 1: 1, 2: 1}, 2)
        st.prune({0, 2})  # job 1 completed
        assert 1 not in st.queue_order
        assert 1 not in st.marked_jobs

    def test_marks_survive_temporary_inactivity(self):
        st = make_state(5)
        desires = {i: 1 for i in range(5)}
        st.allocate(desires, 2)  # 0,1 marked, cycle open
        # job 0 goes inactive for a step; the cycle stays open (|Q|=3 > 2)
        # so job 0 remains marked, exactly as in the paper where "unmark
        # all" only happens when a cycle completes
        st.allocate({0: 0, 1: 1, 2: 1, 3: 1, 4: 1}, 2)
        assert 0 in st.marked_jobs
        assert st.in_rr_cycle()

    def test_unmark_all_clears_inactive_jobs_too(self):
        st = make_state(4)
        desires = {i: 1 for i in range(4)}
        st.allocate(desires, 2)  # 0,1 marked
        # 0 inactive AND cycle closes (|Q| = 2 <= 2): paper unmarks ALL jobs
        st.allocate({0: 0, 1: 1, 2: 1, 3: 1}, 2)
        assert st.marked_jobs == frozenset()

    def test_capacity_one_degenerate_rr(self):
        st = make_state(3)
        desires = {i: 5 for i in range(3)}
        served = []
        for _ in range(3):
            alloc = st.allocate(desires, 1)
            assert sum(alloc.values()) == 1
            served.extend(alloc)
        assert sorted(served) == [0, 1, 2]

    def test_desire_aware_deq_on_cycle_close(self):
        st = make_state(2)
        # capacity 4, two active jobs -> straight DEQ with full desires
        alloc = st.allocate({0: 3, 1: 9}, 4)
        assert alloc[0] == 3 or alloc[0] == 2
        assert sum(alloc.values()) == 4


class TestRegisterPrune:
    def test_register_is_idempotent(self):
        st = RadCategoryState()
        st.register([1, 2])
        st.register([2, 1])
        assert st.queue_order == (1, 2)

    def test_prune_noop_when_all_alive(self):
        st = make_state(3)
        st.prune({0, 1, 2})
        assert st.queue_order == (0, 1, 2)
