"""Property tests for the A-GREEDY estimator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.feedback import AGreedyEstimator


@st.composite
def observation_stream(draw):
    quantum = draw(st.integers(1, 5))
    cap = draw(st.integers(1, 32))
    n = draw(st.integers(1, 60))
    events = []
    for _ in range(n):
        allotted = draw(st.integers(0, cap))
        used = draw(st.integers(0, allotted))
        deprived = draw(st.booleans())
        events.append((allotted, used, deprived))
    return quantum, cap, events


class TestEstimatorInvariants:
    @given(observation_stream())
    @settings(max_examples=150, deadline=None)
    def test_estimate_stays_in_range(self, stream):
        quantum, cap, events = stream
        est = AGreedyEstimator(quantum=quantum, max_estimate=cap)
        for allotted, used, deprived in events:
            est.observe(0, 0, allotted=allotted, used=used, deprived=deprived)
            assert 1 <= est.estimate(0, 0) <= cap

    @given(observation_stream())
    @settings(max_examples=100, deadline=None)
    def test_estimate_moves_by_rho_steps_only(self, stream):
        """Between observations the estimate changes by at most the
        responsiveness factor (no jumps)."""
        quantum, cap, events = stream
        est = AGreedyEstimator(
            quantum=quantum, responsiveness=2.0, max_estimate=cap
        )
        prev = est.estimate(0, 0)
        for allotted, used, deprived in events:
            est.observe(0, 0, allotted=allotted, used=used, deprived=deprived)
            cur = est.estimate(0, 0)
            assert prev / 2 - 1 <= cur <= prev * 2 + 1
            prev = cur

    @given(st.integers(1, 5), st.integers(2, 64))
    @settings(max_examples=60, deadline=None)
    def test_perfect_usage_reaches_cap(self, quantum, cap):
        """A job that always uses everything it asks for climbs to the
        category capacity in logarithmically many quanta."""
        est = AGreedyEstimator(quantum=quantum, max_estimate=cap)
        for _ in range(quantum * (cap.bit_length() + 2)):
            a = est.estimate(0, 0)
            est.observe(0, 0, allotted=a, used=a, deprived=False)
        assert est.estimate(0, 0) == cap

    @given(st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_zero_usage_collapses_to_one(self, quantum):
        est = AGreedyEstimator(quantum=quantum, max_estimate=64)
        # climb first
        for _ in range(quantum * 8):
            a = est.estimate(0, 0)
            est.observe(0, 0, allotted=a, used=a, deprived=False)
        # then waste everything
        for _ in range(quantum * 10):
            a = est.estimate(0, 0)
            est.observe(0, 0, allotted=a, used=0, deprived=False)
        assert est.estimate(0, 0) == 1

    @given(observation_stream())
    @settings(max_examples=60, deadline=None)
    def test_independent_cells(self, stream):
        """Observations on one (job, category) never touch another."""
        quantum, cap, events = stream
        est = AGreedyEstimator(quantum=quantum, max_estimate=cap)
        baseline = est.estimate(7, 1)
        for allotted, used, deprived in events:
            est.observe(0, 0, allotted=allotted, used=used, deprived=deprived)
        assert est.estimate(7, 1) == baseline
