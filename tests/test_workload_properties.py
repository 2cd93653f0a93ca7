"""Property tests for every release-time generator.

The release-time contract of :mod:`repro.jobs.workloads`: given any
seed and any valid parameters, a generator returns a sorted,
non-negative integer list of exactly ``num_jobs`` arrivals whose first
element is 0, and ``num_jobs=0`` returns ``[]``.  Hypothesis explores the parameter space
so the edge cases (single job, empty draw, tiny rates, zero gaps/widths)
are covered by search rather than by hand-picked examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.workloads import (
    bursty_release_times,
    diurnal_release_times,
    flash_crowd_release_times,
    poisson_release_times,
    uniform_release_times,
)

SETTINGS = settings(max_examples=25, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
counts = st.integers(min_value=0, max_value=60)


def check_contract(times, num_jobs):
    assert isinstance(times, list)
    assert len(times) == num_jobs
    assert all(isinstance(t, int) for t in times)
    if num_jobs == 0:
        assert times == []
        return
    assert times[0] == 0
    assert times == sorted(times)
    assert all(t >= 0 for t in times)


class TestPoisson:
    @SETTINGS
    @given(seed=seeds, n=counts, rate=st.floats(0.01, 10.0))
    def test_contract(self, seed, n, rate):
        rng = np.random.default_rng(seed)
        check_contract(poisson_release_times(rng, n, rate=rate), n)


class TestUniform:
    @SETTINGS
    @given(seed=seeds, n=counts, horizon=st.integers(0, 200))
    def test_contract(self, seed, n, horizon):
        rng = np.random.default_rng(seed)
        times = uniform_release_times(rng, n, horizon=horizon)
        check_contract(times, n)
        if times:
            assert max(times) <= horizon


class TestBursty:
    @SETTINGS
    @given(
        seed=seeds,
        n=counts,
        burst_size=st.integers(1, 20),
        gap=st.integers(0, 100),
    )
    def test_contract(self, seed, n, burst_size, gap):
        rng = np.random.default_rng(seed)
        times = bursty_release_times(
            rng, n, burst_size=burst_size, gap=gap
        )
        check_contract(times, n)
        if gap == 0 and n:
            assert set(times) == {0}


class TestDiurnal:
    @SETTINGS
    @given(
        seed=seeds,
        n=counts,
        period=st.integers(1, 500),
        rates=st.tuples(
            st.floats(0.01, 1.0), st.floats(0.0, 1.0)
        ),
    )
    def test_contract(self, seed, n, period, rates):
        peak, frac = rates
        trough = max(1e-3, peak * max(frac, 1e-3))
        rng = np.random.default_rng(seed)
        times = diurnal_release_times(
            rng, n, period=period, peak_rate=peak, trough_rate=trough
        )
        check_contract(times, n)


class TestFlashCrowd:
    @SETTINGS
    @given(
        seed=seeds,
        n=counts,
        base_rate=st.floats(0.01, 2.0),
        crowd_fraction=st.floats(0.0, 1.0),
        crowd_width=st.integers(0, 10),
    )
    def test_contract(self, seed, n, base_rate, crowd_fraction, crowd_width):
        rng = np.random.default_rng(seed)
        times = flash_crowd_release_times(
            rng,
            n,
            base_rate=base_rate,
            crowd_fraction=crowd_fraction,
            crowd_width=crowd_width,
        )
        check_contract(times, n)

    @SETTINGS
    @given(seed=seeds, n=st.integers(4, 40))
    def test_crowd_concentration(self, seed, n):
        rng = np.random.default_rng(seed)
        times = flash_crowd_release_times(
            rng, n, base_rate=0.05, crowd_fraction=1.0, crowd_width=0
        )
        # the whole workload co-arrives when it is all crowd, width 0
        assert len(set(times)) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: poisson_release_times(rng, -1, rate=1.0),
        lambda rng: uniform_release_times(rng, -2, horizon=5),
        lambda rng: bursty_release_times(rng, -3),
        lambda rng: diurnal_release_times(rng, -1),
        lambda rng: flash_crowd_release_times(rng, -1),
    ],
)
def test_negative_counts_rejected(call):
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError):
        call(np.random.default_rng(0))
