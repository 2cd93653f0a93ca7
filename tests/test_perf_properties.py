"""Property-based tests for the engine on machines with speeds."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.schedulers import KRad
from repro.sim import simulate
from repro.theory.bounds import job_weighted_span, makespan_lower_bound


def _machine(caps, speeds):
    """A machine whose categories run at the given speeds."""
    return KResourceMachine(caps, speeds=speeds)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def speed_case(draw):
    k = draw(st.integers(1, 3))
    caps = tuple(draw(st.integers(1, 4)) for _ in range(k))
    speeds = tuple(draw(st.integers(1, 4)) for _ in range(k))
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    js = workloads.random_dag_jobset(rng, k, n, size_hint=6)
    return caps, speeds, js


class TestSpeedProperties:
    @given(speed_case())
    @_SETTINGS
    def test_unit_speed_equivalence(self, case):
        caps, _, js = case
        a = simulate(KResourceMachine(caps), KRad(), js)
        b = simulate(
            _machine(caps, tuple(1 for _ in caps)), KRad(), js
        )
        assert a.makespan == b.makespan
        assert a.completion_times == b.completion_times

    @given(speed_case())
    @_SETTINGS
    def test_lower_bound_respected(self, case):
        caps, speeds, js = case
        machine = _machine(caps, speeds)
        r = simulate(machine, KRad(), js)
        assert r.makespan >= makespan_lower_bound(js, machine) - 1e-9

    @given(speed_case())
    @_SETTINGS
    def test_unit_speed_bound_is_the_weighted_one(self, case):
        """The unit-speed shortcut (release plus plain span) returns what
        the weighted-span certificate returns at speeds all 1."""
        caps, _, js = case
        machine = KResourceMachine(caps)
        span = max(
            j.release_time + job_weighted_span(j, machine.speeds) for j in js
        )
        work = np.max(js.total_work_vector() / machine.throughput_vector())
        assert makespan_lower_bound(js, machine) == max(span, float(work))

    @given(speed_case())
    @_SETTINGS
    def test_uniform_speedup_bounded(self, case):
        """Doubling every speed cannot slow the schedule down much.

        Strict monotonicity is FALSE: K-RAD is non-clairvoyant, and faster
        processors change which tasks finish together, which reorders the
        queues — a Graham-style scheduling anomaly (found by hypothesis:
        caps (2,1,2), speeds (3,1,1), 4 jobs, makespan 5 -> 6).  What does
        hold is the competitive bound: both schedules stay within the
        Theorem-3 factor of the same lower bound, so doubling speeds can
        cost at most that constant factor (plus unit-step rounding).
        """
        caps, speeds, js = case
        slow = simulate(_machine(caps, speeds), KRad(), js)
        fast = simulate(
            _machine(caps, tuple(2 * s for s in speeds)), KRad(), js
        )
        k = len(caps)
        pmax = max(caps)
        ratio = k + 1 - 1 / pmax
        assert fast.makespan <= ratio * slow.makespan + 1

    @given(speed_case())
    @_SETTINGS
    def test_all_work_completes(self, case):
        caps, speeds, js = case
        machine = _machine(caps, speeds)
        r = simulate(machine, KRad(), js)
        assert set(r.completion_times) == {j.job_id for j in js}
        assert r.busy.tolist() == js.total_work_vector().tolist()
