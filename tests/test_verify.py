"""Unit tests for the bound-verification helpers."""

import pytest

from repro.dag import builders
from repro.errors import ReproError
from repro.jobs import JobSet, workloads
from repro.machine import KResourceMachine
from repro.schedulers import KRad
from repro.sim import simulate
from repro.theory import (
    check_lemma2,
    check_makespan_bound,
    check_theorem5,
    check_theorem6,
)


@pytest.fixture
def setup(machine2, rng):
    js = workloads.random_dag_jobset(rng, 2, 6)
    result = simulate(machine2, KRad(), js)
    return machine2, js, result


class TestChecks:
    def test_makespan_check_holds(self, setup):
        machine, js, result = setup
        chk = check_makespan_bound(result, js, machine)
        assert chk.holds
        assert chk.measured <= chk.bound
        assert "OK" in str(chk)

    def test_lemma2_check_holds(self, setup):
        machine, js, result = setup
        assert result.idle_steps == 0
        assert check_lemma2(result, js, machine).holds

    def test_lemma2_rejects_idle_runs(self, machine2):
        js = JobSet.from_dags(
            [builders.chain([0], 2), builders.chain([0], 2)],
            release_times=[0, 50],
        )
        result = simulate(machine2, KRad(), js)
        with pytest.raises(ReproError):
            check_lemma2(result, js, machine2)

    def test_theorem5_check(self, machine3, rng):
        js = workloads.light_phase_jobset(rng, machine3, 2)
        result = simulate(machine3, KRad(), js)
        assert check_theorem5(result, js, machine3).holds

    def test_theorem6_check(self, setup):
        machine, js, result = setup
        assert check_theorem6(result, js, machine).holds

    def test_job_count_mismatch(self, setup):
        machine, js, result = setup
        other = JobSet.from_dags([builders.chain([0], 2)])
        with pytest.raises(ReproError):
            check_makespan_bound(result, other, machine)

    def test_capacity_mismatch(self, setup):
        _, js, result = setup
        other_machine = KResourceMachine((2, 2))
        with pytest.raises(ReproError):
            check_makespan_bound(result, js, other_machine)

    def test_failed_check_reports(self, setup):
        machine, js, result = setup
        chk = check_makespan_bound(result, js, machine)
        # fabricate a violated check via the dataclass to test formatting
        from repro.theory.verify import BoundCheck

        bad = BoundCheck(name="x", measured=9.0, bound=1.0, holds=False)
        assert "VIOLATED" in str(bad)
