"""Unit tests for the performance-heterogeneity extension."""

import numpy as np
import pytest

from repro.dag import builders
from repro.errors import CategoryError, ReproError, SimulationError
from repro.jobs import JobSet, Phase, PhaseJob, workloads
from repro.machine import KResourceMachine
from repro.io.serialize import machine_from_dict, machine_to_dict
from repro.schedulers import KRad
from repro.sim import simulate
from repro.theory import bounds
from repro.theory.bounds import (
    job_weighted_span,
    makespan_lower_bound,
    weighted_span,
)


def _machine(caps, speeds, names=None):
    """A machine whose categories run at the given speeds."""
    return KResourceMachine(caps, names=names, speeds=speeds)


class TestSpeedMachine:
    def test_basic(self):
        m = _machine((4, 2), (1, 3), names=("cpu", "vector"))
        assert m.speeds == (1, 3)
        assert m.max_speed == 3
        assert m.speed(1) == 3
        assert m.throughput_vector().tolist() == [4, 6]
        assert m.capacities == (4, 2)
        assert m.num_categories == 2
        assert KResourceMachine((4, 2)).speeds == (1, 1)
        assert KResourceMachine((4, 2)).max_speed == 1

    def test_validation(self):
        with pytest.raises(CategoryError):
            _machine((4, 2), (1,))
        with pytest.raises(CategoryError):
            _machine((4,), (0,))
        with pytest.raises(CategoryError):
            _machine((4,), (1,)).speed(1)

    def test_speeds_in_equality_and_hash(self):
        assert _machine((4, 2), (1, 3)) != KResourceMachine((4, 2))
        assert _machine((4, 2), (1, 1)) == KResourceMachine((4, 2))
        assert hash(_machine((4, 2), (1, 1))) == hash(
            KResourceMachine((4, 2))
        )
        assert len({_machine((4, 2), (1, 3)), KResourceMachine((4, 2))}) == 2

    def test_dict_writes_speeds_only_above_one(self):
        plain = machine_to_dict(_machine((4, 2), (1, 1)))
        assert "speeds" not in plain
        assert plain == machine_to_dict(KResourceMachine((4, 2)))
        m = _machine((4, 2), (1, 3))
        doc = machine_to_dict(m)
        assert doc["speeds"] == [1, 3]
        assert machine_from_dict(doc) == m


class TestWeightedSpan:
    def test_unit_speeds_equal_span(self):
        dag = builders.chain([0, 1, 0], 2)
        assert weighted_span(dag, (1, 1)) == dag.span()

    def test_mixed_speeds(self):
        dag = builders.chain([0, 1, 0], 2)
        # step 1: v0 in round 0, v1 in round 1 (cat 1 runs rounds 0-1);
        # v2 is cat 0 (round 0 only) so it needs step 2.
        assert weighted_span(dag, (1, 2)) == pytest.approx(2.0)

    def test_chain_crosses_categories_within_a_step(self):
        # The engine lets a fast successor run in a later micro-round of
        # the same macro step, so this two-task chain costs ONE step, not
        # 1/1 + 1/2.  Regression for an over-strong earlier bound.
        dag = builders.chain([0, 1], 2)
        assert weighted_span(dag, (1, 2)) == pytest.approx(1.0)

    def test_same_category_chain_packs_rounds(self):
        # five cat-1 tasks at speed 2: two per macro step -> ceil(5/2)
        dag = builders.chain([1] * 5, 2)
        assert weighted_span(dag, (1, 2)) == pytest.approx(3.0)

    def test_picks_heaviest_path(self):
        dag = builders.fork_join(2, 1, 2, fork_category=0, join_category=0)
        # fork(0) round 0, body(1) round 1 (speed 4 runs rounds 0-3),
        # join(0) is round-0-only -> step 2
        assert weighted_span(dag, (1, 4)) == pytest.approx(2.0)

    def test_empty_dag(self):
        from repro.dag import KDag

        assert weighted_span(KDag(1), (2,)) == 0.0

    def test_speed_count_validated(self):
        dag = builders.chain([0], 1)
        with pytest.raises(ReproError):
            weighted_span(dag, (1, 1))

    def test_phase_job_conservative(self):
        job = PhaseJob([Phase([4, 0], [2, 1])])
        assert job_weighted_span(job, (2, 4)) == pytest.approx(job.span() / 4)


class TestSpeedEngine:
    def test_unit_speeds_reduce_to_base_engine(self, rng):
        caps = (4, 2, 8)
        js = workloads.random_dag_jobset(rng, 3, 6)
        a = simulate(KResourceMachine(caps), KRad(), js)
        b = simulate(_machine(caps, (1, 1, 1)), KRad(), js)
        assert a.makespan == b.makespan
        assert a.completion_times == b.completion_times

    def test_chain_speedup_is_exact(self):
        # a serial chain of 12 category-0 tasks at speed 3 -> 4 steps
        dag = builders.chain([0] * 12, 1)
        js = JobSet.from_dags([dag])
        m = _machine((2,), (3,))
        r = simulate(m, KRad(), js)
        assert r.makespan == 4

    def test_wide_work_speedup_is_exact(self):
        # 24 independent tasks, 2 procs at speed 3 -> 24 / 6 = 4 steps
        dag = builders.independent_tasks([24])
        js = JobSet.from_dags([dag])
        r = simulate(_machine((2,), (3,)), KRad(), js)
        assert r.makespan == 4

    def test_speed_never_hurts(self, rng):
        caps = (4, 2)
        js = workloads.random_dag_jobset(rng, 2, 6)
        slow = simulate(_machine(caps, (1, 1)), KRad(), js)
        fast = simulate(_machine(caps, (2, 3)), KRad(), js)
        assert fast.makespan <= slow.makespan

    def test_lower_bound_respected(self, rng):
        m = _machine((4, 2), (2, 3))
        js = workloads.random_dag_jobset(rng, 2, 5)
        r = simulate(m, KRad(), js)
        assert r.makespan >= makespan_lower_bound(js, m) - 1e-9
        # a 4x category: the unit-speed certificate would exceed the
        # measured makespan on most of these seeds (33.0 vs 14 on seed 2)
        m = _machine((2, 2), (1, 4))
        for seed in range(20):
            js = workloads.random_dag_jobset(np.random.default_rng(seed), 2, 6)
            r = simulate(m, KRad(), js)
            lb = makespan_lower_bound(js, m)
            assert r.makespan >= lb - 1e-9, (seed, r.makespan, lb)
            if seed == 2:
                assert (r.makespan, lb) == (14, 13.5)

    def test_k_mismatch_rejected(self, rng):
        js = workloads.random_dag_jobset(rng, 2, 2)
        with pytest.raises(SimulationError):
            simulate(_machine((4,), (1,)), KRad(), js)

    def test_phase_jobs_supported(self):
        js = JobSet([PhaseJob([Phase([12], [4])], job_id=0)])
        r = simulate(_machine((4,), (3,)), KRad(), js)
        assert r.makespan == 1  # 4 procs x 3 speed = 12 units in one step

    def test_fast_engine_runs_speeds_like_reference(self, rng):
        # K-RAD on phase jobs is lean-eligible except for the speeds
        m = _machine((4, 2), (2, 3))
        js = workloads.random_phase_jobset(rng, 2, 6, max_work=20)
        ref = simulate(m, KRad(), js, engine="reference")
        fast = simulate(m, KRad(), js, engine="fast")
        assert fast.completion_times == ref.completion_times
        assert fast.busy.tolist() == ref.busy.tolist()
        assert ref.makespan < simulate(
            KResourceMachine((4, 2)), KRad(), js
        ).makespan

    def test_trace_needs_unit_speeds(self, rng):
        js = workloads.random_dag_jobset(rng, 2, 2)
        with pytest.raises(SimulationError, match="unit speeds"):
            simulate(_machine((4, 2), (1, 2)), KRad(), js, record_trace=True)

    def test_checkpoint_resume_keeps_speeds(self, rng):
        from repro.sim import Simulator

        m = _machine((4, 2), (2, 3))
        js = workloads.random_dag_jobset(rng, 2, 6)
        full = simulate(m, KRad(), js)
        sim = Simulator(m, KRad(), js.fresh_copy())
        assert sim.run_until(2) is None
        resumed = Simulator.restore(sim.checkpoint(), KRad()).run()
        assert resumed.completion_times == full.completion_times

    def test_lb_k_mismatch_rejected(self, rng):
        js = workloads.random_dag_jobset(rng, 2, 2)
        with pytest.raises(ReproError):
            makespan_lower_bound(js, _machine((4,), (1,)))


class TestUnitSpeedOnlyBounds:
    """The paper's response-time and Lemma-2 bounds have no speed
    generalisation here: a machine with speeds is refused, not
    answered with an unsound number."""

    @pytest.mark.parametrize(
        "bound",
        [
            bounds.lemma2_bound,
            bounds.total_response_lower_bound,
            bounds.mean_response_lower_bound,
            bounds.mean_response_floor,
            bounds.theorem5_total_rt_bound,
        ],
        ids=lambda f: f.__name__,
    )
    def test_refused_on_speed_machine(self, bound, rng):
        js = workloads.random_dag_jobset(rng, 2, 4)
        assert js.is_batched()
        bound(js, KResourceMachine((4, 2)))  # unit speeds: answered
        with pytest.raises(ReproError, match="unit speeds only"):
            bound(js, _machine((4, 2), (1, 2)))
