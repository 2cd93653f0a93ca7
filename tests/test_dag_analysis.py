"""Unit and property tests for DAG analysis (profiles, stats)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import KDag, builders, dag_stats, parallelism_profile
from repro.jobs import DagJob, FIFO


class TestParallelismProfile:
    def test_chain_profile_is_unit(self):
        dag = builders.chain([0, 1, 0], 2)
        profile = parallelism_profile(dag)
        assert profile.tolist() == [[1, 0], [0, 1], [1, 0]]

    def test_independent_tasks_profile(self):
        dag = builders.independent_tasks([3, 2])
        assert parallelism_profile(dag).tolist() == [[3, 2]]

    def test_empty_dag(self):
        assert parallelism_profile(KDag(2)).shape == (0, 2)

    def test_rows_equal_span_and_sum_to_work(self):
        rng = np.random.default_rng(0)
        dag = builders.layered_random(5, 6, 3, rng)
        profile = parallelism_profile(dag)
        assert profile.shape == (dag.span(), 3)
        assert profile.sum(axis=0).tolist() == dag.work_vector().tolist()

    def test_matches_greedy_execution(self):
        """The profile equals the desire trajectory under full allotment."""
        rng = np.random.default_rng(1)
        dag = builders.layered_random(4, 5, 2, rng)
        job = DagJob(dag)
        observed = []
        while not job.is_complete:
            d = job.desire_vector()
            observed.append(d.tolist())
            job.execute(d, FIFO)
        assert observed == parallelism_profile(dag).tolist()

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_profile_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        dag = builders.layered_random(4, 4, 2, rng)
        profile = parallelism_profile(dag)
        # every step of the infinite-processor schedule runs something
        assert (profile.sum(axis=1) >= 1).all()


class TestDagStats:
    def test_figure1_stats(self):
        stats = dag_stats(builders.figure1_job())
        assert stats.num_vertices == 8
        assert stats.num_edges == 8
        assert stats.work == (3, 3, 2)
        assert stats.span == 4
        assert stats.num_sources == 1
        assert stats.num_sinks == 2
        assert stats.average_parallelism == (3 / 4, 3 / 4, 2 / 4)
        assert max(stats.max_parallelism) >= 1

    def test_empty_dag_stats(self):
        stats = dag_stats(KDag(2))
        assert stats.span == 0
        assert stats.average_parallelism == (0.0, 0.0)
        assert stats.max_parallelism == (0, 0)

    def test_str_contains_key_fields(self):
        s = str(dag_stats(builders.figure1_job()))
        assert "|V|=8" in s and "span=4" in s


class TestRenderProfile:
    def test_render(self):
        from repro.viz import render_profile

        profile = parallelism_profile(builders.figure1_job())
        out = render_profile(profile, category_names=("cpu", "vec", "io"))
        assert "cpu" in out and "peak" in out

    def test_empty(self):
        from repro.viz import render_profile

        assert "empty" in render_profile(np.zeros((0, 2)))
