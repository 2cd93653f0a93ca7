"""Unit tests for the KDag container."""

import pytest

from repro.dag import KDag
from repro.errors import CategoryError, DagError


class TestConstruction:
    def test_empty_dag(self):
        dag = KDag(2)
        assert dag.num_vertices == 0
        assert dag.num_edges == 0
        assert dag.span() == 0
        assert dag.total_work() == 0
        assert len(dag) == 0

    def test_add_vertex_returns_sequential_ids(self):
        dag = KDag(3)
        assert dag.add_vertex(0) == 0
        assert dag.add_vertex(2) == 1
        assert dag.add_vertex(1) == 2

    def test_add_vertices_bulk(self):
        dag = KDag(2)
        ids = dag.add_vertices(1, 5)
        assert ids == [0, 1, 2, 3, 4]
        assert all(dag.category(v) == 1 for v in ids)

    def test_add_vertices_zero_count(self):
        dag = KDag(1)
        assert dag.add_vertices(0, 0) == []

    def test_add_vertices_negative_count_rejected(self):
        dag = KDag(1)
        with pytest.raises(DagError):
            dag.add_vertices(0, -1)

    def test_invalid_num_categories(self):
        with pytest.raises(CategoryError):
            KDag(0)

    def test_invalid_category_rejected(self):
        dag = KDag(2)
        with pytest.raises(CategoryError):
            dag.add_vertex(2)
        with pytest.raises(CategoryError):
            dag.add_vertex(-1)

    def test_edge_requires_existing_vertices(self):
        dag = KDag(1)
        dag.add_vertex(0)
        with pytest.raises(DagError):
            dag.add_edge(0, 5)
        with pytest.raises(DagError):
            dag.add_edge(-1, 0)

    def test_backward_edge_rejected(self):
        dag = KDag(1)
        u, v = dag.add_vertex(0), dag.add_vertex(0)
        with pytest.raises(DagError):
            dag.add_edge(v, u)

    def test_self_loop_rejected(self):
        dag = KDag(1)
        v = dag.add_vertex(0)
        with pytest.raises(DagError):
            dag.add_edge(v, v)

    def test_add_edges_bulk(self):
        dag = KDag(1)
        dag.add_vertices(0, 3)
        dag.add_edges([(0, 1), (1, 2)])
        assert dag.num_edges == 2


class TestAccessors:
    def _diamond(self):
        dag = KDag(2)
        a = dag.add_vertex(0)
        b = dag.add_vertex(1)
        c = dag.add_vertex(1)
        d = dag.add_vertex(0)
        dag.add_edges([(a, b), (a, c), (b, d), (c, d)])
        return dag, (a, b, c, d)

    def test_successors_predecessors(self):
        dag, (a, b, c, d) = self._diamond()
        assert set(dag.successors(a)) == {b, c}
        assert set(dag.predecessors(d)) == {b, c}
        assert dag.out_degree(a) == 2
        assert dag.in_degree(d) == 2

    def test_sources_sinks(self):
        dag, (a, b, c, d) = self._diamond()
        assert dag.sources() == [a]
        assert dag.sinks() == [d]

    def test_edges_iterator(self):
        dag, (a, b, c, d) = self._diamond()
        assert sorted(dag.edges()) == [(a, b), (a, c), (b, d), (c, d)]

    def test_categories_array(self):
        dag, _ = self._diamond()
        assert dag.categories().tolist() == [0, 1, 1, 0]

    def test_in_degrees(self):
        dag, _ = self._diamond()
        assert dag.in_degrees().tolist() == [0, 1, 1, 2]

    def test_repr_mentions_counts(self):
        dag, _ = self._diamond()
        assert "vertices=4" in repr(dag)


class TestWorkSpan:
    def test_work_per_category(self):
        dag = KDag(3)
        dag.add_vertices(0, 4)
        dag.add_vertices(2, 2)
        assert dag.work(0) == 4
        assert dag.work(1) == 0
        assert dag.work(2) == 2
        assert dag.work_vector().tolist() == [4, 0, 2]
        assert dag.total_work() == 6

    def test_work_invalid_category(self):
        dag = KDag(1)
        with pytest.raises(CategoryError):
            dag.work(1)

    def test_span_of_chain(self):
        dag = KDag(1)
        ids = dag.add_vertices(0, 5)
        dag.add_edges(zip(ids, ids[1:]))
        assert dag.span() == 5

    def test_span_of_independent_tasks(self):
        dag = KDag(1)
        dag.add_vertices(0, 7)
        assert dag.span() == 1

    def test_depth_from_source(self):
        dag = KDag(1)
        ids = dag.add_vertices(0, 3)
        dag.add_edge(ids[0], ids[2])
        # ids[1] is independent
        assert dag.depth_from_source().tolist() == [1, 1, 2]

    def test_depth_to_sink(self):
        dag = KDag(1)
        ids = dag.add_vertices(0, 3)
        dag.add_edge(ids[0], ids[2])
        assert dag.depth_to_sink().tolist() == [2, 1, 1]

    def test_critical_path_is_a_longest_chain(self):
        dag = KDag(2)
        ids = dag.add_vertices(0, 4)
        dag.add_edges([(ids[0], ids[1]), (ids[1], ids[3]), (ids[0], ids[2])])
        path = dag.critical_path()
        assert path == [ids[0], ids[1], ids[3]]
        assert len(path) == dag.span()

    def test_critical_path_empty_dag(self):
        assert KDag(1).critical_path() == []

    def test_critical_path_follows_edges(self):
        dag = KDag(1)
        ids = dag.add_vertices(0, 6)
        dag.add_edges([(0, 2), (2, 4), (1, 3), (3, 5)])
        path = dag.critical_path()
        for u, v in zip(path, path[1:]):
            assert v in dag.successors(u)


class TestValidate:
    def test_valid_dag_passes(self):
        dag = KDag(2)
        a, b = dag.add_vertex(0), dag.add_vertex(1)
        dag.add_edge(a, b)
        dag.validate()  # should not raise

    def test_corrupted_category_detected(self):
        dag = KDag(2)
        dag.add_vertex(0)
        dag._category[0] = 5  # simulate corruption
        with pytest.raises(DagError):
            dag.validate()

    def test_corrupted_reverse_link_detected(self):
        dag = KDag(1)
        a, b = dag.add_vertex(0), dag.add_vertex(0)
        dag.add_edge(a, b)
        dag._pred[b].clear()
        with pytest.raises(DagError):
            dag.validate()
