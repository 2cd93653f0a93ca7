"""Unit tests for the analysis package (tables, stats, sweeps, competitive)."""

import pytest

from repro.analysis import (
    compare_schedulers,
    format_series,
    format_table,
    geometric_mean,
    grid,
    makespan_ratio,
    mean_response_ratio,
    run_sweep,
    summarize,
)
from repro.errors import ReproError
from repro.jobs import workloads
from repro.schedulers import Equi, KRad


class TestTables:
    def test_basic_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "0.125" in out
        assert "2.500" in out

    def test_title_and_precision(self):
        out = format_table(["x"], [[1.23456]], title="T", precision=1)
        assert out.startswith("T\n")
        assert "1.2" in out

    def test_booleans(self):
        out = format_table(["ok"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out

    def test_series(self):
        out = format_series([1, 2], [0.5, 1.0], title="S")
        assert out.startswith("S\n")
        assert out.count("#") > 0

    def test_series_length_checked(self):
        with pytest.raises(ValueError):
            format_series([1], [1.0, 2.0])


class TestStats:
    def test_summarize(self):
        s = summarize([1, 2, 3, 4])
        assert s.n == 4 and s.mean == 2.5 and s.minimum == 1 and s.maximum == 4
        assert s.median == 2.5

    def test_summarize_single(self):
        assert summarize([5.0]).std == 0.0

    def test_summarize_empty(self):
        with pytest.raises(ReproError):
            summarize([])

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(ReproError):
            geometric_mean([])
        with pytest.raises(ReproError):
            geometric_mean([0.0, 1.0])


class TestSweeps:
    def test_grid(self):
        points = grid(a=[1, 2], b=["x"])
        assert points == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_run_sweep_collects_rows(self):
        points = grid(a=[1, 2, 3])
        sweep = run_sweep(points, lambda p, rng: {"sq": p["a"] ** 2})
        assert sweep.column("sq") == [1, 4, 9]
        assert sweep.headers == ["a", "sq"]
        assert sweep.as_table_rows() == [[1, 1], [2, 4], [3, 9]]

    def test_repeats_add_column(self):
        sweep = run_sweep(grid(a=[1]), lambda p, rng: {"v": 0}, repeats=3)
        assert len(sweep.rows) == 3
        assert sweep.column("rep") == [0, 1, 2]

    def test_deterministic_rng(self):
        def measure(p, rng):
            return {"v": float(rng.random())}

        a = run_sweep(grid(a=[1, 2]), measure, seed=4)
        b = run_sweep(grid(a=[1, 2]), measure, seed=4)
        assert a.column("v") == b.column("v")
        c = run_sweep(grid(a=[1, 2]), measure, seed=5)
        assert a.column("v") != c.column("v")

    def test_filter(self):
        sweep = run_sweep(grid(a=[1, 2]), lambda p, rng: {"v": p["a"]})
        assert sweep.filter(a=2).column("v") == [2]

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], lambda p, rng: {})

    def test_inconsistent_metrics_rejected(self):
        calls = [0]

        def measure(p, rng):
            calls[0] += 1
            return {"a": 1} if calls[0] == 1 else {"b": 2}

        with pytest.raises(ValueError):
            run_sweep(grid(a=[1, 2]), measure)


class TestCompetitive:
    def test_makespan_ratio(self, machine2, rng):
        js = workloads.random_dag_jobset(rng, 2, 5)
        m = makespan_ratio(machine2, KRad(), js)
        assert m.ratio >= 1.0 - 1e-9
        assert m.within_bound
        assert m.theorem_limit is not None  # auto-filled for k-rad

    def test_mean_response_ratio(self, machine2, rng):
        js = workloads.random_phase_jobset(rng, 2, 6)
        m = mean_response_ratio(machine2, KRad(), js)
        assert m.ratio >= 1.0 - 1e-9
        assert m.within_bound

    def test_no_limit_for_baselines(self, machine2, rng):
        js = workloads.random_phase_jobset(rng, 2, 4)
        m = mean_response_ratio(machine2, Equi(), js)
        assert m.theorem_limit is None
        assert m.within_bound  # vacuously

    def test_compare_schedulers(self, machine2, rng):
        js = workloads.random_phase_jobset(rng, 2, 6)
        out = compare_schedulers(machine2, [KRad(), Equi()], js)
        assert set(out) == {"k-rad", "equi"}
        for metrics in out.values():
            assert metrics["makespan_ratio"] >= 1.0 - 1e-9
            assert "mean_rt_ratio" in metrics
