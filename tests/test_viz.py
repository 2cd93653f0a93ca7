"""Unit tests for ASCII visualisation."""

from repro.dag import builders
from repro.jobs import JobSet
from repro.schedulers import KRad
from repro.sim import simulate
from repro.sim.trace import Trace
from repro.viz import render_gantt, render_utilization, sparkline


def traced_run(machine, dags):
    js = JobSet.from_dags(dags)
    return simulate(machine, KRad(), js, record_trace=True)


class TestGantt:
    def test_empty_trace(self):
        t = Trace(num_categories=1, capacities=(1,))
        assert "empty" in render_gantt(t)

    def test_rows_per_processor(self, machine2):
        r = traced_run(machine2, [builders.independent_tasks([4, 2])])
        out = render_gantt(r.trace, category_names=machine2.names)
        assert out.count("p0") == 2  # one per category
        assert "cpu" in out and "io" in out
        # all six tasks appear as job symbol '0' inside the grid cells
        cells = [
            line.split("|")[1]
            for line in out.splitlines()
            if line.lstrip().startswith("p")
        ]
        assert sum(c.count("0") for c in cells) == 6

    def test_truncation(self, machine2):
        r = traced_run(machine2, [builders.chain([0] * 20, 2)])
        out = render_gantt(r.trace, max_steps=5)
        assert "truncated" in out

    def test_multiple_jobs_distinct_symbols(self, machine2):
        r = traced_run(
            machine2,
            [builders.independent_tasks([2, 0]), builders.independent_tasks([2, 0])],
        )
        out = render_gantt(r.trace)
        assert "0" in out and "1" in out


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_zeroes(self):
        assert sparkline([0, 0]) == "  "

    def test_monotone_mapping(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "@"

    def test_top_override(self):
        assert sparkline([1.0], top=2.0) != sparkline([1.0], top=1.0)


class TestUtilization:
    def test_render(self, machine2):
        r = traced_run(machine2, [builders.independent_tasks([8, 4])])
        out = render_utilization(r.trace, category_names=machine2.names)
        assert "cpu" in out and "io" in out

    def test_bucketing(self, machine2):
        r = traced_run(machine2, [builders.chain([0] * 9, 2)])
        out = render_utilization(r.trace, bucket=3)
        body = out.splitlines()[1]
        # 9 steps bucketed by 3 -> 3 chars between the pipes
        assert len(body.split("|")[1]) == 3

    def test_empty_trace(self):
        t = Trace(num_categories=1, capacities=(1,))
        assert "empty" in render_utilization(t)
