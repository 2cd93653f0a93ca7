"""Tests for regime classification and the DAG renderer."""

from repro.dag import KDag, builders
from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.schedulers import KRad
from repro.sim import RecordingScheduler, simulate
from repro.theory import regime_fractions
from repro.viz import render_dag


def record(machine, js):
    sched = RecordingScheduler(KRad())
    simulate(machine, sched, js)
    return sched.records


class TestRegimes:
    def test_light_workload_never_rr(self, rng):
        machine = KResourceMachine((16, 8))
        js = workloads.light_phase_jobset(rng, machine, 6)
        report = regime_fractions(record(machine, js), machine)
        assert not report.ever_rr()
        assert all(f == 0.0 for f in
                   (report.rr_fraction(0), report.rr_fraction(1)))
        assert report.num_categories == 2

    def test_heavy_workload_enters_rr(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.heavy_phase_jobset(rng, machine, load_factor=6.0)
        report = regime_fractions(record(machine, js), machine)
        assert report.ever_rr()
        assert report.rr_fraction(0) > 0.0

    def test_idle_category_counted(self, rng):
        machine = KResourceMachine((4, 4))
        from repro.jobs import JobSet

        js = JobSet.from_dags([builders.chain([0] * 5, 2)])
        report = regime_fractions(record(machine, js), machine)
        # category 1 is never active
        assert report.idle_steps[1] == 5
        assert report.deq_steps[0] == 5

    def test_empty_records(self):
        machine = KResourceMachine((2,))
        report = regime_fractions([], machine)
        assert report.rr_fraction(0) == 0.0
        assert not report.ever_rr()


class TestRenderDag:
    def test_empty(self):
        assert "empty" in render_dag(KDag(1))

    def test_figure1_levels(self):
        out = render_dag(
            builders.figure1_job(), category_names=("cpu", "vec", "io")
        )
        assert out.splitlines()[0].startswith("K-DAG: 8 vertices")
        assert "L1: v0:cpu" in out
        assert "L4:" in out  # span 4 -> four levels
        assert "edges:" in out

    def test_truncation(self):
        dag = builders.independent_tasks([30])
        out = render_dag(dag, max_vertices_per_level=5)
        assert "+25 more" in out

    def test_category_names_default(self):
        out = render_dag(builders.chain([0, 1], 2))
        assert "c0" in out and "c1" in out
