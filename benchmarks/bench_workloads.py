"""WORKLOADS bench — scenario-driven sustained load, built and replayed.

Not a paper artefact: repository QA for the workload/trace/replay layer
(the timing companion of the SCEN experiment,
:mod:`repro.experiments.exp_scenarios`).  Each cell materialises a named
scenario from the library
(:mod:`repro.workloads.scenarios`) and replays it through one engine via
the same record-by-record online injection ``krad replay`` uses, so the
timed path covers trace parsing amortised once plus inject/advance/run.
The flash-crowd cell is the adversarial arrival burst; heavy-tail is the
elephants-and-mice size mix; adversarial-mix layers fault injection on
top (so its cell also pins the fault-hook overhead under replay).

The ``_10x`` cells replay the fault-free scenarios (flash-crowd,
heavy-tail, bursty, diurnal) again at ten times that size: at 24 jobs the
live set barely changes, at 240 the fast engine's per-step membership and
allocation costs carry the replay.

Every cell asserts the replay completed and, once per trace, that the
reference and fast replays are bit-identical — a green benchmark run is
also a conformance run.  ``compare_bench.py`` gates CI on no cell
regressing more than 25% against the committed baseline
(``BENCH_workloads.baseline.json``); the engine-speedup gate does not
apply here (CI passes ``--min-speedup 0``).
"""

import pytest

from repro.sim import ENGINE_NAMES
from repro.workloads import build_trace, replay, replay_compare

SCENARIO_CELLS = ("flash-crowd", "heavy-tail", "adversarial-mix")
#: the fault-free scenarios, also replayed at SCALE times N_JOBS
SCALED_CELLS = ("flash-crowd", "heavy-tail", "bursty", "diurnal")
N_JOBS = 24
SCALE = 10
SEED = 0

_conformance_checked: set[tuple[str, int]] = set()


def _replay_cell(benchmark, scenario, engine, num_jobs):
    trace = build_trace(scenario, seed=SEED, num_jobs=num_jobs)
    if (scenario, num_jobs) not in _conformance_checked:
        # prove once per trace that the timed path is the identical
        # schedule on both engines; benchmark rounds then skip the proof
        replay_compare(trace)
        _conformance_checked.add((scenario, num_jobs))

    out = benchmark(lambda: replay(trace, engine=engine, record_trace=False))
    res = out.result
    assert res.makespan > 0
    completed = len(res.completion_times)
    assert completed + len(res.failed_jobs) == num_jobs, res
    print(
        f"\n{scenario}x{num_jobs}[{engine}]: makespan {res.makespan}, "
        f"{completed} completed, {len(res.failed_jobs)} failed"
    )


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("scenario", SCENARIO_CELLS)
def test_scenario_replay(benchmark, scenario, engine):
    _replay_cell(benchmark, scenario, engine, N_JOBS)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("scenario", SCALED_CELLS)
def test_scenario_replay_10x(benchmark, scenario, engine):
    _replay_cell(benchmark, scenario, engine, SCALE * N_JOBS)


def test_scenario_build(benchmark):
    """Trace materialisation alone (generators + serialisation), one
    pass over every registered scenario."""
    from repro.workloads import scenario_names

    def build_all():
        return [
            build_trace(n, seed=SEED, num_jobs=N_JOBS)
            for n in scenario_names()
        ]

    traces = benchmark(build_all)
    assert all(len(t) == N_JOBS for t in traces)
