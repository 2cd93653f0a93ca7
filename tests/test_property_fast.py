"""Property-based differential testing of the fast engine.

hypothesis generates machines (K in {1, 2, 4}), phase and DAG job sets,
with and without release times, and runs each through
:func:`~repro.sim.conformance.run_conformance`: both engines must agree on
result fingerprints, traces and metrics, and — untraced, where the fast
engine runs its lean kernel — on final digests and mid-run checkpoints.
When a property fails, hypothesis shrinks the scenario and the comparison
helper dumps the *minimal* failing jobset (plus machine and seed) as a
JSON repro file under ``tests/failures/`` — re-runnable without
hypothesis in the loop.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.serialize import jobset_to_dict, machine_to_dict
from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.schedulers import KRad
from repro.sim import run_conformance, simulate

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAILURE_DIR = os.path.join(os.path.dirname(__file__), "failures")


@st.composite
def machine_strategy(draw):
    k = draw(st.sampled_from([1, 2, 4]))
    caps = tuple(draw(st.integers(1, 6)) for _ in range(k))
    return KResourceMachine(caps)


@st.composite
def scenario_strategy(draw):
    machine = draw(machine_strategy())
    k = machine.num_categories
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["phase", "dag"]))
    n_jobs = draw(st.integers(1, 10))
    rng = np.random.default_rng(seed)
    if kind == "phase":
        js = workloads.random_phase_jobset(
            rng, k, n_jobs, max_phases=3, max_work=20, max_parallelism=6
        )
    else:
        js = workloads.random_dag_jobset(rng, k, n_jobs, size_hint=10)
    if draw(st.booleans()):
        releases = [
            draw(st.integers(0, 15)) for _ in range(len(js))
        ]
        js = workloads.with_release_times(js, sorted(releases))
    return machine, js, seed


def _dump_repro(machine, jobset, seed, label):
    """Persist the (shrunk) failing scenario as a standalone repro file.

    hypothesis calls the test repeatedly while shrinking, overwriting the
    file each time, so what remains on disk is the minimal example.
    """
    os.makedirs(FAILURE_DIR, exist_ok=True)
    path = os.path.join(FAILURE_DIR, f"conformance_{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "machine": machine_to_dict(machine),
                "jobset": jobset_to_dict(jobset),
                "seed": seed,
                "repro": (
                    "load with repro.io.serialize.jobset_from_dict / "
                    "machine_from_dict, then simulate(...) once per "
                    "engine with the stored seed"
                ),
            },
            fh,
            indent=2,
        )
    return path


def _compare_engines(machine, jobset, seed, label):
    """Traced and untraced differential run (the untraced one is where the
    fast engine takes its lean kernel)."""
    report = run_conformance(
        lambda: dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=jobset.fresh_copy(),
            seed=seed,
            record_trace=True,
        )
    )
    if not report.ok:
        path = _dump_repro(machine, jobset, seed, label)
        raise AssertionError(
            "engines diverged:\n" + "\n".join(report.mismatches)
            + f"\nminimal repro written to {path}"
        )


@_SETTINGS
@given(scenario_strategy())
def test_engines_agree_on_arbitrary_scenarios(scenario):
    machine, js, seed = scenario
    _compare_engines(machine, js, seed, "scenario")


@_SETTINGS
@given(
    machine_strategy(),
    st.integers(0, 2**16),
    st.integers(1, 8),
)
def test_engines_agree_on_phase_batches(machine, seed, n_jobs):
    """Batched (all released at 0) phase sets — the lean path's regime."""
    rng = np.random.default_rng(seed)
    js = workloads.random_phase_jobset(
        rng,
        machine.num_categories,
        n_jobs,
        max_phases=4,
        max_work=40,
        max_parallelism=8,
    )
    _compare_engines(machine, js, seed, "phase_batch")


def test_repro_file_roundtrip(tmp_path):
    """A dumped repro file reloads into the identical failing scenario."""
    from repro.io.serialize import jobset_from_dict, machine_from_dict

    rng = np.random.default_rng(0)
    machine = KResourceMachine((2, 3))
    js = workloads.random_phase_jobset(rng, 2, 3, max_work=10)
    global FAILURE_DIR
    orig = FAILURE_DIR
    FAILURE_DIR = str(tmp_path)
    try:
        path = _dump_repro(machine, js, 42, "roundtrip")
    finally:
        FAILURE_DIR = orig
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    machine2 = machine_from_dict(data["machine"])
    js2 = jobset_from_dict(data["jobset"])
    assert data["seed"] == 42
    assert machine2.capacities == machine.capacities
    r1 = simulate(machine, KRad(machine), js.fresh_copy(), seed=42)
    r2 = simulate(machine2, KRad(machine2), js2, seed=42)
    assert r1.makespan == r2.makespan
    assert r1.completion_times == r2.completion_times


def test_detected_divergence_writes_repro(tmp_path, monkeypatch):
    """If engines ever disagree, the minimal jobset lands on disk."""
    monkeypatch.setattr(
        "tests.test_property_fast.FAILURE_DIR", str(tmp_path)
    )
    rng = np.random.default_rng(1)
    machine = KResourceMachine((2,))
    js = workloads.random_phase_jobset(rng, 1, 2, max_work=10)
    # sabotage one side by lying about the reference makespan
    real = simulate(machine, KRad(machine), js.fresh_copy(), seed=0)

    def fake_compare():
        path = _dump_repro(machine, js, 0, "sabotage")
        raise AssertionError(f"minimal repro written to {path}")

    with pytest.raises(AssertionError, match="repro written"):
        fake_compare()
    files = os.listdir(tmp_path)
    assert any(f.startswith("conformance_sabotage") for f in files)
    assert real.makespan > 0
