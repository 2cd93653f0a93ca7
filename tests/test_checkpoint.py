"""Checkpoint/resume determinism: the acceptance test of the subsystem.

A run interrupted at an arbitrary step, checkpointed, restored (optionally
through a JSON file) and run to completion must produce a result that is
*identical* to the uninterrupted run — same makespan, same completion
times, same busy/wasted vectors, same trace, same retry ledger.
"""

import numpy as np
import pytest

from repro.errors import SerializationError, SimulationError
from repro.io.serialize import dump_checkpoint, load_checkpoint
from repro.io.trace_io import trace_to_dict
from repro.jobs import workloads
from repro.jobs.policies import RandomOrder
from repro.machine import KResourceMachine
from repro.schedulers import GreedyFcfs, KRad, KRoundRobin, Setf
from repro.sim import ENGINE_NAMES, RetryPolicy, Simulator, engine_class
from repro.sim.faults import JobKiller, TaskFailures, periodic_outage


def _assert_identical(a, b):
    assert a.makespan == b.makespan
    assert a.completion_times == b.completion_times
    assert a.idle_steps == b.idle_steps
    assert a.busy.tolist() == b.busy.tolist()
    assert a.retries == b.retries
    assert a.failed_jobs == b.failed_jobs
    assert a.stall_steps == b.stall_steps
    assert a.longest_stall == b.longest_stall
    if a.wasted is None:
        assert b.wasted is None
    else:
        assert a.wasted.tolist() == b.wasted.tolist()
    if a.trace is None:
        assert b.trace is None
    else:
        assert trace_to_dict(a.trace) == trace_to_dict(b.trace)


def _make_jobset(rng, k=2, n=6):
    return workloads.random_dag_jobset(
        rng,
        k,
        n,
        size_hint=12,
        release_times=[0, 0, 2, 5, 5, 11][:n],
    )


def _run_pair(make_sim, stop_at, restore_kwargs):
    """Reference run vs interrupted-at-``stop_at``-then-resumed run."""
    ref = make_sim().run()
    sim = make_sim()
    partial = sim.run_until(stop_at)
    if partial is not None:
        # run finished before the interrupt point; nothing to resume
        _assert_identical(ref, partial)
        return ref, partial
    snap = sim.checkpoint()
    resumed = Simulator.restore(snap, **restore_kwargs).run()
    _assert_identical(ref, resumed)
    return ref, resumed


class TestHealthyResume:
    @pytest.mark.parametrize("stop_at", [1, 2, 3, 5, 8, 13, 1000])
    def test_krad_resume_identical(self, rng, stop_at):
        machine = KResourceMachine((4, 2))
        js = _make_jobset(rng)

        def make_sim():
            return Simulator(
                machine, KRad(), js.fresh_copy(), record_trace=True
            )

        _run_pair(
            make_sim, stop_at, {"scheduler": KRad()}
        )

    @pytest.mark.parametrize(
        "make_sched", [KRad, KRoundRobin, Setf, GreedyFcfs]
    )
    def test_all_schedulers_resume(self, rng, make_sched):
        machine = KResourceMachine((3, 2))
        js = _make_jobset(rng, n=5)

        def make_sim():
            return Simulator(
                machine, make_sched(), js.fresh_copy(), record_trace=True
            )

        _run_pair(make_sim, 4, {"scheduler": make_sched()})

    def test_resume_with_random_policy(self, rng):
        """RNG state must survive the round-trip bit-for-bit."""
        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(rng, 1, 4, size_hint=10)
        policy = RandomOrder()

        def make_sim():
            return Simulator(
                machine,
                KRad(),
                js.fresh_copy(),
                policy=policy,
                seed=77,
                record_trace=True,
            )

        _run_pair(
            make_sim, 3, {"scheduler": KRad(), "policy": policy}
        )

    def test_resume_during_idle_gap(self, rng):
        """Interrupt inside a fast-forwarded idle interval."""
        machine = KResourceMachine((4,))
        js = workloads.random_dag_jobset(
            rng, 1, 2, size_hint=4, release_times=[0, 50]
        )

        def make_sim():
            return Simulator(
                machine, KRad(), js.fresh_copy(), record_trace=True
            )

        ref, resumed = _run_pair(make_sim, 20, {"scheduler": KRad()})
        assert ref.idle_steps > 0


class TestFaultyResume:
    def test_resume_under_outage_and_task_failures(self, rng):
        machine = KResourceMachine((4, 2))
        js = _make_jobset(rng)
        cap = periodic_outage(
            (4, 2), category=0, period=7, duration=3, degraded=0
        )

        def make_sim():
            return Simulator(
                machine,
                KRad(),
                js.fresh_copy(),
                record_trace=True,
                churn=cap,
                fault_model=TaskFailures(0.15, seed=5),
            )

        for stop_at in (2, 6, 9, 17):
            _run_pair(
                make_sim,
                stop_at,
                {
                    "scheduler": KRad(),
                    "churn": cap,
                    "fault_model": TaskFailures(0.15, seed=5),
                },
            )

    def test_resume_with_kills_and_retries(self, rng):
        machine = KResourceMachine((4, 2))
        js = _make_jobset(rng)
        policy = RetryPolicy(max_attempts=3, base_delay=3)

        def make_sim():
            return Simulator(
                machine,
                KRad(),
                js.fresh_copy(),
                record_trace=True,
                fault_model=JobKiller(0.1, seed=9),
                retry_policy=policy,
            )

        ref = make_sim().run()
        # make sure the scenario actually exercises the retry machinery
        assert ref.total_retries > 0 or ref.failed_jobs
        for stop_at in (3, 7, 12):
            _run_pair(
                make_sim,
                stop_at,
                {
                    "scheduler": KRad(),
                    "fault_model": JobKiller(0.1, seed=9),
                    "retry_policy": policy,
                },
            )


class TestCheckpointFile:
    def test_json_round_trip(self, rng, tmp_path):
        machine = KResourceMachine((4, 2))
        js = _make_jobset(rng)
        ref = Simulator(
            machine, KRad(), js.fresh_copy(), record_trace=True
        ).run()

        sim = Simulator(
            machine, KRad(), js.fresh_copy(), record_trace=True
        )
        assert sim.run_until(5) is None
        path = str(tmp_path / "run.ckpt.json")
        dump_checkpoint(sim.checkpoint(), path)
        resumed = Simulator.restore(
            load_checkpoint(path), scheduler=KRad()
        ).run()
        _assert_identical(ref, resumed)

    def test_checkpoint_is_plain_json(self, rng):
        import json

        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run_until(2)
        snap = sim.checkpoint()
        json.dumps(snap)  # must not contain numpy scalars/arrays


class TestGuards:
    def test_wrong_scheduler_rejected(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run_until(1)
        snap = sim.checkpoint()
        with pytest.raises(SimulationError, match="scheduler"):
            Simulator.restore(snap, scheduler=Setf())

    def test_fault_model_presence_must_match(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(
            machine,
            KRad(),
            js.fresh_copy(),
            fault_model=TaskFailures(0.1, seed=0),
        )
        sim.run_until(1)
        snap = sim.checkpoint()
        with pytest.raises(SimulationError, match="fault_model"):
            Simulator.restore(snap, scheduler=KRad())

    def test_finished_run_cannot_checkpoint(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run()
        with pytest.raises(SimulationError, match="finished"):
            sim.checkpoint()

    def test_bad_version_rejected(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run_until(1)
        snap = sim.checkpoint()
        snap["version"] = 999
        with pytest.raises(SerializationError, match="version"):
            Simulator.restore(snap, scheduler=KRad())

    def test_bad_format_rejected(self, rng):
        with pytest.raises(SerializationError, match="checkpoint"):
            Simulator.restore({"format": "jobset"}, scheduler=KRad())

    def test_missing_section_rejected(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run_until(1)
        snap = sim.checkpoint()
        del snap["rng"]
        with pytest.raises(SerializationError, match="rng"):
            Simulator.restore(snap, scheduler=KRad())

    def test_missing_engine_key_rejected(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run_until(1)
        snap = sim.checkpoint()
        del snap["engine"]["stall_run"]
        with pytest.raises(SerializationError, match="stall_run"):
            Simulator.restore(snap, scheduler=KRad())

    @pytest.mark.parametrize(
        "corrupt,field",
        [
            (lambda snap: snap.update(scheduler=["k-rad"]), "scheduler"),
            (lambda snap: snap["engine"].update(t=None), "'t'"),
            (lambda snap: snap.update(jobs=5), "jobs"),
            (
                lambda snap: snap["scheduler"].update(state={"states": 1}),
                "scheduler state",
            ),
        ],
        ids=["scheduler-list", "null-counter", "jobs-int", "bad-state"],
    )
    def test_malformed_section_rejected(self, rng, corrupt, field):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run_until(1)
        snap = sim.checkpoint()
        corrupt(snap)
        with pytest.raises(SerializationError, match=field):
            Simulator.restore(snap, scheduler=KRad())

    def test_rerun_guard_still_fires(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run()
        with pytest.raises(SimulationError, match="fresh copy"):
            sim.run()

    def test_run_until_after_finish_returns_result(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        r = sim.run_until(10_000)
        assert r is not None
        assert sim.run_until(10_000) is r


class TestResumedCheckpoints:
    """A run resumed from a checkpoint takes the same later checkpoints
    as the uninterrupted run, not just the same digests."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_resumed_run_checkpoints_match(self, engine):
        cls = engine_class(engine)
        machine = KResourceMachine((4, 4))
        js = workloads.random_phase_jobset(
            np.random.default_rng(3), 2, 12, max_phases=3, max_work=16
        )
        whole = cls(machine, KRad(), js.fresh_copy())
        assert whole.run_until(5) is None
        resumed = cls.restore(whole.checkpoint(), KRad())
        for t in (6, 8, 10):
            assert whole.run_until(t) is None
            assert resumed.run_until(t) is None
            assert resumed.checkpoint() == whole.checkpoint()

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_resumed_faulty_run_checkpoints_match(self, rng, engine):
        """Kills, retries and permanent failures fill the history maps."""
        cls = engine_class(engine)
        machine = KResourceMachine((4, 2))
        js = _make_jobset(rng)
        policy = RetryPolicy(max_attempts=2, base_delay=2)

        def hooks():
            return {
                "fault_model": JobKiller(0.15, seed=9),
                "retry_policy": policy,
            }

        whole = cls(machine, KRad(), js.fresh_copy(), **hooks())
        assert whole.run_until(4) is None
        resumed = cls.restore(whole.checkpoint(), KRad(), **hooks())
        for t in (8, 10, 12):
            assert whole.run_until(t) is None
            assert resumed.run_until(t) is None
            snap = whole.checkpoint()
            assert resumed.checkpoint() == snap
        assert snap["engine"]["attempts"]  # kills happened

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_restored_traced_dag_run_validates(self, rng, engine):
        """Jobs that arrived before the checkpoint are in the trace, so a
        restored trace-recording run must still know their definitions."""
        cls = engine_class(engine)
        machine = KResourceMachine((4, 2))
        js = _make_jobset(rng)
        sim = cls(machine, KRad(), js.fresh_copy(), record_trace=True)
        assert sim.run_until(8) is None
        snap = sim.checkpoint()
        assert snap["engine"]["completion"] or snap["alive"]
        resumed = cls.restore(snap, KRad())
        _assert_identical(resumed.run(validate=True), sim.run())

    def test_checkpoint_lists_only_unarrived_jobs(self, rng):
        machine = KResourceMachine((4, 2))
        js = _make_jobset(rng)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        assert sim.run_until(6) is None
        snap = sim.checkpoint()
        unarrived = [d["static"]["job_id"] for d in snap["jobs"]]
        assert unarrived == [5]  # released at 11; the rest arrived
        assert snap["engine"]["arrived"] == 5
        assert snap["arrived"] == []  # no trace, no definitions kept


class TestCheckpointVersion:
    def test_version_3_checkpoint_rejected(self, rng):
        machine = KResourceMachine((2,))
        js = workloads.random_dag_jobset(rng, 1, 2, size_hint=6)
        sim = Simulator(machine, KRad(), js.fresh_copy())
        sim.run_until(1)
        snap = sim.checkpoint()
        snap["version"] = 3
        with pytest.raises(SerializationError, match="version 3"):
            Simulator.restore(snap, scheduler=KRad())
