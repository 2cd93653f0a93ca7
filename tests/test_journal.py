"""Crash-safe journaling: CRC framing, torn-tail truncation, and
digest-verified recovery."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.errors import JournalError
from repro.io.trace_io import trace_to_dict
from repro.jobs import JobSet, workloads
from repro.machine import KResourceMachine
from repro.machine.churn import ChurnEvent, ChurnSchedule
from repro.obs import Observability
from repro.schedulers import KRad
from repro.sim import (
    ENGINE_NAMES,
    Journal,
    RetryPolicy,
    ScriptedViolation,
    Simulator,
    Supervisor,
    default_monitors,
    engine_class,
    read_journal,
    state_digest,
)
from repro.sim.faults import (
    JobKiller,
    RandomDegradation,
    TaskFailures,
    periodic_outage,
)

#: capacity faults are churn, so the journal alone rebuilds them
CAPACITY_FAULTS = {
    "outage": lambda caps: periodic_outage(
        caps, 0, period=5, duration=2, degraded=0
    ),
    "availability": lambda caps: RandomDegradation(
        caps, availability=0.6, seed=4
    ),
}


def _make_js(rng, n=6):
    return workloads.random_dag_jobset(
        rng, 2, n, size_hint=12, release_times=[0, 0, 2, 5, 5, 11][:n]
    )


def _assert_identical(a, b):
    assert a.makespan == b.makespan
    assert a.completion_times == b.completion_times
    assert a.busy.tolist() == b.busy.tolist()
    assert a.stall_steps == b.stall_steps
    if a.trace is not None:
        assert trace_to_dict(a.trace) == trace_to_dict(b.trace)


class TestFraming:
    def test_append_read_round_trip(self, tmp_path):
        path = str(tmp_path / "run.journal")
        j = Journal(path, fsync=False)
        j.append("meta", {"version": 1})
        j.append("step", {"t": 1, "digest": 42})
        j.close()
        records, valid_bytes, clean = read_journal(path)
        assert clean
        assert [r.type for r in records] == ["meta", "step"]
        assert [r.seq for r in records] == [1, 2]
        assert records[1].data == {"t": 1, "digest": 42}
        assert valid_bytes == os.path.getsize(path)

    def test_corrupt_record_stops_reading(self, tmp_path):
        path = str(tmp_path / "run.journal")
        j = Journal(path, fsync=False)
        j.append("meta", {"version": 1})
        j.append("step", {"t": 1})
        j.close()
        raw = open(path, "rb").read().splitlines(keepends=True)
        # flip a payload byte in record 2; the CRC no longer matches
        doc = json.loads(raw[1])
        doc["data"]["t"] = 999
        raw[1] = (json.dumps(doc, separators=(",", ":")) + "\n").encode()
        open(path, "wb").write(b"".join(raw))
        records, _, clean = read_journal(path)
        assert not clean
        assert [r.type for r in records] == ["meta"]

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = str(tmp_path / "run.journal")
        j = Journal(path, fsync=False)
        j.append("meta", {"version": 1})
        j.append("step", {"t": 1, "digest": 7})
        j.close()
        full = os.path.getsize(path)
        with open(path, "ab") as fh:  # half a record, no newline
            fh.write(b'{"seq":3,"type":"st')
        records, valid_bytes, clean = read_journal(path, truncate=True)
        assert not clean
        assert len(records) == 2
        assert valid_bytes == full
        assert os.path.getsize(path) == full  # tail physically cut
        # a second read of the truncated file is clean
        _, _, clean2 = read_journal(path)
        assert clean2

    def test_sequence_gap_rejected(self, tmp_path):
        path = str(tmp_path / "run.journal")
        j = Journal(path, fsync=False)
        j.append("meta", {"version": 1})
        j.close()
        j2 = Journal(path, fsync=False, start_seq=5)  # wrong resume seq
        j2.append("step", {"t": 1})
        j2.close()
        records, _, clean = read_journal(path)
        assert not clean
        assert len(records) == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            read_journal(str(tmp_path / "nope.journal"))

    def test_checkpoint_every_validated(self, tmp_path):
        with pytest.raises(JournalError):
            Journal(str(tmp_path / "j"), checkpoint_every=0)

    def test_state_digest_order_independent(self):
        assert state_digest({"a": 1, "b": 2}) == state_digest(
            {"b": 2, "a": 1}
        )
        assert state_digest({"a": 1}) != state_digest({"a": 2})


class TestTornTailVsMidCorruption:
    """A torn *trailing* record is tolerated; corruption anywhere else
    (intact records follow the bad frame) fails loudly."""

    def _write(self, path, n=4):
        j = Journal(path, fsync=False)
        j.append("meta", {"version": 1})
        for t in range(1, n):
            j.append("step", {"t": t, "digest": t * 7})
        j.close()

    def test_truncation_sweep_over_final_record(self, tmp_path):
        # Cut the file after every possible byte length of the final
        # record: every prefix must read as a tolerated torn tail with
        # exactly the first n-1 records intact, never an exception.
        base = str(tmp_path / "base.journal")
        self._write(base, n=4)
        raw = open(base, "rb").read()
        lines = raw.splitlines(keepends=True)
        head = b"".join(lines[:-1])
        last = lines[-1]
        for cut in range(len(last)):  # 0..len-1 bytes of the last record
            path = str(tmp_path / f"cut{cut}.journal")
            open(path, "wb").write(head + last[:cut])
            records, valid_bytes, clean = read_journal(path)
            assert len(records) == 3, f"cut at {cut} bytes"
            assert valid_bytes == len(head)
            # only the full record reads clean; every partial is torn
            assert not clean or cut == 0

    def test_truncated_tail_recovery_proceeds(self, rng, machine2, tmp_path):
        # End-to-end: a journaled run whose last record is half-written
        # still recovers from the last good record and finishes.
        path = str(tmp_path / "run.journal")
        js = _make_js(rng)
        ref = Simulator(machine2, KRad(), js.fresh_copy()).run()
        sim = Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            journal=Journal(path, checkpoint_every=3, fsync=False),
        )
        assert sim.run_until(6) is None
        sim._journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"seq":999,"type":"ste')  # torn mid-write
        recovered = Simulator.recover(path, fsync=False)
        _assert_identical(recovered.run(), ref)

    def test_mid_journal_corruption_fails_loudly(self, tmp_path):
        # Flip a byte in record 2 of 4: records 3 and 4 are intact after
        # the bad frame, so this is NOT a torn tail and must raise.
        path = str(tmp_path / "mid.journal")
        self._write(path, n=4)
        lines = open(path, "rb").read().splitlines(keepends=True)
        body = bytearray(lines[1])
        body[len(body) // 2] ^= 0xFF
        lines[1] = bytes(body)
        open(path, "wb").write(b"".join(lines))
        with pytest.raises(JournalError, match="mid-journal corruption"):
            read_journal(path)

    def test_mid_journal_missing_record_fails_loudly(self, tmp_path):
        # Delete a whole record from the middle: the sequence gap is
        # followed by intact records, so it must raise, not truncate.
        path = str(tmp_path / "gap.journal")
        self._write(path, n=4)
        lines = open(path, "rb").read().splitlines(keepends=True)
        del lines[1]
        open(path, "wb").write(b"".join(lines))
        with pytest.raises(JournalError, match="mid-journal corruption"):
            read_journal(path)

    def test_trailing_corruption_still_tolerated(self, tmp_path):
        # Corrupting the *last* record (nothing intact after) stays the
        # tolerated torn-tail path — same behaviour as before this layer.
        path = str(tmp_path / "tail.journal")
        self._write(path, n=4)
        lines = open(path, "rb").read().splitlines(keepends=True)
        body = bytearray(lines[-1])
        body[len(body) // 2] ^= 0xFF
        lines[-1] = bytes(body)
        open(path, "wb").write(b"".join(lines))
        records, _, clean = read_journal(path)
        assert not clean
        assert len(records) == 3


class TestJournaledRuns:
    def test_journaled_run_matches_plain_run(self, rng, machine2, tmp_path):
        js = _make_js(rng)
        ref = Simulator(
            machine2, KRad(), js.fresh_copy(), record_trace=True
        ).run()
        path = str(tmp_path / "run.journal")
        r = Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            record_trace=True,
            journal=Journal(path, checkpoint_every=5, fsync=False),
        ).run()
        _assert_identical(ref, r)
        records, _, clean = read_journal(path)
        assert clean
        types = [rec.type for rec in records]
        assert types[0] == "meta"
        assert types[1] == "checkpoint"
        assert types[-1] == "end"
        assert types.count("step") == ref.makespan
        assert records[-1].data["makespan"] == ref.makespan

    def test_recover_resumes_to_identical_result(
        self, rng, machine2, tmp_path
    ):
        js = _make_js(rng)
        ref = Simulator(
            machine2, KRad(), js.fresh_copy(), record_trace=True
        ).run()
        path = str(tmp_path / "run.journal")
        sim = Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            record_trace=True,
            journal=Journal(path, checkpoint_every=4, fsync=False),
        )
        assert sim.run_until(7) is None
        sim._journal.close()  # abandon mid-run: simulated crash

        recovered = Simulator.recover(path, fsync=False)
        r = recovered.run()
        _assert_identical(ref, r)
        # the resumed run keeps appending to the same journal
        records, _, clean = read_journal(path)
        assert clean
        assert records[-1].type == "end"

    def test_fast_engine_recovers_lean_eligible_run(self, tmp_path):
        """A journaled K-RAD phase-job run steps lean, yet recovery must
        replay one unit step per journal record, and the resumed run
        must journal every step."""
        machine = KResourceMachine((6, 4))
        js = workloads.light_phase_jobset(
            np.random.default_rng(0), machine, 4
        )
        ref = Simulator(machine, KRad(), js.fresh_copy(), seed=0).run()
        path = str(tmp_path / "run.journal")
        fast = engine_class("fast")
        sim = fast(
            machine,
            KRad(),
            js.fresh_copy(),
            seed=0,
            journal=Journal(path, checkpoint_every=100, fsync=False),
        )
        assert sim.run_until(40) is None
        sim._journal.close()
        _assert_identical(ref, fast.recover(path, fsync=False).run())
        records, _, clean = read_journal(path)
        assert clean
        steps = [rec.data["t"] for rec in records if rec.type == "step"]
        assert steps == list(range(1, ref.makespan + 1))

    def test_recover_chain_survives_second_crash(
        self, rng, machine2, tmp_path
    ):
        js = _make_js(rng)
        ref = Simulator(machine2, KRad(), js.fresh_copy()).run()
        path = str(tmp_path / "run.journal")
        sim = Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            journal=Journal(path, checkpoint_every=3, fsync=False),
        )
        assert sim.run_until(4) is None
        sim._journal.close()
        sim2 = Simulator.recover(path, fsync=False)
        assert sim2.run_until(9) is None
        sim2._journal.close()
        r = Simulator.recover(path, fsync=False).run()
        assert r.makespan == ref.makespan
        assert r.completion_times == ref.completion_times

    def test_recover_with_torn_tail(self, rng, machine2, tmp_path):
        js = _make_js(rng)
        ref = Simulator(machine2, KRad(), js.fresh_copy()).run()
        path = str(tmp_path / "run.journal")
        sim = Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            journal=Journal(path, checkpoint_every=3, fsync=False),
        )
        assert sim.run_until(6) is None
        sim._journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"seq":99,"type":"step","crc":0,"data"')
        r = Simulator.recover(path, fsync=False).run()
        assert r.makespan == ref.makespan

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("fault", sorted(CAPACITY_FAULTS))
    def test_capacity_faults_recover_without_hooks(
        self, rng, machine2, tmp_path, engine, fault
    ):
        js = _make_js(rng)
        churn = CAPACITY_FAULTS[fault](machine2.capacities)
        cls = engine_class(engine)
        ref = cls(machine2, KRad(), js.fresh_copy(), churn=churn).run()
        assert ref.stall_steps > 0 or fault == "availability"
        path = str(tmp_path / "run.journal")
        sim = cls(
            machine2,
            KRad(),
            js.fresh_copy(),
            churn=churn,
            journal=Journal(path, checkpoint_every=4, fsync=False),
        )
        assert sim.run_until(7) is None
        sim._journal.close()
        _assert_identical(cls.recover(path, fsync=False).run(), ref)

    def test_recover_faulty_supervised_churned_run(
        self, rng, machine2, tmp_path
    ):
        """The full stack at once: churn + supervisor rebuilt from journal
        metadata, fault model passed back in by the caller."""
        js = _make_js(rng)
        churn = ChurnSchedule(
            (4, 2), [ChurnEvent(step=3, category=0, delta=-2, duration=4)]
        )
        sup = Supervisor(
            default_monitors() + [ScriptedViolation(step=4, job_id=3)],
            mode="resilient",
        )
        fm = TaskFailures(0.1, seed=7)

        def make_sim(journal=None):
            return Simulator(
                machine2,
                KRad(),
                js.fresh_copy(),
                churn=churn,
                supervisor=sup,
                fault_model=fm,
                journal=journal,
            )

        ref = make_sim().run()
        path = str(tmp_path / "run.journal")
        sim = make_sim(Journal(path, checkpoint_every=5, fsync=False))
        assert sim.run_until(8) is None
        sim._journal.close()
        r = Simulator.recover(path, fault_model=fm, fsync=False).run()
        assert r.makespan == ref.makespan
        assert r.quarantined_jobs == ref.quarantined_jobs
        assert [i.to_dict() for i in r.incidents] == [
            i.to_dict() for i in ref.incidents
        ]


#: a 3-category machine with contention, so K-RAD opens round-robin
#: cycles and the lean kernel's batch state carries marks
LEAN_CAPS = (6, 3, 2)


def _phase_jobs(seed, n, base_id=0):
    """``n`` phase jobs with ids from ``base_id``, released 3 steps
    apart."""
    rng = np.random.default_rng(seed)
    jobs = list(
        workloads.random_phase_jobset(
            rng, len(LEAN_CAPS), n, max_phases=3, max_work=30
        ).jobs
    )
    for i, job in enumerate(jobs):
        job.job_id = base_id + i
        job.release_time = 3 * i
    return jobs


def _lean_sim(engine, jobs, machine=None, **kwargs):
    machine = machine or KResourceMachine(LEAN_CAPS)
    return engine_class(engine)(
        machine,
        KRad(),
        JobSet(jobs, num_categories=machine.num_categories),
        seed=0,
        **kwargs,
    )


class TestJournaledLeanRuns:
    """A journaled K-RAD phase-job run keeps the fast engine's lean
    kernel, and its journal is the reference engine's, byte for byte."""

    @pytest.mark.parametrize("every", [1, 7, 25])
    def test_sliced_run_journal_is_byte_identical(self, tmp_path, every):
        journals = {}
        for engine in ENGINE_NAMES:
            path = str(tmp_path / f"{engine}.journal")
            sim = _lean_sim(
                engine,
                _phase_jobs(1, 6),
                journal=Journal(path, checkpoint_every=every, fsync=False),
            )
            late = _phase_jobs(2, 4, base_id=100)
            sim.advance_until(4)
            sim.inject_job(late[0], release_time=5, meta={"tenant": "a"})
            sim.advance_until(10)
            sim.inject_job(late[1], release_time=12)
            sim.inject_job(late[2], release_time=25)
            sim.cancel_pending(late[2].job_id)
            sim.advance_until(40)
            sim.inject_job(late[3], release_time=45)
            sim.run()
            if engine == "fast":
                assert sim._ft_lean is True
            with open(path, "rb") as fh:
                journals[engine] = fh.read()
        assert journals["fast"] == journals["reference"]

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_lean_journal_recovers_across_crashes(self, engine, tmp_path):
        """Crash a lean-written journal at a checkpoint record and twice
        between two of them; every recovery (on either engine) verifies
        the lean kernel's digests, a fast recovery continues lean, and
        the replay-to-lean handoff reports the reference's telemetry."""
        jobs = _phase_jobs(3, 10)
        ref = _lean_sim("reference", [j.fresh_copy() for j in jobs]).run()
        path = str(tmp_path / "run.journal")
        sim = _lean_sim(
            "fast",
            jobs,
            journal=Journal(path, checkpoint_every=7, fsync=False),
        )
        assert sim.advance_until(14) is False  # a checkpoint record
        assert sim._ft_lean is True
        sim._journal.close()
        for crash in (17, 30):  # between records 14/21 and 28/35
            sim = engine_class(engine).recover(
                path, fsync=False, obs=Observability()
            )
            assert sim.advance_until(crash) is False
            assert getattr(sim, "_ft_lean", False) is (engine == "fast")
            sim._journal.close()
        runs = {}
        for name in ENGINE_NAMES:
            copy = str(tmp_path / f"{name}.journal")
            shutil.copy(path, copy)
            obs = Observability()
            sim = engine_class(name).recover(copy, fsync=False, obs=obs)
            runs[name] = (sim.run(), obs.metrics)
        for result, _metrics in runs.values():
            _assert_identical(ref, result)
        fast, reference = runs["fast"][1], runs["reference"][1]
        assert fast.steps == reference.steps
        assert fast.realloc_units == reference.realloc_units
        assert fast.realloc.count == reference.realloc.count

    @pytest.mark.parametrize(
        "feature",
        ["trace", "fault_model", "supervisor", "on_step", "speeds", "dag"],
    )
    def test_reference_step_runs_where_lean_cannot(self, feature, tmp_path):
        kwargs = {
            "trace": {"record_trace": True},
            "fault_model": {"fault_model": TaskFailures(0.1, seed=7)},
            "supervisor": {"supervisor": Supervisor(default_monitors())},
            "on_step": {"on_step": lambda t, alive: None},
            "speeds": {
                "machine": KResourceMachine(LEAN_CAPS, speeds=(2, 1, 1))
            },
            "dag": {},
        }[feature]
        path = str(tmp_path / "run.journal")
        sim = _lean_sim(
            "fast",
            _phase_jobs(4, 4),
            journal=Journal(path, fsync=False),
            **kwargs,
        )
        if feature == "dag":
            dag = workloads.random_dag_jobset(
                np.random.default_rng(5), len(LEAN_CAPS), 1, size_hint=10
            ).jobs[0]
            dag.job_id = 100
            sim.inject_job(dag, release_time=2)
        sim.advance_until(3)
        assert sim._ft_lean is False
        sim.run()
        records, _, clean = read_journal(path)
        assert clean and records[-1].type == "end"


class TestRecoveryGuards:
    def _crashed_journal(self, rng, machine2, tmp_path, stop=5):
        js = _make_js(rng)
        path = str(tmp_path / "run.journal")
        sim = Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            journal=Journal(path, checkpoint_every=3, fsync=False),
        )
        assert sim.run_until(stop) is None
        sim._journal.close()
        return path

    def test_completed_journal_rejected(self, rng, machine2, tmp_path):
        js = _make_js(rng)
        path = str(tmp_path / "run.journal")
        Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            journal=Journal(path, fsync=False),
        ).run()
        with pytest.raises(JournalError, match="nothing to recover"):
            Simulator.recover(path)

    def test_headerless_file_rejected(self, tmp_path):
        path = str(tmp_path / "not-a.journal")
        open(path, "w").write("garbage\n")
        with pytest.raises(JournalError, match="meta"):
            Simulator.recover(path)

    def test_missing_fault_model_rejected(self, rng, machine2, tmp_path):
        js = _make_js(rng)
        path = str(tmp_path / "run.journal")
        sim = Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            fault_model=TaskFailures(0.1, seed=7),
            journal=Journal(path, checkpoint_every=3, fsync=False),
        )
        assert sim.run_until(5) is None
        sim._journal.close()
        with pytest.raises(JournalError, match="fault model"):
            Simulator.recover(path)

    def test_replay_divergence_detected(self, rng, machine2, tmp_path):
        """Tampering with a step digest (without breaking the CRC frame)
        must be caught by replay verification."""
        path = self._crashed_journal(rng, machine2, tmp_path)
        from repro.sim.journal import _frame_crc

        raw = open(path, "rb").read().splitlines(keepends=True)
        fixed = []
        for line in raw:
            doc = json.loads(line)
            if doc["type"] == "step" and doc["data"]["t"] == 5:
                doc["data"]["digest"] = (doc["data"]["digest"] + 1) % 2**32
                doc["crc"] = _frame_crc(
                    doc["seq"], doc["type"], doc["data"]
                )
                line = (
                    json.dumps(doc, separators=(",", ":")) + "\n"
                ).encode()
            fixed.append(line)
        open(path, "wb").write(b"".join(fixed))
        with pytest.raises(JournalError, match="diverged"):
            Simulator.recover(path, fsync=False)


def _rewrite(path, mutate):
    """Rewrite every record through ``mutate(doc)`` with a valid CRC."""
    from repro.sim.journal import _frame_crc

    lines = []
    for line in open(path, "rb").read().splitlines():
        doc = json.loads(line)
        mutate(doc)
        doc["crc"] = _frame_crc(doc["seq"], doc["type"], doc["data"])
        lines.append(json.dumps(doc, separators=(",", ":")) + "\n")
    open(path, "w").write("".join(lines))


class TestDeltaCheckpoints:
    """Checkpoint records after the first carry live state plus the
    history appended since the previous record; recovery folds them."""

    def _faulty_sim(self, cls, machine2, js, journal=None):
        return cls(
            machine2,
            KRad(),
            js.fresh_copy(),
            seed=0,
            fault_model=JobKiller(0.12, seed=5),
            retry_policy=RetryPolicy(max_attempts=2, base_delay=2),
            supervisor=Supervisor(
                default_monitors() + [ScriptedViolation(step=6, job_id=3)],
                mode="resilient",
            ),
            journal=journal,
        )

    def _crashed(self, rng, machine2, tmp_path, engine="reference", stop=9):
        js = _make_js(rng)
        path = str(tmp_path / "run.journal")
        sim = self._faulty_sim(
            engine_class(engine),
            machine2,
            js,
            Journal(path, checkpoint_every=2, fsync=False),
        )
        assert sim.run_until(stop) is None
        sim._journal.close()
        return js, path

    def test_first_checkpoint_full_later_ones_deltas(
        self, rng, machine2, tmp_path
    ):
        js, path = self._crashed(rng, machine2, tmp_path)
        records, _, _ = read_journal(path)
        ckpts = [r.data for r in records if r.type == "checkpoint"]
        assert len(ckpts) >= 3
        assert ckpts[0]["format"] == "checkpoint"
        assert all(c["format"] == "checkpoint-delta" for c in ckpts[1:])
        # a delta repeats no history: no completion map, no job that
        # already left the run
        for c in ckpts[1:]:
            assert "completion" not in c["engine"]
            gone = {j for j, _t in c["history"].get("completion", [])}
            assert not gone & {a["static"]["job_id"] for a in c["alive"]}

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_folded_deltas_equal_checkpoint(
        self, rng, machine2, tmp_path, engine
    ):
        """Folding every record onto the first reproduces the full
        ``checkpoint()`` of an uninterrupted run at the same step."""
        from repro.sim.engine import _fold_delta

        js, path = self._crashed(rng, machine2, tmp_path, engine)
        records, _, _ = read_journal(path)
        ckpts = [r for r in records if r.type == "checkpoint"]
        doc = ckpts[0].data
        for rec in ckpts[1:]:
            _fold_delta(doc, rec.data, f"seq {rec.seq}")
        whole = self._faulty_sim(engine_class(engine), machine2, js)
        assert whole.run_until(doc["engine"]["t"]) is None
        expected = whole.checkpoint()
        assert expected["engine"]["attempts"]  # kills happened
        assert expected["engine"]["incidents"]  # the scripted violation
        assert doc == expected

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("stop", [3, 6, 9, 14])
    def test_recover_through_deltas_identical(
        self, rng, machine2, tmp_path, engine, stop
    ):
        js, path = self._crashed(rng, machine2, tmp_path, engine, stop)
        cls = engine_class(engine)
        ref = self._faulty_sim(cls, machine2, js).run()
        r = cls.recover(
            path,
            fault_model=JobKiller(0.12, seed=5),
            retry_policy=RetryPolicy(max_attempts=2, base_delay=2),
            fsync=False,
        ).run()
        _assert_identical(r, ref)
        assert r.retries == ref.retries
        assert r.failed_jobs == ref.failed_jobs
        assert r.quarantined_jobs == ref.quarantined_jobs
        assert r.release_times == ref.release_times

    def test_traced_run_recovers_and_validates(self, rng, machine2, tmp_path):
        js = _make_js(rng)
        path = str(tmp_path / "run.journal")
        sim = Simulator(
            machine2,
            KRad(),
            js.fresh_copy(),
            record_trace=True,
            journal=Journal(path, checkpoint_every=3, fsync=False),
        )
        assert sim.run_until(10) is None
        sim._journal.close()
        records, _, _ = read_journal(path)
        last = [r.data for r in records if r.type == "checkpoint"][-1]
        assert last["format"] == "checkpoint-delta"
        assert last["trace"] is not None  # whole trace, as before
        ref = Simulator(
            machine2, KRad(), js.fresh_copy(), record_trace=True
        ).run()
        _assert_identical(Simulator.recover(path).run(validate=True), ref)


class TestMalformedDeltas:
    """A malformed checkpoint-delta record is a typed JournalError naming
    the record, never a KeyError."""

    def _journal(self, rng, machine2, tmp_path):
        path = str(tmp_path / "run.journal")
        sim = Simulator(
            machine2,
            KRad(),
            _make_js(rng).fresh_copy(),
            journal=Journal(path, checkpoint_every=2, fsync=False),
        )
        assert sim.run_until(7) is None
        sim._journal.close()
        return path

    def _corrupt_delta(self, path, corrupt):
        def mutate(doc):
            if doc["data"].get("format") == "checkpoint-delta":
                corrupt(doc["data"])

        _rewrite(path, mutate)

    def test_missing_section(self, rng, machine2, tmp_path):
        path = self._journal(rng, machine2, tmp_path)
        self._corrupt_delta(path, lambda d: d.pop("alive"))
        with pytest.raises(JournalError, match=r"seq \d+.*alive"):
            Simulator.recover(path)

    def test_unknown_event_kind(self, rng, machine2, tmp_path):
        path = self._journal(rng, machine2, tmp_path)
        self._corrupt_delta(
            path, lambda d: d["history"].update(evicted=[[1, 2]])
        )
        with pytest.raises(JournalError, match=r"seq \d+.*evicted"):
            Simulator.recover(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d["engine"].update(t="7"),
            lambda d: d["history"].update(completion=[["0", 3]]),
            lambda d: d["history"].update(failed=[1.5]),
        ],
        ids=["engine-counter", "history-pair", "history-id"],
    )
    def test_non_integer_field(self, rng, machine2, tmp_path, corrupt):
        path = self._journal(rng, machine2, tmp_path)
        self._corrupt_delta(path, corrupt)
        with pytest.raises(JournalError, match=r"seq \d+"):
            Simulator.recover(path)

    def test_delta_without_full_record(self, rng, machine2, tmp_path):
        path = self._journal(rng, machine2, tmp_path)
        records, _, _ = read_journal(path)
        delta = [
            r.data for r in records if r.type == "checkpoint"
        ][-1]

        def mutate(doc):
            if doc["data"].get("format") == "checkpoint":
                doc["data"] = delta

        _rewrite(path, mutate)
        with pytest.raises(JournalError, match="no full checkpoint"):
            Simulator.recover(path)


class TestDurability:
    def test_old_journal_version_rejected(self, rng, machine2, tmp_path):
        path = str(tmp_path / "run.journal")
        sim = Simulator(
            machine2,
            KRad(),
            _make_js(rng).fresh_copy(),
            journal=Journal(path, fsync=False),
        )
        assert sim.run_until(3) is None
        sim._journal.close()

        def mutate(doc):
            if doc["type"] == "meta":
                doc["data"]["version"] = 2

        _rewrite(path, mutate)
        with pytest.raises(JournalError, match="journal version 2"):
            Simulator.recover(path)

    def test_only_promise_records_fsynced(
        self, rng, machine2, tmp_path, monkeypatch
    ):
        """Step records ride on the next fsync; every other record type
        is fsync'd before ``append`` returns."""
        import types

        from repro.sim import journal as journal_mod

        synced = []
        fake_os = types.SimpleNamespace(
            **{**vars(os), "fsync": lambda fd: synced.append(fd)}
        )
        monkeypatch.setattr(journal_mod, "os", fake_os)
        path = str(tmp_path / "run.journal")
        j = Journal(path, checkpoint_every=3)
        sim = Simulator(
            machine2, KRad(), _make_js(rng).fresh_copy(), journal=j
        )
        assert sim.run_until(4) is None
        extra = _make_js(np.random.default_rng(1), n=1).jobs[0]
        for jid in (98, 99):
            job = extra.fresh_copy()
            job.job_id = jid
            sim.inject_job(job, release_time=sim.clock + 2)
        sim.cancel_pending(99)
        sim.run()
        written = [r.type for r in read_journal(path)[0]]
        assert {"step", "submit", "cancel", "end"} <= set(written)
        assert len(synced) == sum(t != "step" for t in written)

    def test_latency_samples_only_durable_appends(self, tmp_path):
        j = Journal(str(tmp_path / "run.journal"), fsync=False)
        j.append("meta", {"version": 3})
        sampled = j.last_append_s
        for t in range(1, 20):
            j.append("step", {"t": t, "digest": t})
        assert j.last_append_s == sampled
        j.append("submit", {"t": 19})
        assert j.last_append_s != sampled
        j.close()

    def test_frame_crc_matches_reader(self, tmp_path):
        """Appends encode each payload once; the frame stays exactly
        what the reader recomputes, whatever the key order."""
        from repro.sim.journal import _frame_crc

        path = str(tmp_path / "run.journal")
        j = Journal(path, fsync=False)
        data = {"b": [1, {"z": "é", "a": None}], "a": 2.5}
        j.append("checkpoint", data)
        j.close()
        doc = json.loads(open(path).read())
        assert doc["crc"] == _frame_crc(1, "checkpoint", data)
        assert doc["data"] == data
