"""End-to-end tests of the online scheduling service.

The acceptance scenario from the service's design contract: boot the
daemon, stream ≥50 jobs from ≥3 tenants at it *while it runs*, watch
the live metrics endpoint move, SIGKILL the process mid-run, recover
from the journal, and verify the drained response times are identical
to an equivalent batch ``simulate()`` of the same jobs with the same
effective release times — on both engines.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import JobSet, KResourceMachine, scheduler_by_name, simulate
from repro.cli import main
from repro.errors import SerializationError, ServiceError
from repro.io.serialize import job_snapshot_from_dict, job_to_dict
from repro.jobs import workloads
from repro.obs import Observability, parse_prometheus_text
from repro.service import (
    FairSubmissionQueue,
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    ThreadedServer,
    fetch_healthz,
    fetch_metrics_text,
)

CAPS = (6, 3, 2)


def _jobs(seed, n, k=3):
    rng = np.random.default_rng(seed)
    return list(
        workloads.random_phase_jobset(
            rng, k, n, max_phases=3, max_work=16
        ).jobs
    )


# ----------------------------------------------------------------------
# fair queue
# ----------------------------------------------------------------------
class TestFairQueue:
    def test_round_robin_across_tenants(self):
        q = FairSubmissionQueue()
        for i in range(3):
            q.push("a", f"a{i}")
        q.push("b", "b0")
        q.push("c", "c0")
        order = [q.pop() for _ in range(len(q))]
        # per-tenant FIFO preserved; no tenant served twice before a
        # backlogged other is served once
        assert [t for t, _ in order[:3]] == ["a", "b", "c"]
        assert [item for t, item in order if t == "a"] == ["a0", "a1", "a2"]
        assert not q and len(q) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FairSubmissionQueue().pop()

    def test_depths_and_drain(self):
        q = FairSubmissionQueue()
        q.push("x", 1)
        q.push("y", 2)
        q.push("x", 3)
        assert q.depths() == {"x": 2, "y": 1}
        assert set(q.tenants()) == {"x", "y"}
        assert len(list(q.drain())) == 3
        assert q.depths() == {}


# ----------------------------------------------------------------------
# in-process service core
# ----------------------------------------------------------------------
class TestServiceCore:
    def test_submit_status_cancel_drain(self, tmp_path):
        cfg = ServiceConfig(
            capacities=CAPS, seed=1, journal_path=str(tmp_path / "s.journal")
        )
        svc = SchedulingService(cfg, obs=Observability())
        jobs = _jobs(0, 4)
        acks = [svc.submit("t0", j) for j in jobs[:3]]
        assert all(a["ok"] for a in acks)
        assert [a["job_id"] for a in acks] == [0, 1, 2]
        svc.tick()
        late = svc.submit("t1", jobs[3], release_time=svc.clock + 5)
        assert late["release"] == svc.clock + 5
        assert svc.status(late["job_id"])["state"] == "pending"
        assert svc.cancel(late["job_id"])["ok"]
        assert svc.status(late["job_id"])["state"] == "cancelled"
        # cancelled twice / unknown ids are reported, not raised
        assert not svc.cancel(late["job_id"])["ok"]
        assert not svc.status(99)["ok"]
        summary = svc.drain()
        assert summary["completed"] == 3
        assert summary["cancelled"] == [late["job_id"]]
        for jid, rt in summary["response_times"].items():
            assert rt == summary["completions"][jid] - summary["releases"][jid]
        # drain is idempotent
        assert svc.drain()["makespan"] == summary["makespan"]

    def test_tenant_quota_and_backpressure_rejections(self):
        cfg = ServiceConfig(
            capacities=CAPS, seed=2, tenant_quota=2, max_in_flight=3
        )
        svc = SchedulingService(cfg, obs=Observability())
        jobs = _jobs(1, 5)
        assert svc.submit("a", jobs[0])["ok"]
        assert svc.submit("a", jobs[1])["ok"]
        rej = svc.submit("a", jobs[2])
        assert not rej["ok"] and rej["reason"] == "tenant-quota"
        assert rej["retry_after"] >= 1
        assert svc.submit("b", jobs[3])["ok"]
        rej2 = svc.submit("c", jobs[4])
        assert not rej2["ok"] and rej2["reason"] == "backpressure"
        stats = svc.stats()
        assert stats["accepted"] == 3 and stats["rejected"] == 2

    def test_load_shedding_certificate(self):
        cfg = ServiceConfig(capacities=(2, 2), seed=0, shed_horizon=10)
        svc = SchedulingService(cfg, obs=Observability())
        jobs = _jobs(2, 8, k=2)
        outcomes = [svc.submit("t", j) for j in jobs]
        shed = [o for o in outcomes if not o["ok"]]
        assert shed, "a 2x2 machine must shed some of 8 jobs at horizon 10"
        assert all(o["reason"] == "load-shed" for o in shed)
        assert all(o["retry_after"] >= 1 for o in shed)
        # the certificate honours Theorem 3: the admitted backlog drains
        # within the certified horizon measured from submission time
        assert svc.certificate_horizon() <= 10
        summary = svc.drain()
        assert summary["makespan"] <= 10

    def test_draining_rejects_with_reason(self):
        cfg = ServiceConfig(capacities=CAPS, seed=3)
        svc = SchedulingService(cfg, obs=Observability())
        svc.submit("t", _jobs(3, 1)[0])
        svc.drain()
        rej = svc.submit("t", _jobs(4, 1)[0])
        assert not rej["ok"] and rej["reason"] == "draining"
        assert rej["retry_after"] >= 1

    def test_recover_requires_journal(self):
        cfg = ServiceConfig(capacities=CAPS)
        with pytest.raises(ServiceError, match="journal_path"):
            SchedulingService.recover(cfg)

    def test_recover_parses_the_journal_once(self, tmp_path, monkeypatch):
        """The tenant, id, token and cancel maps come from the records
        the engine's recovery already read and verified."""
        import repro.service.core as core
        import repro.sim.journal as journal

        cfg = ServiceConfig(
            capacities=CAPS,
            seed=7,
            engine="fast",
            journal_path=str(tmp_path / "svc.journal"),
            fsync=False,
        )
        svc = SchedulingService(cfg, obs=Observability())
        for i, job in enumerate(_jobs(9, 8)):
            assert svc.submit(f"t{i % 3}", job, token=f"k{i}")["ok"]
            svc.tick()
        late = svc.submit("t0", _jobs(10, 1)[0], release_time=500)
        assert svc.cancel(late["job_id"])["ok"]
        svc.simulator._journal.close()

        calls = []
        read_journal = journal.read_journal

        def counting(*args, **kwargs):
            calls.append(args)
            return read_journal(*args, **kwargs)

        monkeypatch.setattr(journal, "read_journal", counting)
        monkeypatch.setattr(core, "read_journal", counting, raising=False)
        got = SchedulingService.recover(cfg, obs=Observability())
        assert len(calls) == 1
        assert got._tenant_of == svc._tenant_of
        assert got._release_of == svc._release_of
        assert got._tokens == svc._tokens
        assert got._cancelled == svc._cancelled == {late["job_id"]}
        assert got._next_id == svc._next_id

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("fault", ["outage", "availability"])
    def test_capacity_faults_recover_from_config_alone(
        self, tmp_path, engine, fault
    ):
        from repro.sim.faults import RandomDegradation, periodic_outage

        churn = (
            periodic_outage(CAPS, 0, period=6, duration=3, degraded=0)
            if fault == "outage"
            else RandomDegradation(CAPS, availability=0.6, seed=2)
        )

        def run(path, crash):
            cfg = ServiceConfig(
                capacities=CAPS,
                seed=7,
                engine=engine,
                journal_path=str(path),
                fsync=False,
            )
            svc = SchedulingService(cfg, obs=Observability(), churn=churn)
            for i, job in enumerate(_jobs(9, 8)):
                assert svc.submit(f"t{i % 2}", job)["ok"]
                svc.tick()
            if crash:
                svc.simulator._journal.close()
                svc = SchedulingService.recover(cfg, obs=Observability())
            return svc.drain()

        ref = run(tmp_path / "ref.journal", crash=False)
        got = run(tmp_path / "crash.journal", crash=True)
        assert got["digest"] == ref["digest"]
        assert got["completions"] == ref["completions"]

    def test_metrics_registry_has_service_gauges(self):
        cfg = ServiceConfig(capacities=CAPS, seed=4)
        svc = SchedulingService(cfg, obs=Observability())
        svc.submit("alice", _jobs(5, 1)[0])
        svc.tick()
        metrics = parse_prometheus_text(svc.metrics_text())
        assert metrics["krad_service_clock"] == svc.clock
        assert metrics['krad_submissions_total{tenant="alice"}'] == 1
        assert 'krad_service_jobs{state="running"}' in metrics


def _malformed(field):
    """A valid phase-job document with one field broken, and the name a
    typed error must carry."""
    doc = job_to_dict(_jobs(8, 1)[0])
    if field == "phases":
        del doc["phases"]
    elif field == "phases[0]":
        del doc["phases"][0]["parallelism"]
        return doc, "'parallelism'"
    elif field == "phases-as-string":
        doc["phases"] = "work=3"
        return doc, "'phases'"
    elif field == "phases[0].work":
        doc["phases"][0]["work"][0] = "three"
    elif field == "dag":
        doc["backend"] = "dag"
    elif field == "float-release":
        doc["release_time"] = 2.9
        return doc, "'release_time'"
    elif field == "float-work":
        doc["phases"][0]["work"][0] = 2.7
        return doc, "'phases[0].work'"
    elif field == "bool-parallelism":
        doc["phases"][0]["parallelism"][0] = True
        return doc, "'phases[0].parallelism'"
    elif field == "str-kdag-category":
        rng = np.random.default_rng(8)
        doc = job_to_dict(workloads.random_dag_jobset(rng, 3, 1).jobs[0])
        doc["dag"]["categories"][0] = str(doc["dag"]["categories"][0])
        return doc, "'categories'"
    return doc, f"'{field}'"


MALFORMED = (
    "phases", "phases[0]", "phases-as-string", "phases[0].work", "dag",
    "float-release", "float-work", "bool-parallelism", "str-kdag-category",
)

#: a job document whose fields once loaded truncated or converted, as
#: work [2 1], parallelism [3 1] and release 2
NON_INTEGER_JOB = {
    "format": "job",
    "version": 1,
    "backend": "phase",
    "job_id": 7,
    "release_time": 2.9,
    "phases": [{"work": [2.7, 1], "parallelism": ["3", True]}],
}


class TestMalformedJobDocuments:
    """A malformed job document is refused with a typed error naming
    the field, in process and over the wire, and admits nothing."""

    @pytest.mark.parametrize("field", MALFORMED)
    def test_submit_raises_serialization_error(self, field):
        svc = SchedulingService(
            ServiceConfig(capacities=CAPS), obs=Observability()
        )
        doc, name = _malformed(field)
        with pytest.raises(SerializationError) as exc:
            svc.submit("t", doc)
        assert name in str(exc.value)
        assert svc.stats()["accepted"] == 0

    def test_non_integer_fields_refused_in_order(self):
        """Each refusal names its field; repairing it reaches the next."""
        svc = SchedulingService(
            ServiceConfig(capacities=CAPS), obs=Observability()
        )
        doc = json.loads(json.dumps(NON_INTEGER_JOB))
        phase = doc["phases"][0]
        for name, repair in (
            ("'release_time'", lambda: doc.update(release_time=2)),
            ("'phases[0].work'", lambda: phase.update(work=[2, 1])),
            ("'phases[0].parallelism'", lambda: None),
        ):
            with pytest.raises(SerializationError) as exc:
                svc.submit("t", doc)
            assert name in str(exc.value)
            repair()
        assert svc.stats()["accepted"] == 0

    def test_wire_refuses_non_integer_fields(self):
        """The job document, a submit request's own ``release_time`` and
        a status or cancel request's ``job_id`` are refused naming the
        field, never truncated."""
        svc = SchedulingService(
            ServiceConfig(capacities=CAPS), obs=Observability()
        )
        good = job_to_dict(_jobs(8, 1)[0])
        with ThreadedServer(svc) as ts, ServiceClient(ts.address) as cli:
            for payload, name in (
                (
                    {"op": "submit", "tenant": "t", "job": NON_INTEGER_JOB},
                    "'release_time'",
                ),
                (
                    {"op": "submit", "tenant": "t", "job": good,
                     "release_time": 2.9},
                    "'release_time'",
                ),
                ({"op": "status", "job_id": 1.5}, "'job_id'"),
                ({"op": "cancel", "job_id": True}, "'job_id'"),
            ):
                resp = cli.request(payload)
                assert resp["ok"] is False, payload
                assert name in resp["error"], (payload, resp)
        assert svc.stats()["accepted"] == 0

    def test_wire_reply_names_the_field(self):
        svc = SchedulingService(
            ServiceConfig(capacities=CAPS), obs=Observability()
        )
        doc, name = _malformed("phases[0].work")
        with ThreadedServer(svc) as ts:
            with ServiceClient(ts.address) as cli:
                resp = cli.submit("t", doc)
                assert resp["ok"] is False
                assert name in resp["error"]
                assert cli.ping()["ok"]  # the dispatcher lives on
        assert svc.stats()["accepted"] == 0


# ----------------------------------------------------------------------
# socket server + client
# ----------------------------------------------------------------------
class TestServer:
    def test_tcp_end_to_end_with_live_metrics(self):
        cfg = ServiceConfig(capacities=CAPS, seed=5, engine="fast")
        svc = SchedulingService(cfg, obs=Observability())
        with ThreadedServer(svc, metrics_port=0) as ts:
            with ServiceClient(ts.address) as cli:
                assert cli.ping()["ok"]
                acks = [
                    cli.submit(f"t{i % 3}", job_to_dict(j))
                    for i, j in enumerate(_jobs(6, 6))
                ]
                assert all(a["ok"] for a in acks)
                live = parse_prometheus_text(
                    fetch_metrics_text(ts.metrics_address)
                )
                assert (
                    sum(
                        v
                        for k, v in live.items()
                        if k.startswith("krad_submissions_total")
                    )
                    == 6
                )
                done = cli.wait(acks[0]["job_id"], timeout=60)
                assert done["state"] == "completed"
                assert done["response_time"] >= 0
                summary = cli.drain()
                assert summary["ok"] and summary["completed"] == 6
                rej = cli.submit("late", job_to_dict(_jobs(7, 1)[0]))
                assert not rej["ok"] and rej["reason"] == "draining"

    def test_unix_socket_and_protocol_errors(self, tmp_path):
        cfg = ServiceConfig(capacities=CAPS, seed=6)
        svc = SchedulingService(cfg, obs=Observability())
        path = str(tmp_path / "svc.sock")
        with ThreadedServer(svc, unix_path=path):
            with ServiceClient(path) as cli:
                assert cli.ping()["ok"]
                assert not cli.request({"op": "warp"})["ok"]
                assert not cli.request({"op": "status"})["ok"]  # no job_id
                assert not cli.request({"op": "submit"})["ok"]  # no tenant
                bad = cli.request({"op": "submit", "tenant": "t", "job": 7})
                assert not bad["ok"]

    def test_http_healthz_and_404(self):
        import urllib.error
        import urllib.request

        cfg = ServiceConfig(capacities=CAPS, seed=7)
        svc = SchedulingService(cfg, obs=Observability())
        with ThreadedServer(svc, metrics_port=0) as ts:
            host, port = ts.metrics_address
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5
            ) as resp:
                pulse = json.loads(resp.read())
            assert pulse["ok"] and not pulse["draining"]
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=5
                )

    def test_raising_tick_stops_the_server(self, monkeypatch):
        """A tick that raises (here: a full disk) stops the engine for
        good.  Every later request, ``ping`` included, answers ``ok:
        false`` with the error, so no probe mistakes a server whose
        clock froze for a live one."""
        failed = _fail_second_tick(monkeypatch)
        svc = SchedulingService(
            ServiceConfig(capacities=CAPS, seed=5, engine="fast"),
            obs=Observability(),
        )
        with ThreadedServer(svc, metrics_port=0) as ts:
            assert failed.wait(timeout=30)
            with ServiceClient(ts.address, timeout=10.0) as cli:
                docs = [
                    cli.ping(),
                    cli.stats(),
                    cli.submit("t", job_to_dict(_jobs(8, 1)[0])),
                    cli.drain(),
                ]
            status, health = fetch_healthz(ts.metrics_address)
        assert status == 503
        for doc in docs + [health]:
            assert doc["ok"] is False
            assert doc["error"].startswith("engine tick failed: OSError")
            assert "No space left on device" in doc["error"]
        assert svc.total_in_flight() == 0  # the refused submit never landed

    def test_serve_until_drained_raises_after_a_failed_tick(
        self, monkeypatch
    ):
        _fail_second_tick(monkeypatch)
        server = ServiceServer(
            SchedulingService(ServiceConfig(capacities=CAPS, seed=5))
        )

        async def serve():
            await server.start()
            await server.serve_until_drained()

        with pytest.raises(ServiceError, match="engine tick failed"):
            asyncio.run(asyncio.wait_for(serve(), timeout=30))

    def test_krad_serve_exits_2_after_a_failed_tick(
        self, monkeypatch, capsys
    ):
        """Exit code 2 is a crash to ``krad serve --supervised``'s
        watchdog, which restarts the child from its journal."""
        _fail_second_tick(monkeypatch)
        rc = []
        serve = threading.Thread(
            target=lambda: rc.append(
                main(["serve", "--capacities", "4,4", "--port", "0"])
            ),
            daemon=True,
        )
        serve.start()
        serve.join(timeout=30)
        assert rc == [2]
        err = capsys.readouterr().err
        assert "krad serve: engine tick failed: OSError" in err


def _fail_second_tick(monkeypatch) -> threading.Event:
    """Make the second :meth:`SchedulingService.tick` raise ENOSPC.

    Returns an event set just before it raises: the tick runs on the
    server's loop, which answers no request until the tick loop has
    handled the error, so a request sent after the event sees it.
    """
    real = SchedulingService.tick
    calls = []
    failed = threading.Event()

    def tick(self):
        calls.append(self)
        if len(calls) == 2:
            failed.set()
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(self)

    monkeypatch.setattr(SchedulingService, "tick", tick)
    return failed


# ----------------------------------------------------------------------
# the acceptance scenario: kill -9 and recover, vs batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_service_kill_recover_matches_batch(engine, tmp_path):
    """SIGKILL a journaled ``krad serve`` mid-run with ≥50 jobs from
    ≥3 tenants in flight, recover, and require the final response
    times to be identical to a batch ``simulate()`` of the same jobs
    at their effective release times."""
    journal = str(tmp_path / "svc.journal")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--capacities", ",".join(str(c) for c in CAPS),
            "--seed", "11",
            "--engine", engine,
            "--journal", journal,
            "--tenant-quota", "64",
            "--max-in-flight", "256",
            "--metrics-port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        address = metrics = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            assert line, "krad serve exited before binding"
            if line.startswith("serving on "):
                host, _, port = line.split()[-1].rpartition(":")
                address = (host, int(port))
            elif line.startswith("metrics on "):
                url = line.split()[-1]
                hostport = url.split("//")[1].split("/")[0]
                mhost, _, mport = hostport.rpartition(":")
                metrics = (mhost, int(mport))
            if address and metrics:
                break
        assert address is not None and metrics is not None

        jobs = _jobs(20, 54)
        with ServiceClient(address) as cli:
            acks = []
            # first wave, then let the engine genuinely advance, then
            # keep streaming: arrivals are spread across the live run
            for i, job in enumerate(jobs[:20]):
                acks.append(cli.submit(f"tenant-{i % 3}", job))
            t0 = time.monotonic()
            while cli.stats()["clock"] == 0 and time.monotonic() - t0 < 20:
                time.sleep(0.01)
            for i, job in enumerate(jobs[20:]):
                acks.append(cli.submit(f"tenant-{(i + 20) % 3}", job))
            assert all(a["ok"] for a in acks)
            assert len({a["tenant"] for a in acks}) == 3
            live = parse_prometheus_text(fetch_metrics_text(metrics))
            assert (
                sum(
                    v
                    for k, v in live.items()
                    if k.startswith("krad_submissions_total")
                )
                == 54
            )
            assert live['krad_service_draining'] == 0
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()

    # recover the whole service from the journal and finish the backlog
    cfg = ServiceConfig(
        capacities=CAPS, seed=11, engine=engine, journal_path=journal
    )
    svc = SchedulingService.recover(cfg, obs=Observability())
    stats = svc.stats()
    assert stats["accepted"] == 54
    summary = svc.drain()
    assert summary["completed"] == 54
    assert sorted(summary["per_tenant"]) == [
        "tenant-0", "tenant-1", "tenant-2",
    ]

    # equivalent batch run: the exact submitted jobs at their effective
    # release times, rebuilt from the journal's own submit records
    from repro.sim.journal import read_journal

    records, _, _ = read_journal(journal)
    batch_jobs = [
        job_snapshot_from_dict(rec.data["job"])
        for rec in records
        if rec.type == "submit"
    ]
    assert len(batch_jobs) == 54
    batch = simulate(
        KResourceMachine(CAPS),
        scheduler_by_name("k-rad"),
        JobSet(batch_jobs, num_categories=len(CAPS)),
        seed=11,
        engine=engine,
    )
    assert batch.makespan == summary["makespan"]
    assert {
        int(j): int(t) for j, t in batch.completion_times.items()
    } == summary["completions"]
    batch_response = {
        int(j): int(t) - int(batch.release_times[j])
        for j, t in batch.completion_times.items()
    }
    assert batch_response == summary["response_times"]
