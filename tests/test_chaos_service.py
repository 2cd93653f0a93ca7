"""Chaos suite: the service under seeded wire faults, SIGKILL, and
watchdog self-healing.

Two layers of acceptance:

* **In-process conformance** — a ThreadedServer behind a chaos transport
  (drops, delays, corruptions, disconnects on both sides of the wire),
  clients retrying under a budget with idempotency tokens, duplicate
  submissions on purpose — and the drained result must still be
  *bit-identical* (digest and response times) to a clean batch
  ``simulate()`` of the effective jobset, on both engines.
* **Supervised E2E** — ``krad serve --supervised`` with chaos flags,
  sustained multi-tenant load, SIGKILL of the serving child mid-run,
  watchdog auto-restart through journal recovery; every acknowledged
  submission appears exactly once and the final digest matches batch.

Every chaos test prints its fault schedule (pytest shows it on failure),
so any failing run is reproducible from the log alone.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro import JobSet, KResourceMachine, scheduler_by_name
from repro.errors import DeadlineExceeded, ServiceError
from repro.io.serialize import job_snapshot_from_dict
from repro.jobs import workloads
from repro.obs import Observability, parse_prometheus_text
from repro.service import (
    ChaosConfig,
    ChaosSchedule,
    RetryBudget,
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    ThreadedServer,
    fetch_healthz,
    fetch_metrics_text,
)
from repro.sim.engine import engine_class
from repro.sim.journal import read_journal

CAPS = (6, 3, 2)


def _jobs(seed, n, k=3):
    rng = np.random.default_rng(seed)
    return list(
        workloads.random_phase_jobset(
            rng, k, n, max_phases=3, max_work=16
        ).jobs
    )


def _batch_digest(engine, journal, seed):
    """Clean batch run of the journal's effective jobset; returns
    (digest, result)."""
    records, _, _ = read_journal(journal)
    batch_jobs = [
        job_snapshot_from_dict(rec.data["job"])
        for rec in records
        if rec.type == "submit"
    ]
    sim = engine_class(engine)(
        KResourceMachine(CAPS),
        scheduler_by_name("k-rad"),
        JobSet(batch_jobs, num_categories=len(CAPS)),
        seed=seed,
    )
    result = sim.run()
    return int(sim.digest()), result, len(batch_jobs)


def _drain_with_retries(address, tries=20):
    """Drain through a lossy wire: drain is idempotent, so just retry
    until a summary makes it back."""
    last = None
    for _ in range(tries):
        try:
            with ServiceClient(address, timeout=10.0) as cli:
                return cli.drain()
        except ServiceError as exc:
            last = exc
            time.sleep(0.05)
    raise AssertionError(f"drain never answered: {last}")


# ----------------------------------------------------------------------
# in-process conformance under chaos
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_chaos_conformance_matches_batch(engine, tmp_path):
    """Drops, delays, corruptions and disconnects on both sides of the
    wire, plus deliberate duplicate submissions — and the drained
    service is still digest-identical to a clean batch run."""
    journal = str(tmp_path / "svc.journal")
    cfg = ServiceConfig(
        capacities=CAPS,
        seed=11,
        engine=engine,
        journal_path=journal,
        fsync=False,
        tenant_quota=64,
        max_in_flight=256,
    )
    svc = SchedulingService(cfg, obs=Observability())
    server_chaos = ChaosSchedule(
        ChaosConfig(
            seed=101,
            drop_rate=0.15,
            delay_rate=0.15,
            max_delay_s=0.01,
            corrupt_rate=0.08,
            disconnect_rate=0.08,
        )
    )
    client_chaos = ChaosSchedule(
        ChaosConfig(
            seed=202,
            drop_rate=0.1,
            disconnect_rate=0.1,
        )
    )
    # pytest captures this; it is shown only when the test fails
    print("server chaos plan:\n" + server_chaos.describe(200))
    print("client chaos plan:\n" + client_chaos.describe(200))

    jobs = _jobs(20, 24)
    acks = []
    dupes = []
    with ThreadedServer(svc, metrics_port=0, chaos=server_chaos) as ts:
        cli = ServiceClient(
            ts.address,
            timeout=1.0,
            retry=RetryBudget(
                max_attempts=60,
                max_elapsed_s=60.0,
                base_backoff_s=0.005,
                max_backoff_s=0.1,
                seed=1,
            ),
            chaos=client_chaos,
        )
        tokens = [f"job-{i}" for i in range(len(jobs))]
        for i, job in enumerate(jobs):
            acks.append(
                cli.submit(f"tenant-{i % 3}", job, token=tokens[i])
            )
            if i % 5 == 0:
                # resubmit an already-acknowledged token: must come back
                # as the original ack, never a second admission
                dupes.append(
                    cli.submit(f"tenant-{i % 3}", job, token=tokens[i])
                )
        cli.close()

        # a mid-run disconnect from the client side: new connection, the
        # service state carries over
        with ServiceClient(ts.address, timeout=10.0) as cli2:
            stats = cli2.stats()
        assert stats["accepted"] == len(jobs)
        assert stats["duplicates"] >= len(dupes)

        summary = _drain_with_retries(ts.address)

    assert all(a["ok"] for a in acks)
    ids = [a["job_id"] for a in acks]
    assert len(set(ids)) == len(jobs), "a retry was double-admitted"
    for d in dupes:
        assert d["duplicate"] is True
        assert d["job_id"] in ids

    assert summary["completed"] == len(jobs)
    digest, batch, n_journaled = _batch_digest(engine, journal, seed=11)
    assert n_journaled == len(jobs), "journal admitted a duplicate"
    assert digest == summary["digest"]
    assert batch.makespan == summary["makespan"]
    # dict keys come back as strings from the JSON wire
    assert {int(j): int(t) for j, t in batch.completion_times.items()} == {
        int(k): int(v) for k, v in summary["completions"].items()
    }


def test_chaos_both_engines_same_jobset_same_digest(tmp_path):
    """The two engines drained under (different) chaos agree with each
    other batch-for-batch on the same submitted jobset."""
    digests = {}
    for engine in ("reference", "fast"):
        journal = str(tmp_path / f"{engine}.journal")
        cfg = ServiceConfig(
            capacities=CAPS,
            seed=7,
            engine=engine,
            journal_path=journal,
            fsync=False,
        )
        svc = SchedulingService(cfg, obs=Observability())
        chaos = ChaosSchedule(
            ChaosConfig(seed=9, drop_rate=0.2, disconnect_rate=0.1)
        )
        print(f"{engine} chaos plan:\n" + chaos.describe(100))
        # a glacial ticker: only drain advances the virtual clock, so
        # release times cannot depend on wall-clock request timing
        with ThreadedServer(svc, chaos=chaos, tick_interval=3600.0) as ts:
            with ServiceClient(
                ts.address,
                timeout=1.0,
                retry=RetryBudget(
                    max_attempts=60,
                    max_elapsed_s=60.0,
                    base_backoff_s=0.005,
                    seed=2,
                ),
            ) as cli:
                for i, job in enumerate(_jobs(30, 8)):
                    assert cli.submit("t", job)["ok"]
            summary = _drain_with_retries(ts.address)
        digests[engine] = (
            summary["makespan"],
            tuple(sorted(summary["completions"].items())),
        )
    assert digests["reference"] == digests["fast"]


# ----------------------------------------------------------------------
# network partitions, both directions of the wire
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "direction", ["client-to-server", "server-to-client"]
)
def test_partition_heals_mid_retry_budget(engine, direction):
    """A partition window on either side of the wire: requests (client
    side) or responses (server side) vanish for the first W messages,
    the window closes while the retry budget still has attempts left,
    and every submission lands exactly once."""
    window = (0, 6)
    chaos = ChaosSchedule(ChaosConfig(seed=3, partitions=(window,)))
    print(f"{direction} partition plan:\n" + chaos.describe(20))
    cfg = ServiceConfig(capacities=CAPS, seed=13, engine=engine)
    svc = SchedulingService(cfg, obs=Observability())
    server_chaos = chaos if direction == "server-to-client" else None
    client_chaos = chaos if direction == "client-to-server" else None
    jobs = _jobs(40, 4)
    with ThreadedServer(svc, chaos=server_chaos) as ts:
        with ServiceClient(
            ts.address,
            timeout=1.0,
            retry=RetryBudget(
                max_attempts=30,
                max_elapsed_s=30.0,
                base_backoff_s=0.005,
                max_backoff_s=0.05,
                seed=4,
            ),
            chaos=client_chaos,
        ) as cli:
            acks = [cli.submit("t", job) for job in jobs]
        summary = _drain_with_retries(ts.address)

    # healed mid-budget: every submit eventually acked, exactly once
    assert all(a["ok"] for a in acks)
    assert len({a["job_id"] for a in acks}) == len(jobs)
    assert summary["completed"] == len(jobs)
    # the partition genuinely ate the whole window — message indices
    # inside it were assigned and dropped, then traffic flowed
    assert chaos.injected["drop"] == window[1] - window[0]
    assert chaos.messages > window[1]
    if direction == "server-to-client":
        # server-side drops answer after processing: the retries were
        # deduplicated by their idempotency tokens, never re-admitted
        assert svc.stats()["duplicates"] >= 1
    assert svc.stats()["accepted"] == len(jobs)


# ----------------------------------------------------------------------
# service states surfaced end to end
# ----------------------------------------------------------------------
class TestDegradation:
    def _serve(self, svc, **kwargs):
        return ThreadedServer(svc, metrics_port=0, **kwargs)

    def test_healthz_503_names_degraded_state(self):
        cfg = ServiceConfig(capacities=(4, 2), max_in_flight=5)
        svc = SchedulingService(cfg, obs=Observability())
        # a glacial ticker keeps the admitted jobs in flight, however
        # slowly the requests arrive
        with self._serve(svc, tick_interval=3600.0) as ts:
            status, doc = fetch_healthz(ts.metrics_address)
            assert (status, doc["state"]) == (200, "healthy")
            with ServiceClient(ts.address) as cli:
                # 4 of 5 in flight reaches the degraded line (0.8)
                for job in _jobs(1, 4, k=2):
                    assert cli.submit("t", job)["ok"]
                status, doc = fetch_healthz(ts.metrics_address)
                assert status == 503
                assert doc["state"] == "degraded"
                assert doc["state_code"] == 1
                assert doc["ok"] is False
                # degraded is advisory: admission still takes the fifth
                assert cli.submit("t", _jobs(2, 1, k=2)[0])["ok"]
                # the gauge agrees with /healthz
                live = parse_prometheus_text(
                    fetch_metrics_text(ts.metrics_address)
                )
                assert live["krad_service_state"] == 1.0
                assert (
                    live['krad_service_state_info{state="degraded"}']
                    == 1.0
                )
                assert sum(
                    1 for k in live if k.startswith("krad_service_state_info")
                ) == 3

    def test_draining_healthz_and_state_change_metrics(self):
        cfg = ServiceConfig(capacities=(4, 2))
        svc = SchedulingService(cfg, obs=Observability())
        with self._serve(svc) as ts:
            with ServiceClient(ts.address) as cli:
                assert cli.submit("t", _jobs(5, 1, k=2)[0])["ok"]
                cli.drain()
                status, doc = fetch_healthz(ts.metrics_address)
                assert status == 503
                assert doc["state"] == "draining"
                live = parse_prometheus_text(
                    fetch_metrics_text(ts.metrics_address)
                )
                assert live["krad_service_state"] == 2.0
                assert live["krad_service_state_changes_total"] >= 1.0
                assert (
                    live['krad_state_transitions_total{state="draining"}']
                    >= 1.0
                )

    def test_fetch_metrics_text_names_http_status(self):
        # A non-200 from the metrics endpoint must surface the status
        # and body, not masquerade as a socket failure.
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = json.dumps({"state": "degraded"}).encode()
                self.send_response(503)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            with pytest.raises(ServiceError, match="HTTP 503") as exc:
                fetch_metrics_text(
                    ("127.0.0.1", httpd.server_address[1])
                )
            assert "degraded" in str(exc.value)
        finally:
            httpd.shutdown()

    def test_fetch_hung_endpoint_raises_typed_deadline(self):
        # An endpoint that accepts the connection but never answers is
        # worse than a dead one: both fetchers must give up after their
        # timeout with a typed DeadlineExceeded naming the op, never
        # block a monitoring loop indefinitely.
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                time.sleep(30)  # far past any test timeout

            def log_message(self, *a):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        address = ("127.0.0.1", httpd.server_address[1])
        try:
            for fetch, op in (
                (fetch_metrics_text, "fetch_metrics_text"),
                (fetch_healthz, "fetch_healthz"),
            ):
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded) as exc:
                    fetch(address, timeout=0.2)
                elapsed = time.monotonic() - start
                assert elapsed < 5.0, "timeout did not bound the read"
                assert exc.value.op == op
                assert exc.value.elapsed == pytest.approx(0.2)
        finally:
            httpd.shutdown()

    def test_submit_blocking_bounded_by_typed_deadline(self):
        # An always-full service: submit_blocking must give up with a
        # typed DeadlineExceeded carrying attempts, never spin forever.
        cfg = ServiceConfig(
            capacities=(4, 2), max_in_flight=1, tenant_quota=1
        )
        svc = SchedulingService(cfg, obs=Observability())
        # a glacial ticker: the admitted job never completes, so the
        # tenant quota stays exhausted for the whole test
        with ThreadedServer(svc, tick_interval=3600.0) as ts:
            with ServiceClient(
                ts.address,
                retry=RetryBudget(max_attempts=3, base_backoff_s=0.001),
            ) as cli:
                assert cli.submit("t", _jobs(6, 1, k=2)[0])["ok"]
                with pytest.raises(DeadlineExceeded) as exc:
                    cli.submit_blocking("t", _jobs(7, 1, k=2)[0])
                assert exc.value.attempts == 3
                assert exc.value.elapsed >= 0.0
                assert "backpressure" in (exc.value.last_error or "")


# ----------------------------------------------------------------------
# the supervised chaos acceptance scenario
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_supervised_chaos_sigkill_acceptance(engine, tmp_path):
    """Sustained multi-tenant load through a chaos transport while the
    serving process is SIGKILLed mid-run and the watchdog restarts it
    through journal recovery: every acknowledged submission appears
    exactly once, and the final digest matches a clean batch run."""
    journal = str(tmp_path / "svc.journal")
    port = 7000 + (os.getpid() + (0 if engine == "reference" else 1)) % 2000
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH", ""),
        ]
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--capacities", ",".join(str(c) for c in CAPS),
            "--seed", "11",
            "--engine", engine,
            "--journal", journal,
            "--port", str(port),
            "--tenant-quota", "64",
            "--max-in-flight", "256",
            "--supervised",
            "--hang-timeout", "2",
            "--max-restarts", "3",
            "--recovery-deadline", "20",
            "--chaos-seed", "31",
            "--chaos-drop", "0.1",
            "--chaos-delay", "0.1",
            "--chaos-delay-ms", "5",
            "--chaos-disconnect", "0.05",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines: list[str] = []

    def _reader():
        for line in proc.stdout:
            lines.append(line.rstrip())

    reader = threading.Thread(target=_reader, daemon=True)
    reader.start()

    def wait_for(substr, timeout=30, n=1):
        t0 = time.monotonic()
        while time.monotonic() - t0 < timeout:
            hits = [ln for ln in lines if substr in ln]
            if len(hits) >= n:
                return hits[n - 1]
            if proc.poll() is not None:
                raise AssertionError(
                    "supervisor exited early waiting for "
                    f"{substr!r}:\n" + "\n".join(lines)
                )
            time.sleep(0.05)
        raise AssertionError(
            f"timed out waiting for {substr!r}:\n" + "\n".join(lines)
        )

    address = ("127.0.0.1", port)
    try:
        pid_line = wait_for("watchdog: child pid")
        child_pid = int(pid_line.rsplit(maxsplit=1)[-1])
        wait_for("serving on")

        retry = RetryBudget(
            max_attempts=200,
            max_elapsed_s=90.0,
            base_backoff_s=0.01,
            max_backoff_s=0.25,
            seed=3,
        )
        cli = ServiceClient(address, timeout=3.0, retry=retry)
        jobs = _jobs(20, 30)
        acks = []
        for i, job in enumerate(jobs[:12]):
            acks.append(cli.submit(f"tenant-{i % 3}", job))
        # SIGKILL the serving child mid-run, keep streaming: the client
        # rides the outage on its retry budget while the watchdog
        # restarts the service through journal recovery
        os.kill(child_pid, signal.SIGKILL)
        for i, job in enumerate(jobs[12:]):
            acks.append(cli.submit(f"tenant-{(i + 12) % 3}", job))
        wait_for("watchdog: restart")
        wait_for("resumed from journal", timeout=45)

        assert all(a["ok"] for a in acks)
        ids = [a["job_id"] for a in acks]
        assert len(set(ids)) == len(jobs), "a retry was double-admitted"

        cli.close()

        summary = _drain_with_retries(address)
        rc = proc.wait(timeout=60)
        assert rc == 0, "\n".join(lines)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()

    # exactly-once: the journal admitted each acknowledged submission
    # once, and the drained digest matches a clean batch run
    digest, batch, n_journaled = _batch_digest(engine, journal, seed=11)
    assert n_journaled == len(jobs)
    assert summary["completed"] == len(jobs)
    assert digest == summary["digest"]
    assert batch.makespan == summary["makespan"]
    assert {int(j): int(t) for j, t in batch.completion_times.items()} == {
        int(k): int(v) for k, v in summary["completions"].items()
    }
