"""serve-durable and serve-fleet: closed-loop load on ``krad serve``.

Each round starts one ``python -m repro serve`` child over TCP, waits for
its first ``ping`` (set-up), sends the round's job stream from one
blocking submitter on one connection (it sends its next submission only
after the previous ack), drains, reaps the child and checks the
outputs.  Rounds repeat until the run's time is spent; every round sends
the same stream, so per-round figures are comparable.  Each metric is a
median over rounds; the ack percentiles are each round's own p50 and p99
first.  The service clock advances on wall-clock ticks, which is why the
load is a closed loop: an open loop at a fixed rate does not repeat from
run to run.  A round that breaks off (lost ack, dropped connection, I/O
timeout) counts its unacknowledged submissions and its drain as failed
and ends the run.
"""

from __future__ import annotations

import json
import shutil
import socket
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (HERE, MachineSpeed, OwnedProcess, calibration_s,
                    high_percentile, median, nominal_scale)

HOST = "127.0.0.1"
CAPACITIES = (8, 8)
ENGINE = "fast"
TENANTS = 8
#: 1,000 acks a round, so each round's p99 has ten samples beyond it
ROUND_SUBMITS = 1000
#: random phase jobs of the service tests' size: short enough that the
#: engine keeps up with the closed loop, so a drain is not a batch run
JOB_SHAPE = {"max_phases": 3, "max_work": 16}
#: tenant quota and in-flight cap far above one round: nothing is refused
ADMISSION_LIMIT = 1_000_000
IO_TIMEOUT = 60.0
MIN_ROUNDS = 3
#: the submitter times a short calibration loop (a tenth of the full
#: one) before every PROBE_EVERY-th submission, PROBE_EVERY // 2 first,
#: so the speed that scales a round is sampled while the round runs
PROBE_EVERY = 100
PROBE_LOOP = 20_000
#: the power of the speed probes' time that a round's figure follows,
#: where it is not 1.  The server ticks its engine on a fixed 2 ms
#: wall-clock interval, so on a slower CPU more of the engine's work
#: falls inside the submit phase rather than the drain.  On the fleet,
#: whose ticks cost about as much as the interval, submits_per_s and
#: ack_p50_ms go as the probe time to the power 1.3-1.7 and ack_p99_ms
#: to about 0.6 (fitted over 25 rounds each of seeds 1 and 5); on
#: serve-durable, whose ticks outlast the interval, every figure is
#: closest to linear.  See perfbench/README.md, "Machine speed".
SPEED_EXPONENT = {
    "serve-durable": {},
    "serve-fleet": {"submits_per_s": 1.5, "ack_p50_ms": 1.5,
                    "ack_p99_ms": 0.6},
}

#: the flags that distinguish the two deployments
DEPLOYMENT = {
    "serve-durable": ["--journal", "{work}/serve.journal"],
    "serve-fleet": ["--shards", "4"],
}


def make_stream(seed: int):
    """The round's jobs and their pre-encoded submit lines."""
    import numpy as np

    from repro.io.serialize import job_to_dict
    from repro.jobs.workloads import random_phase_jobset

    rng = np.random.default_rng(seed)
    jobs = list(
        random_phase_jobset(
            rng, len(CAPACITIES), ROUND_SUBMITS, **JOB_SHAPE
        ).jobs
    )
    lines = [
        json.dumps(
            {
                "op": "submit",
                "tenant": f"tenant-{i % TENANTS}",
                "job": job_to_dict(job),
            },
            separators=(",", ":"),
        ).encode()
        + b"\n"
        for i, job in enumerate(jobs)
    ]
    return jobs, lines


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def serve_argv(workload: str, seed: int, port: int, work: Path,
               spans: Path | None) -> list[str]:
    flags = [
        "--capacities", ",".join(map(str, CAPACITIES)),
        "--engine", ENGINE,
        "--seed", str(seed),
        "--host", HOST,
        "--port", str(port),
        "--tenant-quota", str(ADMISSION_LIMIT),
        "--max-in-flight", str(ADMISSION_LIMIT),
        *(f.format(work=work) for f in DEPLOYMENT[workload]),
    ]
    if spans is not None:
        return [sys.executable, str(HERE / "traced_serve.py"), str(spans),
                *flags]
    return [sys.executable, "-m", "repro", "serve", *flags]


@dataclass
class Round:
    workload: str
    setup_s: float = 0.0
    submit_s: float = 0.0
    drained_s: float = 0.0
    #: per submission: (send time, ack time, raw ack line) or None
    acks: list = field(default_factory=list)
    drain: dict | None = None
    exit_code: int | None = None
    peak_rss_mb: float = 0.0
    journal_bytes: int = 0
    spans: dict | None = None
    #: CPU seconds of the short calibration loops timed during the round
    probes: list = field(default_factory=list)
    #: convert the round's seconds to nominal machine speed: ``scale``
    #: from the probes, ``setup_scale`` from the loops around the round
    scale: float = 1.0
    setup_scale: float = 1.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def _connect(server: OwnedProcess, port: int) -> socket.socket:
    while True:
        try:
            sock = socket.create_connection((HOST, port), timeout=IO_TIMEOUT)
        except OSError:
            if server.exited():
                raise RuntimeError(
                    f"krad serve exited during start-up: {server.log_tail()}"
                ) from None
            if time.perf_counter() - server.spawned_at > IO_TIMEOUT:
                raise
            time.sleep(0.002)
        else:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock


def _drive(server: OwnedProcess, port: int, lines: list[bytes],
           rnd: Round) -> None:
    """Ping, then the closed loop: each submission is sent only after
    the previous one is acknowledged; then drain.  Every read times out
    after :data:`IO_TIMEOUT`."""
    with _connect(server, port) as sock, sock.makefile("rb") as reader:
        sock.sendall(b'{"op":"ping"}\n')
        if not json.loads(reader.readline()).get("ok"):
            raise RuntimeError("first ping was not answered ok")
        rnd.setup_s = time.perf_counter() - server.spawned_at
        acks = rnd.acks = [None] * len(lines)
        start = time.perf_counter()
        paused = 0.0  # probe time, left out of the round's clock
        for i, line in enumerate(lines):
            if i % PROBE_EVERY == PROBE_EVERY // 2:
                t0 = time.perf_counter()
                rnd.probes.append(calibration_s(PROBE_LOOP))
                paused += time.perf_counter() - t0
            sent = time.perf_counter()
            sock.sendall(line)
            raw = reader.readline()
            if not raw:
                return  # connection lost: the rest count as failed
            acks[i] = (sent, time.perf_counter(), raw)
        rnd.submit_s = time.perf_counter() - start - paused
        sock.sendall(b'{"op":"drain"}\n')
        raw = reader.readline()
        rnd.drained_s = time.perf_counter() - start - paused
        rnd.drain = json.loads(raw) if raw else None


def run_round(workload: str, seed: int, lines: list[bytes], work: Path,
              traced: bool) -> Round:
    """One server lifetime: spawn, ping, load, drain, reap."""
    work.mkdir()
    spans = work / "spans.json" if traced else None
    port = _free_port()
    rnd = Round(workload)
    try:
        argv = serve_argv(workload, seed, port, work, spans)
        with OwnedProcess(argv, work / "serve.log") as server:
            try:
                _drive(server, port, lines, rnd)
                if rnd.drain is not None:
                    rnd.exit_code = server.wait(IO_TIMEOUT)
                    rnd.peak_rss_mb = server.rusage.ru_maxrss / 1024.0
            except (OSError, RuntimeError, ValueError) as exc:
                # connection refused or lost, I/O timeout, a garbled
                # reply: the round breaks off and counts as failed
                rnd.problems.append(f"{type(exc).__name__}: {exc}")
            if rnd.drain is None or rnd.exit_code is None:
                rnd.problems.append(f"server log: {server.log_tail()}")
        rnd.journal_bytes = sum(
            p.stat().st_size for p in work.glob("serve.journal*")
        )
        if spans is not None and rnd.drain is not None:
            if spans.exists():
                rnd.spans = json.loads(spans.read_text())
            else:
                rnd.fail(1, "the traced server wrote no spans")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rnd


def check_round(workload: str, seed: int, jobs, rnd: Round) -> None:
    """Output checks, outside every timed window; failures are counted."""
    acked = []
    for i, ack in enumerate(rnd.acks):
        try:
            doc = json.loads(ack[2])
        except ValueError:
            doc = {"garbled": ack[2][:80]}
        if doc.get("ok"):
            acked.append((jobs[i], doc))
        else:
            rnd.fail(1, f"submission {i} not acknowledged: {doc}")
    drain = rnd.drain
    if not (
        drain.get("ok")
        and drain.get("completed") == drain.get("accepted") == len(acked)
        and not drain.get("failed")
        and not drain.get("failed_shards")
        and rnd.exit_code == 0
    ):
        rnd.fail(1, f"bad drain: completed={drain.get('completed')} "
                    f"accepted={drain.get('accepted')} "
                    f"failed={drain.get('failed')} "
                    f"failed_shards={drain.get('failed_shards')} "
                    f"exit={rnd.exit_code}")
    if workload == "serve-durable":
        _check_batch_equivalence(seed, acked, drain, rnd)


def _check_batch_equivalence(seed, acked, drain, rnd: Round) -> None:
    """The service's documented equivalence: response times equal a batch
    ``simulate()`` of the same jobs at their acknowledged releases."""
    from repro import JobSet, KResourceMachine, scheduler_by_name, simulate

    batch = []
    for job, ack in sorted(acked, key=lambda pair: pair[1]["job_id"]):
        job = job.fresh_copy()
        job.job_id = int(ack["job_id"])
        job.release_time = int(ack["release"])
        batch.append(job)
    result = simulate(
        KResourceMachine(CAPACITIES),
        scheduler_by_name("k-rad"),
        JobSet(batch, num_categories=len(CAPACITIES)),
        seed=seed,
        engine=ENGINE,
    )
    expected = {
        jid: int(t) - int(result.release_times[jid])
        for jid, t in result.completion_times.items()
    }
    served = {int(j): int(r) for j, r in drain["response_times"].items()}
    wrong = [j for j in expected if served.get(j) != expected[j]]
    wrong += [j for j in served if j not in expected]
    if wrong:
        rnd.fail(len(wrong), f"{len(wrong)} response times differ from "
                             f"batch simulate(), e.g. job {wrong[0]}")


def run_rounds(workload: str, seed: int, seconds: float, work: Path,
               trace: bool, speed: MachineSpeed
               ) -> tuple[list[Round], list[Round]]:
    """Rounds for ``seconds``, each between two ``speed`` marks.  With
    ``trace``, untraced and traced rounds alternate, so drift of the
    machine's speed falls on both alike.  Returns (untraced rounds,
    traced rounds); a failed round is the last."""
    jobs, lines = make_stream(seed)
    modes = (False, True) if trace else (False,)
    rounds: list[Round] = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(rounds) < MIN_ROUNDS * len(modes)):
        traced = modes[len(rounds) % len(modes)]
        speed.mark()  # the previous round's checks are not part of a step
        rnd = run_round(workload, seed, lines,
                        work / f"round{len(rounds)}", traced)
        rnd.setup_scale = speed.mark()
        if rnd.probes:
            rnd.scale = nominal_scale(rnd.probes, PROBE_LOOP)
        rounds.append(rnd)
        rnd.attempted = len(lines) + 1  # the submissions and the drain
        if rnd.drain is None:
            lost = rnd.acks.count(None) if rnd.acks else len(lines)
            rnd.fail(lost + 1, f"round {len(rounds)} broke off: {lost} of "
                               f"{len(lines)} submissions unacknowledged "
                               "and no drain reply")
        else:
            check_round(workload, seed, jobs, rnd)
        if rnd.failed:
            break
    return rounds[::len(modes)], rounds[1::len(modes)]


def ack_ms(rnd: Round) -> list[float]:
    return [(ack[1] - ack[0]) * 1e3 for ack in rnd.acks]


def server_wait_ms(rounds: list[Round]) -> list[float]:
    """Client ack time minus the server's ``submit`` time, joined on the
    acknowledged job id: the wire, queue and event-loop share of an ack."""
    waits = []
    for rnd in rounds:
        server_s = rnd.spans["submit_s"]
        for ack in rnd.acks:
            job_id = str(json.loads(ack[2]).get("job_id"))
            if job_id in server_s:
                waits.append((ack[1] - ack[0] - server_s[job_id]) * 1e3)
    return waits


def end_to_end(rounds: list[Round], scaled: bool = True
               ) -> tuple[dict, str]:
    """The end-to-end metrics of the rounds that passed, each a median
    over rounds of the round's figure at nominal machine speed (with
    ``scaled``: the set-up by the loops timed around the round, the rest
    by the probes timed during it, to the power :data:`SPEED_EXPONENT`),
    and a one-line note on their samples.  A round's tail is its own p99, so one slow stretch of the
    machine moves one round's value, not the run's."""
    rounds = [r for r in rounds if not r.failed]
    if not rounds:
        return {}, "no round passed its checks"

    def scale(r: Round, metric: str) -> float:
        if not scaled:
            return 1.0
        if metric == "setup_s":
            return r.setup_scale
        return r.scale ** SPEED_EXPONENT[r.workload].get(metric, 1.0)

    metrics = {
        "submits_per_s": median(
            ROUND_SUBMITS / (r.submit_s * scale(r, "submits_per_s"))
            for r in rounds),
        "ack_p50_ms": median(median(ack_ms(r)) * scale(r, "ack_p50_ms")
                             for r in rounds),
        "ack_p99_ms": median(
            high_percentile(ack_ms(r))[0] * scale(r, "ack_p99_ms")
            for r in rounds),
        "jobs_per_s": median(
            r.drain["completed"] / (r.drained_s * scale(r, "jobs_per_s"))
            for r in rounds),
        "setup_s": median(r.setup_s * scale(r, "setup_s")
                          for r in rounds),
        "peak_rss_mb": median(r.peak_rss_mb for r in rounds),
    }
    rank = high_percentile(ack_ms(rounds[0]))[1]
    probes = [p for r in rounds for p in r.probes]
    note = (f"{len(rounds)} rounds of {ROUND_SUBMITS} submissions; ack "
            f"times are medians over rounds of each round's p50 and "
            f"p{rank:.3g}; {len(probes) // len(rounds)} speed probes a "
            f"round, median {median(probes) * 1e3:.2f} ms (nominal "
            f"{1e3 * nominal_scale([1.0], PROBE_LOOP):.0f} ms)")
    return metrics, note
