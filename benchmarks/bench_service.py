"""SERVICE bench — sustained-load submit-to-ack latency and throughput.

Not a paper artefact: repository QA for the long-running service layer.
Each cell pushes a sustained multi-tenant stream of submissions through
an in-process service (no TCP, so the numbers isolate admission +
journal-free scheduling cost from socket noise), interleaving ticks the
way a live deployment does, then drains to completion.  Cells run the
single-service topology and a 4-shard fleet on both engines, so the
committed baseline (``BENCH_service.baseline.json``) pins the cost of
the routing/supervision layer relative to the bare service.

Per-submission wall times are collected inside the measured callable;
after timing, each cell prints submissions/sec and the p50/p99
submit-to-ack latency across shards — the numbers the SIGKILL
acceptance test in ``tests/test_shard_service.py`` bounds under fault.

One more cell measures history independence of the durable path: a
journaled (fsync'd) fast-engine service takes 10,000 jobs with a tick
after every submission, so only a few jobs are ever live while the
finished ones pile up.  It prints ms per step and µs per submission over
the first and the last 1,000 steps and submissions, and journal bytes
per step; a durable path that costs O(live jobs) reads the same at both
ends.
``compare_bench.py`` gates CI on no cell regressing more than 25%
against the baseline after host-speed normalisation (the engine-speedup
gate does not apply here; CI passes ``--min-speedup 0``).
"""

import os
import time

import numpy as np
import pytest

from repro.io.serialize import job_to_dict
from repro.jobs import workloads
from repro.service import (
    SchedulingService,
    ServiceConfig,
    ShardedSchedulingService,
)
from repro.sim import ENGINE_NAMES

CAPACITIES = (8, 8)
NUM_SHARDS = 4
TENANTS = tuple(f"tenant-{i}" for i in range(8))
N_JOBS = 64


def _job_docs(seed=0):
    """Wire-format job documents: stateless, safe to resubmit every
    benchmark round (the service builds a fresh Job from each)."""
    rng = np.random.default_rng(seed)
    js = workloads.random_phase_jobset(
        rng, len(CAPACITIES), N_JOBS, max_work=12
    )
    return [job_to_dict(j) for j in js.jobs]


def _config(engine):
    return ServiceConfig(
        capacities=CAPACITIES,
        engine=engine,
        seed=0,
        tenant_quota=N_JOBS,
        max_in_flight=4 * N_JOBS,
        fsync=False,
    )


def _sustained_run(service, docs):
    """Submit the stream with interleaved ticks, drain, and return the
    per-submission ack latencies plus the drain summary."""
    latencies = []
    for i, doc in enumerate(docs):
        t0 = time.perf_counter()
        ack = service.submit(TENANTS[i % len(TENANTS)], doc)
        latencies.append(time.perf_counter() - t0)
        assert ack["ok"], ack
        if i % 8 == 7:
            service.tick()
    result = service.drain()
    return latencies, result


def _report(label, latencies, elapsed):
    lat = sorted(latencies)
    p50 = lat[len(lat) // 2]
    p99 = lat[min(len(lat) - 1, int(len(lat) * 0.99))]
    print(
        f"\n{label}: {len(lat) / elapsed:8.0f} submits/s, "
        f"submit-to-ack p50 {p50 * 1e6:6.1f} us, p99 {p99 * 1e6:6.1f} us"
    )


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_sustained_single_service(benchmark, engine):
    """Baseline topology: one service, eight tenants, 64 submissions."""
    docs = _job_docs()

    def run():
        svc = SchedulingService(_config(engine))
        t0 = time.perf_counter()
        latencies, result = _sustained_run(svc, docs)
        return latencies, result, time.perf_counter() - t0

    latencies, result, elapsed = benchmark(run)
    assert result["ok"] and result["completed"] == N_JOBS, result
    _report(f"single[{engine}]", latencies, elapsed)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_sustained_sharded_fleet(benchmark, engine):
    """Same stream through a 4-shard fleet: the cell pins what the
    routing table, global allotter and supervisor ticks add on top of
    the bare service."""
    docs = _job_docs()

    def run():
        svc = ShardedSchedulingService.open(_config(engine), NUM_SHARDS)
        t0 = time.perf_counter()
        latencies, result = _sustained_run(svc, docs)
        return latencies, result, time.perf_counter() - t0

    latencies, result, elapsed = benchmark(run)
    assert result["ok"] and result["completed"] == N_JOBS, result
    assert not result["failed_shards"], result
    assert set(result["digests"]) == set(range(NUM_SHARDS))
    _report(f"sharded{NUM_SHARDS}[{engine}]", latencies, elapsed)


HISTORY_JOBS = 10_000
WINDOW = 1_000


def _window(ticks, rev=False):
    """(steps, seconds, bytes) summed over the first WINDOW steps."""
    steps = secs = nbytes = 0
    for n, dt, b in reversed(ticks) if rev else ticks:
        if steps >= WINDOW:
            break
        steps, secs, nbytes = steps + n, secs + dt, nbytes + b
    return steps, secs, nbytes


def test_journaled_history_independence(benchmark, tmp_path):
    """10,000 journaled submissions, fsync on, a tick after each: the
    per-step and per-submission cost at the end of the run against the
    start."""
    rng = np.random.default_rng(0)
    docs = [
        job_to_dict(j)
        for j in workloads.random_phase_jobset(
            rng, len(CAPACITIES), HISTORY_JOBS, max_phases=3, max_work=16
        ).jobs
    ]
    path = str(tmp_path / "history.journal")

    def run():
        if os.path.exists(path):
            os.remove(path)
        svc = SchedulingService(
            ServiceConfig(
                capacities=CAPACITIES,
                engine="fast",
                seed=0,
                tenant_quota=HISTORY_JOBS,
                max_in_flight=HISTORY_JOBS,
                journal_path=path,
                fsync=True,
            )
        )
        submits, ticks, size = [], [], 0
        for i, doc in enumerate(docs):
            t0 = time.perf_counter()
            assert svc.submit(TENANTS[i % len(TENANTS)], doc)["ok"]
            t1 = time.perf_counter()
            clock = svc.clock
            svc.tick()
            t2 = time.perf_counter()
            grown = os.path.getsize(path)
            submits.append(t1 - t0)
            ticks.append((svc.clock - clock, t2 - t1, grown - size))
            size = grown
        svc.simulator._journal.close()
        return submits, ticks

    submits, ticks = benchmark.pedantic(run, rounds=1, iterations=1)
    first, last = _window(ticks), _window(ticks, rev=True)
    print(
        f"\nhistory[{HISTORY_JOBS} jobs, {sum(t[0] for t in ticks)} steps]: "
        f"ms/step first {first[1] / first[0] * 1e3:.3f} "
        f"last {last[1] / last[0] * 1e3:.3f}; "
        f"us/submit first {np.mean(submits[:WINDOW]) * 1e6:.0f} "
        f"last {np.mean(submits[-WINDOW:]) * 1e6:.0f}; "
        f"journal bytes/step first {first[2] / first[0]:.0f} "
        f"last {last[2] / last[0]:.0f}"
    )
