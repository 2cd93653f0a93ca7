"""A long-running journaled service must not slow down with its history.

Two guards: the admission gate's per-tenant in-flight count and the
engine's ``job_state`` (checked against a brute-force scan of the run's
collections for every id, across submits, ticks, cancels, kill/retry
faults and crash recovery), and the journal's bytes per step, which must
stay flat as completed jobs pile up.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.serialize import job_to_dict
from repro.jobs import workloads
from repro.service import SchedulingService, ServiceConfig
from repro.sim import RetryPolicy
from repro.sim.faults import JobKiller

TENANTS = ("a", "b", "c")


def _job_state_oracle(sim, jid: int) -> str:
    """A job's lifecycle state by scanning every collection of the run."""
    st = sim._state
    if jid in st.alive:
        return "running"
    if jid in st.completion:
        return "completed"
    if jid in st.quarantined:
        return "quarantined"
    if jid in st.failed_jobs:
        return "failed"
    if any(e[1] == jid for e in st.resubmit):
        return "retrying"
    if any(j.job_id == jid for j in st.pending):
        return "pending"
    return "unknown"


def _brute_in_flight(svc: SchedulingService, tenant: str) -> int:
    sim = svc.simulator
    return sum(
        1
        for jid, owner in svc._tenant_of.items()
        if owner == tenant
        and _job_state_oracle(sim, jid) in ("pending", "running", "retrying")
    )


def _hooks() -> dict:
    return {
        "fault_model": JobKiller(0.15, seed=3),
        "retry_policy": RetryPolicy(max_attempts=2, base_delay=2),
    }


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, len(TENANTS) - 1),
            st.integers(0, 50),
            st.integers(0, 4),
        ),
        st.tuples(st.just("tick")),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("recover")),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=30, deadline=None)
@given(ops=_OPS, engine=st.sampled_from(["reference", "fast"]))
def test_tenant_in_flight_matches_brute_force(ops, engine):
    """After every action, ``tenant_in_flight`` and ``job_state`` agree
    with the brute-force scan, and a cancel succeeds exactly when the
    scan finds the job pending."""
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            capacities=(3, 2),
            engine=engine,
            seed=0,
            step_slice=2,
            tenant_quota=1000,
            max_in_flight=1000,
            journal_path=os.path.join(tmp, "svc.journal"),
            checkpoint_every=3,
            fsync=False,
        )
        svc = SchedulingService(config, **_hooks())
        for op in ops:
            if op[0] == "submit":
                _kind, tenant, seed, delay = op
                job = workloads.random_phase_jobset(
                    np.random.default_rng(seed), 2, 1, max_work=6
                ).jobs[0]
                ack = svc.submit(
                    TENANTS[tenant],
                    job_to_dict(job),
                    release_time=svc.clock + delay,
                )
                assert ack["ok"], ack
            elif op[0] == "tick":
                svc.tick()
            elif op[0] == "cancel" and svc._tenant_of:
                ids = sorted(svc._tenant_of)
                jid = ids[op[1] % len(ids)]
                pending = (
                    jid not in svc._cancelled
                    and _job_state_oracle(svc.simulator, jid) == "pending"
                )
                assert svc.cancel(jid)["ok"] == pending
            elif op[0] == "recover":
                svc.simulator._journal.close()  # crash
                # open() recovers, or starts afresh if nothing was written
                svc = SchedulingService.open(config, **_hooks())
            sim = svc.simulator
            if sim._state is not None:
                # every id ever assigned, and one never assigned
                for jid in range(svc._next_id + 1):
                    assert sim.job_state(jid) == _job_state_oracle(sim, jid)
            for tenant in TENANTS:
                assert svc.tenant_in_flight(tenant) == _brute_in_flight(
                    svc, tenant
                )
        svc.simulator._journal.close()


def _per_step(rows, steps):
    """Bytes per step over the first ``steps`` steps of ``rows``."""
    total_steps = total_bytes = 0
    for n, nbytes in rows:
        if total_steps >= steps:
            break
        total_steps += n
        total_bytes += nbytes
    return total_bytes / total_steps


def test_journal_bytes_per_step_stay_flat(tmp_path):
    """1,000 jobs through a journaled service, a tick after every
    submission: the journal bytes per step of the last 500 steps stay
    within 1.1x of the first 500, however many jobs have finished."""
    n = 1000
    jobs = workloads.random_phase_jobset(
        np.random.default_rng(0), 2, n, max_phases=3, max_work=16
    ).jobs
    path = str(tmp_path / "svc.journal")
    svc = SchedulingService(
        ServiceConfig(
            capacities=(8, 8),
            engine="fast",
            seed=0,
            tenant_quota=n,
            max_in_flight=n,
            journal_path=path,
            fsync=False,
        )
    )
    rows = []
    size = 0
    for i, job in enumerate(jobs):
        clock = svc.clock
        assert svc.submit(f"t{i % 8}", job_to_dict(job))["ok"]
        svc.tick()
        grown = os.path.getsize(path)
        rows.append((svc.clock - clock, grown - size))
        size = grown
    svc.simulator._journal.close()
    first = _per_step(rows, 500)
    last = _per_step(rows[::-1], 500)
    assert sum(r[0] for r in rows) >= 2000
    assert last <= 1.1 * first, (first, last)
