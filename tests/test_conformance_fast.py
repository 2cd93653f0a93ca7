"""Differential conformance: the fast engine is bit-identical to the
reference on traces, metrics, journal digests and checkpoints.

Every scenario pins its seed — state digests cover the RNG, so unseeded
runs differ trivially without any engine bug.
"""

import numpy as np
import pytest

from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.machine.churn import ChurnEvent, ChurnSchedule
from repro.obs import Observability
from repro.schedulers import KRad
from repro.sim import (
    CompositeFaultModel,
    JobKiller,
    RetryPolicy,
    ScriptedViolation,
    Supervisor,
    TaskFailures,
    assert_conformant,
    conformance,
    default_monitors,
    engine_class,
    run_conformance,
    simulate,
    validate_schedule,
)
from repro.sim.faults import periodic_outage


def _phase_build(seed, k, caps, n_jobs=12, releases=False, traced=True):
    def build():
        rng = np.random.default_rng(seed)
        machine = KResourceMachine(caps)
        js = workloads.random_phase_jobset(rng, k, n_jobs, max_work=30)
        if releases:
            rel = workloads.poisson_release_times(
                np.random.default_rng(seed + 100), len(js), rate=0.5
            )
            js = workloads.with_release_times(js, rel)
        return dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=seed,
            record_trace=traced,
        )

    return build


@pytest.mark.parametrize(
    "k,caps", [(1, (4,)), (2, (4, 6)), (4, (3, 3, 3, 3))]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phase_jobsets_conform(k, caps, seed):
    assert_conformant(_phase_build(seed, k, caps))


@pytest.mark.parametrize("seed", [0, 1])
def test_phase_with_releases_conform(seed):
    assert_conformant(_phase_build(seed, 2, (4, 4), releases=True))


@pytest.mark.parametrize("seed", [0, 1])
def test_dag_jobsets_conform(seed):
    def build():
        rng = np.random.default_rng(seed)
        machine = KResourceMachine((3, 5))
        js = workloads.random_dag_jobset(rng, 2, 8)
        return dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=seed,
            record_trace=True,
        )

    assert_conformant(build)


def test_journal_digests_conform():
    """The strongest check: per-step state digests over a whole run."""
    assert_conformant(_phase_build(3, 2, (4, 4)), check_journal=True)


def test_faults_retry_conform():
    def build():
        rng = np.random.default_rng(5)
        machine = KResourceMachine((4, 4))
        js = workloads.random_phase_jobset(rng, 2, 10, max_work=30)
        return dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=5,
            record_trace=True,
            fault_model=CompositeFaultModel(
                [TaskFailures(0.05, seed=7), JobKiller(0.01, seed=8)]
            ),
            retry_policy=RetryPolicy(max_attempts=5),
        )

    assert_conformant(build)


def test_churn_conform():
    def build():
        rng = np.random.default_rng(6)
        machine = KResourceMachine((4, 4))
        js = workloads.random_phase_jobset(rng, 2, 10, max_work=30)
        churn = ChurnSchedule(
            (4, 4),
            [
                ChurnEvent(5, 0, -2, duration=10),
                ChurnEvent(12, 1, -4, duration=6),
            ],
        )
        return dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=6,
            record_trace=True,
            churn=churn,
        )

    assert_conformant(build)


def test_outage_conform():
    def build():
        rng = np.random.default_rng(7)
        machine = KResourceMachine((4, 2))
        js = workloads.random_phase_jobset(rng, 2, 8, max_work=25)
        return dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=7,
            record_trace=True,
            churn=periodic_outage(
                (4, 2), category=0, period=10, duration=4, degraded=0
            ),
        )

    assert_conformant(build)


def test_supervisor_conform():
    def build():
        rng = np.random.default_rng(8)
        machine = KResourceMachine((4, 4))
        js = workloads.random_phase_jobset(rng, 2, 8, max_work=25)
        monitors = default_monitors()
        monitors.append(ScriptedViolation(step=6, job_id=js[0].job_id))
        return dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=8,
            record_trace=True,
            supervisor=Supervisor(monitors, mode="resilient"),
        )

    assert_conformant(build)


def test_fast_trace_validates():
    """The fast engine's recorded schedule passes the validity checker."""
    build = _phase_build(9, 2, (4, 4))
    kwargs = build()
    js_copy = kwargs["jobset"].fresh_copy()
    result = simulate(
        kwargs["machine"],
        kwargs["scheduler"],
        kwargs["jobset"],
        seed=9,
        record_trace=True,
        engine="fast",
    )
    validate_schedule(result.trace, js_copy)


def test_midrun_checkpoints_identical():
    """Pausing both engines mid-run yields byte-equal checkpoints, and
    each engine can resume the other's."""

    def build():
        rng = np.random.default_rng(4)
        machine = KResourceMachine((4, 4))
        js = workloads.random_phase_jobset(rng, 2, 12, max_work=40)
        return machine, js

    machine, js = build()
    ref = engine_class("reference")(machine, KRad(machine), js, seed=9)
    machine2, js2 = build()
    fast = engine_class("fast")(machine2, KRad(machine2), js2, seed=9)
    assert ref.run_until(15) is None
    assert fast.run_until(15) is None
    ck_ref, ck_fast = ref.checkpoint(), fast.checkpoint()
    assert ck_ref == ck_fast
    assert ref.digest() == fast.digest()
    m3, _ = build()
    m4, _ = build()
    res_a = engine_class("reference").restore(ck_fast, KRad(m3)).run()
    res_b = engine_class("fast").restore(ck_ref, KRad(m4)).run()
    assert res_a.makespan == res_b.makespan
    assert res_a.completion_times == res_b.completion_times


def test_lean_untraced_metrics_identical():
    """Without a trace the fast engine takes its lean path; the final
    metrics still match exactly."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        machine = KResourceMachine((4, 6))
        js = workloads.random_phase_jobset(rng, 2, 20, max_work=60)
        r_ref = simulate(
            machine, KRad(machine), js.fresh_copy(), seed=1,
            engine="reference",
        )
        r_fast = simulate(
            machine, KRad(machine), js.fresh_copy(), seed=1, engine="fast"
        )
        assert r_ref.makespan == r_fast.makespan
        assert r_ref.completion_times == r_fast.completion_times
        assert (np.asarray(r_ref.busy) == np.asarray(r_fast.busy)).all()
        assert r_ref.idle_steps == r_fast.idle_steps


def test_report_carries_fingerprints():
    report = run_conformance(_phase_build(0, 2, (4, 4), n_jobs=6))
    assert report.ok
    assert set(report.engines) == {"reference", "fast"}
    for engine in report.engines:
        assert report.fingerprints[engine]["makespan"] > 0
        assert report.traces[engine]["digest"]
        assert report.metrics[engine]["mean_response_time"] > 0


def test_missing_seed_rejected():
    def build():
        machine = KResourceMachine((2,))
        js = workloads.random_phase_jobset(
            np.random.default_rng(0), 1, 3, max_work=10
        )
        return dict(machine=machine, scheduler=KRad(machine), jobset=js)

    with pytest.raises(Exception, match="seed"):
        run_conformance(build)


# ----------------------------------------------------------------------
# sliced (online) conformance: advance_until interleaved with injection
# ----------------------------------------------------------------------
def _late_jobs(seed, k, n, base_id=100):
    """Fresh mid-run submissions (DAG jobs: they force the fast engine
    off its lean PhaseJob path, the hardest handoff to keep identical)."""
    rng = np.random.default_rng(seed)
    jobs = list(workloads.random_dag_jobset(rng, k, n, size_hint=10).jobs)
    for i, job in enumerate(jobs):
        job.job_id = base_id + i
    return jobs


def _online_script(seed, k):
    def script():
        jobs = _late_jobs(seed + 50, k, 4)
        return [
            {"advance_to": 4},
            {"inject": jobs[0], "release_time": 5, "meta": {"tenant": "a"}},
            {"advance_to": 10},
            {"inject": jobs[1], "release_time": 12},
            {"inject": jobs[2], "release_time": 25},
            {"cancel": jobs[2].job_id},
            {"advance_to": 40},
            {"inject": jobs[3], "release_time": 45},
        ]

    return script


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sliced_injection_conforms(seed):
    from repro.sim import assert_sliced_conformant

    report = assert_sliced_conformant(
        _phase_build(seed, 3, (6, 3, 2), n_jobs=8),
        _online_script(seed, 3),
        check_journal=True,
    )
    # every action logged a digest, and the journal saw the online records
    kinds = [entry[0] for entry in report.slices["reference"]]
    assert kinds.count("inject") == 4 and kinds.count("cancel") == 1
    jkinds = {entry[0] for entry in report.journal_digests["reference"]}
    assert {"step", "submit", "cancel"} <= jkinds


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lean_sliced_injection_conforms(seed):
    """Untraced and unjournaled, the fast engine runs its lean kernel
    until the first DAG job is injected and the reference step after it;
    the per-action digests pin the switch down."""
    from repro.sim import assert_sliced_conformant

    assert_sliced_conformant(
        _phase_build(seed, 3, (6, 3, 2), n_jobs=8, traced=False),
        _online_script(seed, 3),
    )


#: lean churn script: a burst of BURST jobs released on one step, STREAM
#: jobs arriving one per step while the burst completes, then REFILL
#: jobs released at REFILL_AT, long after the live set ran empty
BURST, STREAM, REFILL, REFILL_AT = 24, 30, 6, 5000


def _lean_churn_script(seed):
    def script():
        rng = np.random.default_rng(seed + 200)
        jobs = list(
            workloads.random_phase_jobset(
                rng, 2, BURST + STREAM + REFILL, max_phases=3, max_work=12
            ).jobs
        )
        for i, job in enumerate(jobs):
            job.job_id = 100 + i
        burst = jobs[:BURST]
        stream = jobs[BURST : BURST + STREAM]
        refill = jobs[BURST + STREAM :]
        return [
            {"advance_to": 2},
            *({"inject": job, "release_time": 3} for job in burst),
            {"advance_to": 6},
            *(
                {"inject": job, "release_time": 7 + i}
                for i, job in enumerate(stream)
            ),
            {"advance_to": 20},  # a slice boundary mid-stream
            {"advance_to": REFILL_AT - 1},
            *({"inject": job, "release_time": REFILL_AT} for job in refill),
        ]

    return script


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lean_membership_churn_conforms(seed):
    """Phase jobs only, so the fast engine stays on its lean kernel
    throughout while rows arrive in a burst, join on steps where others
    complete, and refill an emptied live set after an idle
    fast-forward.  Per-action digests and the telemetry, reallocation
    volume included, equal the reference engine's."""
    phase_build = _phase_build(seed, 2, (3, 2), n_jobs=4, traced=False)
    runs = []  # one Observability per engine, in engine order

    def build():
        runs.append(Observability(profile=True))
        return dict(phase_build(), obs=runs[-1])

    report = conformance.assert_sliced_conformant(
        build, _lean_churn_script(seed)
    )
    ref, fast = runs
    assert ref.metrics.realloc_units > 0
    # only the reference step laps "desires": the fast engine stayed lean
    assert "desires" in ref.profiler.counts
    assert "desires" not in fast.profiler.counts

    # the script reached what it is for
    fp = report.fingerprints["reference"]
    ends = set(fp["completion_times"].values())
    first = 100 + BURST + STREAM
    arrivals = {fp["release_times"][j] + 1 for j in range(100 + BURST, first)}
    assert arrivals & ends  # arrivals on a step where others complete
    assert {a - 1 for a in arrivals} & ends  # and right after one
    drained = [e for e in report.slices["reference"] if e[0] == "advance"]
    assert drained[-1][2] and drained[-1][1] < REFILL_AT  # ran empty
    assert fp["idle_steps"] > 0
    done = fp["completion_times"]
    assert min(done[j] for j in range(first, first + REFILL)) > REFILL_AT


def test_dag_injection_leaves_the_lean_kernel():
    """The kernel switch the untraced sliced case crosses: lean until a
    non-PhaseJob arrives, the reference step from then on."""
    kwargs = _phase_build(0, 3, (6, 3, 2), n_jobs=8, traced=False)()
    sim = engine_class("fast")(
        kwargs.pop("machine"), kwargs.pop("scheduler"), kwargs.pop("jobset"),
        **kwargs,
    )
    sim.advance_until(4)
    assert sim._ft_lean
    sim.inject_job(_late_jobs(50, 3, 1)[0], release_time=5)
    assert not sim._ft_lean
    sim.run()
    assert not sim._ft_lean


def test_sliced_matches_batch_with_effective_releases():
    """The acceptance identity behind the service: a sliced run with
    late injections finishes exactly like a batch run of the same jobs
    with the same effective release times — on both engines."""
    from repro.sim import engine_class

    seed, caps = 7, (5, 4)
    for engine in ("reference", "fast"):
        build = _phase_build(seed, 2, caps, n_jobs=6)
        kwargs = build()
        sim = engine_class(engine)(
            kwargs.pop("machine"),
            kwargs.pop("scheduler"),
            kwargs.pop("jobset"),
            seed=kwargs["seed"],
        )
        sim.advance_until(6)
        late = _late_jobs(seed, 2, 2)
        releases = [
            sim.inject_job(late[0], release_time=max(8, sim.clock)),
            sim.inject_job(late[1], release_time=max(14, sim.clock)),
        ]
        online = sim.run()

        batch_build = _phase_build(seed, 2, caps, n_jobs=6)
        bk = batch_build()
        batch_late = _late_jobs(seed, 2, 2)
        for job, rel in zip(batch_late, releases):
            job.release_time = rel
        from repro.jobs import JobSet

        js = JobSet(
            list(bk.pop("jobset").jobs) + batch_late,
            num_categories=2,
        )
        batch = simulate(
            bk.pop("machine"), bk.pop("scheduler"), js,
            seed=bk["seed"], engine=engine,
        )
        assert online.makespan == batch.makespan
        assert online.completion_times == batch.completion_times
        assert online.release_times == batch.release_times


def test_sliced_with_fault_injection_conforms():
    from repro.sim import assert_sliced_conformant

    def build():
        rng = np.random.default_rng(3)
        machine = KResourceMachine((4, 3))
        js = workloads.random_phase_jobset(rng, 2, 6, max_work=25)
        return dict(
            machine=machine,
            scheduler=KRad(machine),
            jobset=js,
            seed=3,
            fault_model=JobKiller(0.04, seed=3),
            retry_policy=RetryPolicy(max_attempts=3),
        )

    def script():
        jobs = _late_jobs(60, 2, 2)
        return [
            {"advance_to": 5},
            {"inject": jobs[0], "release_time": 7},
            {"advance_to": 15},
            {"inject": jobs[1], "release_time": 16},
        ]

    report = assert_sliced_conformant(build, script, check_journal=True)
    assert report.ok


def test_sliced_unknown_action_rejected():
    from repro.errors import ReproError
    from repro.sim import run_sliced_conformance

    with pytest.raises(ReproError, match="unknown sliced-conformance"):
        run_sliced_conformance(
            _phase_build(0, 2, (4, 4), n_jobs=3),
            lambda: [{"teleport": 3}],
        )
