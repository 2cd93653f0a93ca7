"""Differential conformance testing between simulation engines.

The reference engine (:class:`~repro.sim.engine.Simulator`) is the
executable specification; the fast engine
(:class:`~repro.sim.fastengine.FastSimulator`) must be *bit-identical* —
same traces (values **and** dict key orders), same metrics, same
journal digests — on every scenario.  This module runs the same scenario
through each engine and compares everything observable:

>>> report = run_conformance(lambda: dict(
...     machine=machine, scheduler=KRad(machine), jobset=jobs,
...     seed=0, record_trace=True))
>>> report.ok
True

Every scenario is also run once more per engine *untraced* — the regime
where the fast engine takes its lean kernel (recording a trace turns it
off) — and the result fingerprint, the final state ``digest()`` and a
``checkpoint()`` taken half way through must match too.  So must the
telemetry of that run and of :func:`run_sliced_conformance`'s driven
run: every metric family except ``krad_step_wall_seconds``, the one no
two runs share.

``build`` is a zero-argument factory returning the keyword arguments of
:func:`~repro.sim.engine.simulate` (minus ``engine``); it is invoked
once *per engine* because schedulers, job sets, fault models and churn
schedules are stateful — sharing one instance across runs would compare
an engine against a corrupted scenario, not against the other engine.
Always pass an explicit ``seed``: digests cover the RNG state, so two
auto-seeded runs differ trivially.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.obs import Observability
from repro.sim.engine import engine_class, simulate
from repro.sim.journal import Journal, read_journal
from repro.sim.metrics import summarize_result, summarize_robustness
from repro.sim.results import SimulationResult

__all__ = [
    "ConformanceReport",
    "assert_conformant",
    "assert_sliced_conformant",
    "result_fingerprint",
    "run_conformance",
    "run_sliced_conformance",
    "trace_fingerprint",
]


def result_fingerprint(result: SimulationResult) -> dict:
    """Every engine-observable scalar of a finished run, as plain data."""
    return {
        "scheduler": result.scheduler_name,
        "num_jobs": result.num_jobs,
        "capacities": list(result.capacities),
        "makespan": result.makespan,
        "completion_times": dict(result.completion_times),
        "release_times": dict(result.release_times),
        "idle_steps": result.idle_steps,
        "busy": np.asarray(result.busy).tolist(),
        "wasted": (
            None
            if result.wasted is None
            else np.asarray(result.wasted).tolist()
        ),
        "stall_steps": result.stall_steps,
        "longest_stall": result.longest_stall,
        "retries": dict(result.retries),
        "failed_jobs": list(result.failed_jobs),
        "quarantined_jobs": list(result.quarantined_jobs),
    }


def trace_fingerprint(result: SimulationResult) -> dict | None:
    """Canonical per-step content (order-sensitive) plus the digest."""
    if result.trace is None:
        return None
    return {
        "steps": [rec.content() for rec in result.trace.steps],
        "digest": result.trace.content_digest(),
    }


@dataclass
class ConformanceReport:
    """Outcome of one differential run across engines."""

    engines: tuple[str, ...]
    fingerprints: dict[str, dict]
    traces: dict[str, dict | None]
    metrics: dict[str, dict]
    robustness: dict[str, dict]
    journal_digests: dict[str, list]
    mismatches: list[str] = field(default_factory=list)
    #: per-engine action log of a sliced run (empty for batch runs)
    slices: dict[str, list] = field(default_factory=dict)
    #: per-engine result fingerprint, final digest and mid-run checkpoint
    #: of the untraced run (empty for sliced runs)
    untraced: dict[str, dict] = field(default_factory=dict)
    #: per-engine metrics export of the untraced or driven run, minus
    #: the wall-time histogram
    telemetry: dict[str, dict | None] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _first_trace_divergence(a: dict, b: dict) -> str:
    for i, (ra, rb) in enumerate(zip(a["steps"], b["steps"])):
        if ra != rb:
            keys = [k for k in ra if ra[k] != rb.get(k)]
            return (
                f"first divergence at step index {i} (t={ra['t']}), "
                f"fields {keys}: {[(k, ra[k], rb.get(k)) for k in keys]!r}"
            )
    return f"step counts differ: {len(a['steps'])} vs {len(b['steps'])}"


def _telemetry(obs: Observability) -> dict | None:
    """``obs``'s metrics export minus the wall-time histogram."""
    if obs.metrics is None:
        return None
    out = obs.metrics.to_dict()
    del out["krad_step_wall_seconds"]
    return out


def _untraced_run(
    build: Callable[[], dict], engine: str, t_mid: int
) -> tuple[dict, dict | None]:
    """Run ``build``'s scenario untraced, pausing at ``t_mid``.

    Returns the result fingerprint, the final state digest, the
    checkpoint taken at the pause (``None`` if the run was over by then)
    and the run's telemetry.
    """
    kwargs = build()
    kwargs.pop("journal", None)
    kwargs["record_trace"] = False
    obs = kwargs["obs"] = kwargs.get("obs") or Observability()
    sim = engine_class(engine)(
        kwargs.pop("machine"),
        kwargs.pop("scheduler"),
        kwargs.pop("jobset"),
        **kwargs,
    )
    result = sim.run_until(t_mid)
    checkpoint = None
    if result is None:
        checkpoint = sim.checkpoint()
        result = sim.run()
    return {
        "result": result_fingerprint(result),
        "digest": sim.digest(),
        "checkpoint": checkpoint,
    }, _telemetry(obs)


def run_conformance(
    build: Callable[[], dict],
    *,
    engines: tuple[str, ...] = ("reference", "fast"),
    check_journal: bool = False,
) -> ConformanceReport:
    """Run one scenario through each engine and compare everything.

    Each engine also runs the scenario untraced, paused half way through
    the first engine's makespan for a checkpoint (see the module
    docstring).  With ``check_journal`` the scenario is additionally
    journaled to a temporary file per engine and the per-step state
    digests compared — the strongest equivalence check available,
    covering clock, counters, RNG, job runtime state and scheduler state
    after *every* step.
    """
    fingerprints: dict[str, dict] = {}
    traces: dict[str, dict | None] = {}
    metrics: dict[str, dict] = {}
    robustness: dict[str, dict] = {}
    journal_digests: dict[str, list] = {}
    untraced: dict[str, dict] = {}
    telemetry: dict[str, dict | None] = {}
    t_mid = None
    for engine in engines:
        kwargs = build()
        machine = kwargs.pop("machine")
        scheduler = kwargs.pop("scheduler")
        jobset = kwargs.pop("jobset")
        if "seed" not in kwargs:
            raise ReproError(
                "conformance scenarios must pin a seed: digests cover the "
                "RNG state, so auto-seeded runs differ trivially"
            )
        kwargs.pop("journal", None)  # journaling is driven by check_journal
        metrics_jobs = jobset.fresh_copy()
        result = simulate(
            machine, scheduler, jobset, engine=engine, **kwargs
        )
        if t_mid is None:
            t_mid = result.makespan // 2
        untraced[engine], telemetry[engine] = _untraced_run(
            build, engine, t_mid
        )
        fingerprints[engine] = result_fingerprint(result)
        traces[engine] = trace_fingerprint(result)
        metrics[engine] = (
            summarize_result(result, metrics_jobs).to_dict()
            if result.completion_times
            else {}
        )
        robustness[engine] = summarize_robustness(result).to_dict()
        if check_journal:
            kwargs_j = build()
            kwargs_j.pop("journal", None)
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, f"{engine}.journal")
                simulate(
                    kwargs_j.pop("machine"),
                    kwargs_j.pop("scheduler"),
                    kwargs_j.pop("jobset"),
                    engine=engine,
                    journal=Journal(path),
                    **kwargs_j,
                )
                records, _, clean = read_journal(path)
            journal_digests[engine] = [
                (rec.data["t"], rec.data["digest"])
                for rec in records
                if rec.type == "step"
            ]
            if not clean:
                journal_digests[engine].append(("truncated", True))

    report = ConformanceReport(
        engines=tuple(engines),
        fingerprints=fingerprints,
        traces=traces,
        metrics=metrics,
        robustness=robustness,
        journal_digests=journal_digests,
        untraced=untraced,
        telemetry=telemetry,
    )
    _diff_reports(report, check_journal=check_journal)
    return report


def _diff_reports(report: ConformanceReport, *, check_journal: bool) -> None:
    """Populate ``report.mismatches`` by pairwise store comparison."""
    engines = report.engines
    base = engines[0]
    for other in engines[1:]:
        for name, store in (
            ("result", report.fingerprints),
            ("metrics", report.metrics),
            ("robustness", report.robustness),
            ("telemetry", report.telemetry),
        ):
            if store[base] != store[other]:
                diff = {
                    k: (store[base].get(k), store[other].get(k))
                    for k in store[base].keys() | store[other].keys()
                    if store[base].get(k) != store[other].get(k)
                }
                report.mismatches.append(
                    f"{name} mismatch {base} vs {other}: {diff!r}"
                )
        traces = report.traces
        if traces[base] != traces[other]:
            detail = (
                _first_trace_divergence(traces[base], traces[other])
                if traces[base] is not None and traces[other] is not None
                else "one engine recorded no trace"
            )
            report.mismatches.append(
                f"trace mismatch {base} vs {other}: {detail}"
            )
        if report.untraced and report.untraced[base] != report.untraced[other]:
            a, b = report.untraced[base], report.untraced[other]
            parts = [k for k in a if a[k] != b[k]]
            if a["checkpoint"] is not None and b["checkpoint"] is not None:
                parts += [
                    f"checkpoint.{k}"
                    for k in a["checkpoint"]
                    if a["checkpoint"][k] != b["checkpoint"].get(k)
                ]
            report.mismatches.append(
                f"untraced run mismatch {base} vs {other} in {parts}"
            )
        if report.slices and report.slices[base] != report.slices[other]:
            pairs = zip(report.slices[base], report.slices[other])
            first = next(
                (
                    (i, a, b)
                    for i, (a, b) in enumerate(pairs)
                    if a != b
                ),
                (
                    "length",
                    len(report.slices[base]),
                    len(report.slices[other]),
                ),
            )
            report.mismatches.append(
                f"slice log mismatch {base} vs {other} at {first!r}"
            )
        journal_digests = report.journal_digests
        if check_journal and journal_digests[base] != journal_digests[other]:
            pairs = zip(journal_digests[base], journal_digests[other])
            step = next(
                (a for a, b in pairs if a != b),
                ("length", len(journal_digests[other])),
            )
            report.mismatches.append(
                f"journal digest mismatch {base} vs {other} from {step!r}"
            )


def assert_conformant(
    build: Callable[[], dict],
    *,
    engines: tuple[str, ...] = ("reference", "fast"),
    check_journal: bool = False,
) -> ConformanceReport:
    """:func:`run_conformance`, raising ``AssertionError`` on mismatch."""
    report = run_conformance(
        build, engines=engines, check_journal=check_journal
    )
    if not report.ok:
        raise AssertionError(
            "engines diverged:\n" + "\n".join(report.mismatches)
        )
    return report


def run_sliced_conformance(
    build: Callable[[], dict],
    script: Callable[[], list],
    *,
    engines: tuple[str, ...] = ("reference", "fast"),
    check_journal: bool = False,
) -> ConformanceReport:
    """Differential test of the *online* engine surface.

    Drives each engine through the same interleaving of partial
    advances and late submissions — the access pattern of the
    scheduling service — instead of one monolithic ``run()``:

    * ``build`` is the same zero-argument scenario factory
      :func:`run_conformance` takes (constructor kwargs; ``seed``
      mandatory, fresh instances per engine);
    * ``script`` is a zero-argument factory returning the action list,
      invoked once per engine (injected jobs are stateful too).  Each
      action is a dict: ``{"advance_to": t}`` slices the run forward
      via ``advance_until``; ``{"inject": job}`` (optional
      ``release_time``, ``meta``) submits a job mid-run;
      ``{"cancel": job_id}`` withdraws an unarrived one.

    After every action the engine's state ``digest()`` is recorded —
    the slice logs must match *action by action*, so a divergence
    pinpoints the exact inject/advance that broke equivalence rather
    than surfacing as a different final makespan.  The script's residue
    is then finalized with ``run()`` (whose final digest is logged too)
    and compared with the full batch fingerprint/trace/telemetry
    machinery.  With ``check_journal`` each engine additionally journals
    the driven run and the journal's step/submit/cancel record sequence
    (with per-step digests) must match — proving the service's
    crash-recovery substrate is engine-independent.
    """
    fingerprints: dict[str, dict] = {}
    traces: dict[str, dict | None] = {}
    robustness: dict[str, dict] = {}
    journal_digests: dict[str, list] = {}
    slice_logs: dict[str, list] = {}
    telemetry: dict[str, dict | None] = {}
    for engine in engines:
        kwargs = build()
        machine = kwargs.pop("machine")
        scheduler = kwargs.pop("scheduler")
        jobset = kwargs.pop("jobset")
        if "seed" not in kwargs:
            raise ReproError(
                "conformance scenarios must pin a seed: digests cover the "
                "RNG state, so auto-seeded runs differ trivially"
            )
        kwargs.pop("journal", None)  # journaling is driven by check_journal
        obs = kwargs["obs"] = kwargs.get("obs") or Observability()
        with tempfile.TemporaryDirectory() as tmp:
            journal = None
            if check_journal:
                journal = Journal(os.path.join(tmp, f"{engine}.journal"))
            sim = engine_class(engine)(
                machine, scheduler, jobset, journal=journal, **kwargs
            )
            log: list = []
            for action in script():
                if "advance_to" in action:
                    quiescent = sim.advance_until(int(action["advance_to"]))
                    log.append(
                        ("advance", sim.clock, quiescent, sim.digest())
                    )
                elif "inject" in action:
                    release = sim.inject_job(
                        action["inject"],
                        release_time=action.get("release_time"),
                        meta=action.get("meta"),
                    )
                    log.append(
                        (
                            "inject",
                            action["inject"].job_id,
                            release,
                            sim.digest(),
                        )
                    )
                elif "cancel" in action:
                    sim.cancel_pending(int(action["cancel"]))
                    log.append(
                        ("cancel", int(action["cancel"]), sim.digest())
                    )
                else:
                    raise ReproError(
                        f"unknown sliced-conformance action {action!r}"
                    )
            result = sim.run()
            log.append(("run", sim.clock, sim.digest()))
            if check_journal:
                records, _, clean = read_journal(journal.path)
                digests = []
                for rec in records:
                    if rec.type == "step":
                        digests.append(
                            ("step", rec.data["t"], rec.data["digest"])
                        )
                    elif rec.type == "submit":
                        digests.append(
                            (
                                "submit",
                                rec.data["t"],
                                rec.data["job"]["static"]["job_id"],
                            )
                        )
                    elif rec.type == "cancel":
                        digests.append(
                            ("cancel", rec.data["t"], rec.data["job_id"])
                        )
                if not clean:
                    digests.append(("truncated", True))
                journal_digests[engine] = digests
        slice_logs[engine] = log
        telemetry[engine] = _telemetry(obs)
        fingerprints[engine] = result_fingerprint(result)
        traces[engine] = trace_fingerprint(result)
        robustness[engine] = summarize_robustness(result).to_dict()

    report = ConformanceReport(
        engines=tuple(engines),
        fingerprints=fingerprints,
        traces=traces,
        # per-job metrics need the pre-run job set; injected jobs make
        # that ill-defined here, and the fingerprint already covers
        # every completion/release time
        metrics={engine: {} for engine in engines},
        robustness=robustness,
        journal_digests=journal_digests,
        slices=slice_logs,
        telemetry=telemetry,
    )
    _diff_reports(report, check_journal=check_journal)
    return report


def assert_sliced_conformant(
    build: Callable[[], dict],
    script: Callable[[], list],
    *,
    engines: tuple[str, ...] = ("reference", "fast"),
    check_journal: bool = False,
) -> ConformanceReport:
    """:func:`run_sliced_conformance`, raising on any divergence."""
    report = run_sliced_conformance(
        build, script, engines=engines, check_journal=check_journal
    )
    if not report.ok:
        raise AssertionError(
            "engines diverged under sliced execution:\n"
            + "\n".join(report.mismatches)
        )
    return report
