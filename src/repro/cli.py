"""Command-line entry point: ``krad`` / ``python -m repro``.

Examples
--------
Run every experiment and print the reports::

    krad all

Run one experiment::

    krad FIG3
    krad THM6 --seed 7

List what is available::

    krad list

Probe fault tolerance on an ad-hoc workload::

    krad faults --capacities 8,4 --jobs 10 --task-fail-rate 0.1
    krad faults --outage 10:4:0 --kill-rate 0.05 --max-attempts 4

Run a supervised, journaled simulation with elastic churn, then recover
it from the journal after a crash::

    krad supervise --capacities 4,2 --jobs 12 --churn 5:0:-3:4 \\
        --journal run.journal
    krad recover run.journal

Run the online scheduling service, stream jobs at it, scrape the live
metrics endpoint, and drain it::

    krad serve --capacities 8,4 --port 7180 --metrics-port 9290 \\
        --journal svc.journal
    krad submit --connect 127.0.0.1:7180 --tenant alice --jobs 5
    curl http://127.0.0.1:9290/metrics
    krad drain --connect 127.0.0.1:7180

If the service dies mid-run (power cut, SIGKILL), finish its backlog
offline from the journal::

    krad recover svc.journal

Shard the service into per-shard capacity slices under a watchdog that
restarts the fleet through every shard's journal, and inspect it::

    krad serve --capacities 8,4 --shards 2 --port 7180 \\
        --journal svc.journal --supervised
    krad shards status --connect 127.0.0.1:7180

Generate a named workload scenario, or record a live service run, then
replay it bit-identically through both engines::

    krad workload list
    krad workload gen flash-crowd --out crowd.ndjson --seed 3
    krad serve --capacities 8,4 --port 7180 --trace run.ndjson
    krad replay crowd.ndjson
    krad replay run.ndjson --digests

Race every registered policy over the fault-free scenarios, save the
leaderboard, and regression-check it against a committed baseline::

    krad arena run --out board.json
    krad arena leaderboard board.json --objective response
    krad arena compare board.json benchmarks/BENCH_arena.baseline.json
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from repro._version import __version__
from repro.experiments import REGISTRY, run_experiment

__all__ = ["main"]

_DESCRIPTIONS = {
    "FIG1": "example 3-DAG job of Figure 1",
    "FIG3": "makespan lower bound instance (Theorem 1 / Figure 3)",
    "THM3": "K-RAD makespan competitiveness sweep (Theorem 3 / Lemma 2)",
    "THM5": "mean response time, light workload (Theorem 5)",
    "THM6": "mean response time, heavy workload (Theorem 6)",
    "LEM4": "squashed-sum lemma randomized check (Lemma 4)",
    "K1": "homogeneous special case: RAD 3-competitive",
    "BASE": "K-RAD vs baseline schedulers",
    "FAIR": "fairness on bimodal workloads (service-gap bound)",
    "SHOP": "K-DAG model vs DAG-shop scheduling (Related Work)",
    "ADAPT": "adaptivity vs static partitioning / gang scheduling",
    "WKLD": "workload characterization (Table 0)",
    "SCEN": "scenario library: replayed traces certified vs Theorem 3",
    "APPS": "realistic application templates under every scheduler",
    "SENS": "ratio sensitivity in K and P (measured vs closed form)",
    "OPT": "Theorem 3 vs the exact optimum (small instances)",
    "RAND": "extension: randomized K-RAD vs the oblivious adversary",
    "SPEED": "extension: performance + functional heterogeneity",
    "FEEDBACK": "extension: A-GREEDY history-based desires",
    "ABLATE": "ablation of K-RAD design choices",
    "FAULT": "extension: outages, task failures, kills + retry/backoff",
    "CHURN": "extension: elastic processor churn + DEQ/RR state migration",
    "HUNT": "adversarial instance search vs the exact optimum",
    "ARENA": "policy tournament: empirical competitive-ratio leaderboard",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krad",
        description=(
            "Reproduction driver for 'Adaptive Scheduling of Parallel Jobs "
            "on Functionally Heterogeneous Resources' (ICPP 2007)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "experiment",
        help="experiment id (see 'krad list'), 'all', or 'list'",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base RNG seed for sweeps"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="repetitions per grid cell"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also append rendered reports to FILE",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="write --out in markdown instead of plain text",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="write --out as JSON lines (one report object per line)",
    )
    _add_engine_argument(parser)
    _add_obs_arguments(parser)
    return parser


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    from repro.sim.engine import ENGINE_NAMES

    parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=None,
        help="simulation engine: 'reference' (the executable "
        "specification; default) or 'fast' (vectorised, bit-identical "
        "results)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-out",
        default=None,
        metavar="FILE",
        help="write aggregated run metrics to FILE in Prometheus text "
        "exposition format",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="stream per-step observability events to FILE as JSON lines",
    )


def _install_obs(args, *, always: bool = False):
    """Build + install the process-default Observability, if requested
    (``always``: even without ``--obs-out``/``--events-out``).

    Returns the bundle (or ``None``); telemetry is read-only, so results
    are identical with or without these flags (see docs/OBSERVABILITY.md).
    """
    if not always and args.obs_out is None and args.events_out is None:
        return None
    from repro.obs import Observability, set_default_obs

    obs = Observability(events_path=args.events_out)
    set_default_obs(obs)
    return obs


def _abort_obs() -> None:
    """Tear down the installed Observability without exporting (error path)."""
    from repro.obs import get_default_obs, set_default_obs

    obs = get_default_obs()
    if obs is not None:
        set_default_obs(None)
        obs.close()


def _subcommand(prog: str):
    """The one error path of a subcommand: any error prints one
    ``prog: message`` line on stderr, discards the telemetry the
    subcommand installed, and exits 2.  (argparse's own usage errors
    still exit 2 through ``SystemExit``.)"""

    def decorate(body):
        @functools.wraps(body)
        def run(argv: list[str]) -> int:
            try:
                return body(argv)
            except Exception as exc:  # surface every failure as a CLI error
                print(f"{prog}: {exc}", file=sys.stderr)
                _abort_obs()
                return 2

        return run

    return decorate


def _finish_obs(obs, args, prog: str) -> int:
    """Export and tear down what :func:`_install_obs` set up."""
    if obs is None:
        return 0
    from repro.obs import set_default_obs

    set_default_obs(None)
    obs.close()
    if args.obs_out is not None:
        try:
            obs.write_prometheus(args.obs_out)
        except OSError as exc:
            print(
                f"{prog}: cannot write {args.obs_out}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"metrics: {args.obs_out}")
    if args.events_out is not None:
        print(f"events: {args.events_out}")
    return 0


def _run_one(experiment_id: str, args) -> bool:
    """Run one experiment with the top-level flags; True when it passed."""
    import inspect

    params = inspect.signature(REGISTRY[experiment_id.upper()]).parameters
    options = {}
    if "seed" in params:
        options["seed"] = args.seed
    if args.repeats is not None and "repeats" in params:
        options["repeats"] = args.repeats
    report = run_experiment(experiment_id, **options)
    rendered = report.render()
    print(rendered)
    print()
    if args.out:
        if args.json:
            import json

            payload = json.dumps(report.to_dict())
            suffix = "\n"
        elif args.markdown:
            from repro.analysis.export import report_to_markdown

            payload = report_to_markdown(report)
            suffix = "\n\n"
        else:
            payload = rendered
            suffix = "\n\n"
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(payload + suffix)
    return report.passed


def _parse_capacities(spec: str | None) -> tuple[int, ...] | None:
    if spec is None:
        return None
    return tuple(int(c) for c in spec.split(",") if c.strip())


def _add_capacities_argument(
    parser: argparse.ArgumentParser, default: str | None
) -> None:
    """The shared ``--capacities`` flag, read by :func:`_parse_capacities`.
    ``default=None`` leaves the machine to the scenario library."""
    parser.add_argument(
        "--capacities",
        default=default,
        help="comma-separated per-category processor counts "
        f"(default {default or '6,4,2'})",
    )


def _add_jobs_arguments(
    parser: argparse.ArgumentParser, *, jobs: int | None, seed_help: str
) -> None:
    """``--jobs``/``--seed``: the random DAG job set :func:`_random_jobs`
    builds.  ``jobs=None`` leaves both unset so the caller can tell a
    default from an explicit value."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=jobs,
        metavar="N",
        help=f"number of random DAG jobs (default {jobs or 1})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None if jobs is None else 0,
        help=f"{seed_help} (default 0)",
    )


def _random_jobs(args, num_categories: int):
    """The random DAG job set ``--jobs``/``--seed`` describe (unset: one
    job, seed 0)."""
    import numpy as np

    from repro.jobs import workloads

    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    num = 1 if args.jobs is None else args.jobs
    return workloads.random_dag_jobset(rng, num_categories, num, size_hint=20)


def _add_journal_arguments(
    parser: argparse.ArgumentParser, journal_help: str
) -> None:
    """``--journal``/``--checkpoint-every``; :func:`_checkpoint_every`
    reads the cadence."""
    parser.add_argument(
        "--journal", default=None, metavar="FILE", help=journal_help
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint record every N steps in the journal "
        "(default 25).  Only meaningful with --journal",
    )


def _checkpoint_every(args) -> int:
    """The journal's checkpoint cadence: ``--checkpoint-every``, else 25."""
    if args.checkpoint_every is None:
        return 25
    if args.journal is None:
        raise ValueError(
            "--checkpoint-every sets the journal's checkpoint cadence; "
            "it needs --journal FILE"
        )
    return args.checkpoint_every


def _add_churn_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--churn`` flag, read by :func:`_churn_schedule`."""
    parser.add_argument(
        "--churn",
        action="append",
        default=None,
        metavar="STEP:CAT:DELTA[:DURATION]",
        help="elastic capacity change, repeatable; e.g. 5:0:-3:4 removes "
        "3 category-0 processors at step 5 for 4 steps, 8:1:+2 adds 2 "
        "category-1 processors permanently",
    )


def _churn_schedule(capacities: tuple[int, ...], specs: list[str] | None):
    """The ``--churn`` specs as a ``ChurnSchedule`` (``None`` without any)."""
    if not specs:
        return None
    from repro.machine.churn import ChurnEvent, ChurnSchedule

    events = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"--churn wants STEP:CAT:DELTA[:DURATION], got {spec!r}"
            )
        events.append(
            ChurnEvent(
                step=int(parts[0]),
                category=int(parts[1]),
                delta=int(parts[2]),
                duration=int(parts[3]) if len(parts) == 4 else None,
            )
        )
    return ChurnSchedule(capacities, events)


def _print_run(result) -> int:
    """Print a finished run's summary and incidents; exit 1 when jobs were
    quarantined or permanently failed."""
    print(result.summary())
    for inc in result.incidents:
        print(
            f"incident: step {inc.step} [{inc.monitor}] {inc.action}: "
            f"{inc.message}"
        )
    return 0 if not result.quarantined_jobs and not result.failed_jobs else 1


def _add_fault_arguments(
    parser: argparse.ArgumentParser, *, capacity: bool = True
) -> None:
    """The shared fault-injection flag set (faults / serve / recover).
    ``capacity=False`` leaves out ``--availability``/``--outage``: they
    become churn, which the journal records for ``recover``."""
    parser.add_argument(
        "--task-fail-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-task failure probability in [0, 1)",
    )
    parser.add_argument(
        "--kill-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-step per-job kill probability in [0, 1)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="execution attempts per killed job (with backoff; default 3); "
        "1 = no retry.  Only meaningful with --kill-rate",
    )
    if not capacity:
        parser.set_defaults(availability=None, outage=None)
        return
    parser.add_argument(
        "--availability",
        type=float,
        default=None,
        metavar="A",
        help="random per-step processor availability in [0, 1]",
    )
    parser.add_argument(
        "--outage",
        default=None,
        metavar="PERIOD:DURATION[:DEGRADED]",
        help=(
            "periodic outage on category 0, e.g. 10:4 (drop to 1) or "
            "10:4:0 (full blackout)"
        ),
    )


def _add_scheduler_argument(parser, *, default: str = "k-rad") -> None:
    """The shared ``--scheduler`` flag; resolved by :func:`_resolve_scheduler`.

    Every subcommand that accepts a policy name goes through the same
    pair, so the accepted names are exactly ``Scheduler.known_names()``
    everywhere — one resolution place, one error message.
    """
    parser.add_argument(
        "--scheduler",
        default=default,
        help=f"scheduler name (default {default}; see "
        "'python -c \"from repro.schedulers import Scheduler; "
        "print(Scheduler.known_names())\"')",
    )


def _resolve_scheduler(name: str):
    from repro.schedulers import Scheduler

    return Scheduler.from_name(name)  # ValueError lists the known names


def _fault_spec_from_args(args):
    """The shared fault flags as a plain :func:`fault_spec` document
    (``None`` when fault-free) — the form a workload-trace header
    stores, so a recorded run can rebuild identical hooks on replay.
    :func:`fault_spec` refuses conflicting fields."""
    from repro.sim.faults import fault_spec

    return fault_spec(
        task_fail_rate=args.task_fail_rate,
        kill_rate=args.kill_rate,
        availability=args.availability,
        outage=args.outage,
        max_attempts=args.max_attempts,
        seed=args.seed,
    )


def _build_fault_objects(capacities: tuple[int, ...], args):
    """Turn the shared fault flags into engine hook objects.

    Returns ``(churn, fault_model, retry_policy)``, the capacity fault as
    a churn schedule.  The shipped models are pure functions of ``(seed,
    step)``, so building them again from the same flags yields the
    identical objects a crashed run used — which is exactly what
    ``recover`` (and trace replay) need.
    """
    from repro.sim.faults import fault_objects_from_spec

    return fault_objects_from_spec(capacities, _fault_spec_from_args(args))


def _build_faults_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krad faults",
        description=(
            "Run one fault-injected simulation and print robustness "
            "metrics (wasted work, goodput, retries, stalls)"
        ),
    )
    _add_capacities_argument(parser, "8,4")
    _add_jobs_arguments(parser, jobs=10, seed_help="workload + fault RNG seed")
    _add_scheduler_argument(parser)
    _add_fault_arguments(parser)
    parser.add_argument(
        "--max-stall-steps",
        type=int,
        default=1000,
        help="abort after this many consecutive zero-progress steps",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also append the rendered metrics table to FILE",
    )
    _add_engine_argument(parser)
    _add_obs_arguments(parser)
    return parser


@_subcommand("krad faults")
def _faults_main(argv: list[str]) -> int:
    """The ``krad faults`` subcommand: ad-hoc fault-injection probe."""
    from repro.analysis.tables import format_table
    from repro.machine.machine import KResourceMachine
    from repro.sim import simulate, summarize_robustness

    args = _build_faults_parser().parse_args(argv)
    capacities = _parse_capacities(args.capacities)
    machine = KResourceMachine(capacities)
    scheduler = _resolve_scheduler(args.scheduler)
    churn, fault_model, retry_policy = _build_fault_objects(capacities, args)
    obs = _install_obs(args)
    result = simulate(
        machine,
        scheduler,
        _random_jobs(args, machine.num_categories),
        churn=churn,
        fault_model=fault_model,
        retry_policy=retry_policy,
        max_stall_steps=args.max_stall_steps,
        engine=args.engine,
    )
    if _finish_obs(obs, args, "krad faults"):
        return 2

    s = summarize_robustness(result)
    table = format_table(
        s.ROW_HEADERS,
        [s.as_row()],
        title=(
            f"fault probe: {args.jobs} jobs on {capacities}, "
            f"seed {args.seed}"
        ),
    )
    print(table)
    print(
        f"completed {s.completed_jobs}/{args.jobs} jobs"
        + (f", {s.failed_jobs} permanently failed" if s.failed_jobs else "")
    )
    goodput = ", ".join(f"{g:.3f}" for g in s.goodput)
    print(f"goodput per category: {goodput}")
    if args.out:
        try:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(table + "\n\n")
        except OSError as exc:
            raise OSError(f"cannot write {args.out}: {exc}") from None
    return 0 if not s.failed_jobs else 1


def _build_supervise_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krad supervise",
        description=(
            "Run one K-RAD simulation under runtime invariant monitors, "
            "optionally with elastic processor churn and a crash-safe "
            "write-ahead journal"
        ),
    )
    _add_capacities_argument(parser, "4,2")
    _add_jobs_arguments(parser, jobs=10, seed_help="workload RNG seed")
    _add_scheduler_argument(parser)
    parser.add_argument(
        "--mode",
        choices=("strict", "resilient"),
        default="resilient",
        help="strict: raise on the first invariant violation; resilient: "
        "quarantine the offending job and keep going (default)",
    )
    _add_churn_argument(parser)
    _add_journal_arguments(
        parser,
        "write-ahead journal file ('krad recover FILE' resumes a crashed "
        "run from it)",
    )
    parser.add_argument(
        "--inject-violation",
        default=None,
        metavar="STEP:JOB",
        help="drill: fire a synthetic invariant violation for JOB at STEP "
        "to exercise the strict/resilient path",
    )
    _add_engine_argument(parser)
    _add_obs_arguments(parser)
    return parser


@_subcommand("krad supervise")
def _supervise_main(argv: list[str]) -> int:
    """The ``krad supervise`` subcommand: monitored/journaled simulation."""
    from repro.errors import InvariantViolation
    from repro.machine.machine import KResourceMachine
    from repro.sim import (
        Journal,
        ScriptedViolation,
        Supervisor,
        default_monitors,
        engine_class,
    )

    args = _build_supervise_parser().parse_args(argv)
    capacities = _parse_capacities(args.capacities)
    machine = KResourceMachine(capacities)
    checkpoint_every = _checkpoint_every(args)
    obs = _install_obs(args)

    monitors = default_monitors()
    if args.inject_violation is not None:
        parts = args.inject_violation.split(":")
        if len(parts) != 2:
            raise ValueError(
                f"--inject-violation wants STEP:JOB, got "
                f"{args.inject_violation!r}"
            )
        monitors.append(
            ScriptedViolation(step=int(parts[0]), job_id=int(parts[1]))
        )
    supervisor = Supervisor(monitors, mode=args.mode)
    churn = _churn_schedule(capacities, args.churn)
    journal = (
        Journal(args.journal, checkpoint_every=checkpoint_every)
        if args.journal is not None
        else None
    )
    scheduler = _resolve_scheduler(args.scheduler)
    sim = engine_class(args.engine)(
        machine,
        scheduler,
        _random_jobs(args, machine.num_categories),
        seed=args.seed,
        supervisor=supervisor,
        churn=churn,
        journal=journal,
    )
    try:
        result = sim.run()
    except InvariantViolation as exc:
        print(f"krad supervise: {exc}", file=sys.stderr)
        _abort_obs()
        return 1
    if _finish_obs(obs, args, "krad supervise"):
        return 2

    code = _print_run(result)
    if churn is not None and hasattr(scheduler, "churn_transitions"):
        for alpha, ledger in enumerate(scheduler.churn_transitions()):
            moves = ", ".join(f"{k}={v}" for k, v in ledger.items() if v)
            print(f"category {alpha} migrations: {moves or 'none'}")
    if args.journal is not None:
        print(f"journal: {args.journal}")
    return code


@_subcommand("krad recover")
def _recover_main(argv: list[str]) -> int:
    """The ``krad recover`` subcommand: resume a crashed journaled run."""
    parser = argparse.ArgumentParser(
        prog="krad recover",
        description=(
            "Rebuild a crashed simulation from its write-ahead journal "
            "(truncating any torn tail), replay it with digest "
            "verification, and run it to completion.  Works on batch "
            "journals ('krad supervise --journal') and service journals "
            "('krad serve --journal') alike.  Churn and capacity faults "
            "come back from the journal; a crashed run with task faults "
            "or kills must pass back the same flags (and --seed) it ran "
            "with, since those hooks are callables the journal cannot "
            "capture"
        ),
    )
    parser.add_argument(
        "journal",
        help="journal file from 'krad supervise --journal' or "
        "'krad serve --journal'",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault RNG seed the crashed run used (with fault flags)",
    )
    _add_fault_arguments(parser, capacity=False)
    _add_engine_argument(parser)
    _add_obs_arguments(parser)
    args = parser.parse_args(argv)

    from repro.sim import engine_class

    # No capacity flags here, so the machine shape is never needed.
    _churn, fault_model, retry_policy = _build_fault_objects((), args)
    obs = _install_obs(args)
    result = engine_class(args.engine).recover(
        args.journal,
        fault_model=fault_model,
        retry_policy=retry_policy,
    ).run()
    if _finish_obs(obs, args, "krad recover"):
        return 2

    print(f"recovered from {args.journal}")
    return _print_run(result)


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krad serve",
        description=(
            "Run the online scheduling service: a live simulator behind "
            "an NDJSON control socket with per-tenant admission control, "
            "an optional /metrics HTTP endpoint, optional fault "
            "injection, and an optional crash-safe journal ('krad "
            "recover FILE' finishes a killed service's backlog)"
        ),
    )
    _add_capacities_argument(parser, "4,2")
    _add_scheduler_argument(parser)
    parser.add_argument(
        "--seed", type=int, default=0, help="engine + fault RNG seed"
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for TCP sockets (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="control-socket TCP port (default: ephemeral, printed on "
        "startup)",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve the control protocol on a Unix socket instead of TCP",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="also serve GET /metrics (Prometheus text) and /healthz on "
        "this HTTP port (0 = ephemeral, printed on startup)",
    )
    parser.add_argument(
        "--step-slice",
        type=int,
        default=8,
        metavar="N",
        help="virtual steps the engine advances per serving-loop tick "
        "(default 8)",
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=8,
        metavar="N",
        help="max unfinished jobs one tenant may hold (default 8)",
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=64,
        metavar="N",
        help="max unfinished jobs across all tenants (default 64)",
    )
    parser.add_argument(
        "--retry-after",
        type=int,
        default=8,
        metavar="N",
        help="base retry hint (virtual steps) on quota/backpressure "
        "rejections (default 8)",
    )
    parser.add_argument(
        "--shed-horizon",
        type=int,
        default=None,
        metavar="N",
        help="shed submissions whose admission would certify a "
        "Theorem-3 completion horizon beyond N steps (default: off)",
    )
    _add_journal_arguments(
        parser,
        "crash-safe write-ahead journal; every acknowledged submission "
        "is recoverable ('krad recover FILE')",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record every accepted submission/cancellation as an "
        "NDJSON workload trace; 'krad replay FILE' re-executes the "
        "run bit-identically through either engine",
    )
    _add_churn_argument(parser)
    chaos = parser.add_argument_group(
        "chaos transport (deterministic wire-fault injection)"
    )
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the per-message fault plan (default 0)",
    )
    chaos.add_argument(
        "--chaos-drop",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a response is swallowed (default 0)",
    )
    chaos.add_argument(
        "--chaos-delay",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a response is delayed (default 0)",
    )
    chaos.add_argument(
        "--chaos-delay-ms",
        type=float,
        default=50.0,
        metavar="MS",
        help="max injected delay in milliseconds (default 50)",
    )
    chaos.add_argument(
        "--chaos-corrupt",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a response byte is flipped (default 0)",
    )
    chaos.add_argument(
        "--chaos-disconnect",
        type=float,
        default=0.0,
        metavar="P",
        help="probability the connection is cut instead of answering "
        "(default 0)",
    )
    shard = parser.add_argument_group(
        "sharding (fault-isolated multi-tenant partitions)"
    )
    shard.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition tenants across N shards, each with its own "
        "engine, capacity slice, admission controller and journal "
        "(<journal>.shard<i>); a shard whose tick raises is rebuilt "
        "from its journal, or failed with its tenants moved to the "
        "others (default 1 = unsharded)",
    )
    sup = parser.add_argument_group(
        "watchdog supervision (self-healing through journal recovery)"
    )
    sup.add_argument(
        "--supervised",
        action="store_true",
        help="run under a watchdog: the serving process is spawned as a "
        "child, health-checked over the control socket, and restarted "
        "through digest-verified journal recovery on crash or hang; "
        "with --shards N every shard recovers from its own journal "
        "(requires an explicit --port or --socket, and --journal)",
    )
    sup.add_argument(
        "--hang-timeout",
        type=float,
        default=2.0,
        metavar="S",
        help="consecutive seconds of failed liveness probes before the "
        "watchdog declares a hang and restarts (default 2.0)",
    )
    sup.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="N",
        help="watchdog restart budget before giving up (default 5)",
    )
    sup.add_argument(
        "--recovery-deadline",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds a (re)started serving process gets to answer its "
        "first probe (default 30)",
    )
    _add_fault_arguments(parser)
    _add_engine_argument(parser)
    _add_obs_arguments(parser)
    return parser


def _child_serve_argv(argv: list[str]) -> list[str]:
    """The supervised child's ``serve`` argv: the watchdog's own, minus
    every token argparse resolves to ``--supervised`` (any prefix of it
    from ``--su`` on).  The child parses the watchdog's tuning flags and
    ignores them."""
    return [
        tok
        for tok in argv
        if not (len(tok) >= 4 and "--supervised".startswith(tok))
    ]


def _supervised_serve(args, argv: list[str], address) -> int:
    """Run ``krad serve --supervised``: spawn + probe + restart loop."""
    import subprocess

    from repro.errors import ServiceError
    from repro.service import ServiceClient, Watchdog

    if args.socket is None and args.port is None:
        raise ValueError(
            "--supervised needs a stable endpoint to probe and rebind: "
            "pass an explicit --port N or --socket PATH"
        )
    if args.journal is None:
        raise ValueError(
            "--supervised restarts through journal recovery; it needs "
            "--journal FILE"
        )
    child_argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        *_child_serve_argv(argv),
    ]

    def spawn():
        # A killed child leaves its Unix socket path behind; unlink it so
        # the replacement can rebind the same endpoint.
        if isinstance(address, str) and os.path.exists(address):
            os.unlink(address)
        # The child inherits stdout/stderr so its "serving on ..." lines
        # and drain summary stay visible to whoever runs the watchdog.
        proc = subprocess.Popen(child_argv)
        print(f"watchdog: child pid {proc.pid}", flush=True)
        return proc

    def probe() -> bool:
        try:
            with ServiceClient(address, timeout=1.0) as cli:
                return bool(cli.ping().get("ok"))
        except ServiceError:
            return False

    probe_interval = 0.25
    dog = Watchdog(
        spawn,
        probe,
        probe_interval_s=probe_interval,
        hang_probes=max(1, int(args.hang_timeout / probe_interval)),
        grace_s=args.recovery_deadline,
        recovery_deadline_s=args.recovery_deadline,
        max_restarts=args.max_restarts,
        on_event=lambda kind, detail: print(
            f"watchdog: {kind}: {detail}", flush=True
        ),
    )
    return dog.run()


@_subcommand("krad serve")
def _serve_main(argv: list[str]) -> int:
    """The ``krad serve`` subcommand: run the online scheduling service."""
    import asyncio

    from repro.service import (
        ChaosConfig,
        SchedulingService,
        ServiceConfig,
        ServiceServer,
        ShardedSchedulingService,
    )
    from repro.service.server import control_endpoint

    args = _build_serve_parser().parse_args(argv)
    capacities = _parse_capacities(args.capacities)
    address = control_endpoint(args.host, args.port, args.socket)
    if args.shards < 1:
        raise ValueError(f"--shards must be >= 1, got {args.shards}")
    if args.supervised:
        return _supervised_serve(args, argv, address)
    chaos = ChaosConfig(
        seed=args.chaos_seed,
        drop_rate=args.chaos_drop,
        delay_rate=args.chaos_delay,
        max_delay_s=args.chaos_delay_ms / 1000.0,
        corrupt_rate=args.chaos_corrupt,
        disconnect_rate=args.chaos_disconnect,
    )
    checkpoint_every = _checkpoint_every(args)
    if args.churn and (
        args.outage is not None or args.availability is not None
    ):
        raise ValueError(
            "--churn and --outage/--availability are mutually "
            "exclusive capacity-fault modes; express degradation as "
            "negative churn events"
        )
    churn, fault_model, retry_policy = _build_fault_objects(capacities, args)
    if args.churn:
        churn = _churn_schedule(capacities, args.churn)

    # The service always collects metrics (they back /metrics and the
    # 'metrics' wire op); --events-out adds the bus stream.
    obs = _install_obs(args, always=True)
    config = ServiceConfig(
        capacities=capacities,
        scheduler=args.scheduler,
        engine=args.engine,
        seed=args.seed,
        step_slice=args.step_slice,
        tenant_quota=args.tenant_quota,
        max_in_flight=args.max_in_flight,
        retry_after=args.retry_after,
        shed_horizon=args.shed_horizon,
        journal_path=args.journal,
        checkpoint_every=checkpoint_every,
        trace_path=args.trace,
        extra=(
            {
                # a capacity fault is recorded once, in "faults"
                "faults": _fault_spec_from_args(args),
                "churn": churn.to_dict() if args.churn else None,
            }
            if args.trace is not None
            else {}
        ),
    )
    journals = (
        [f"{args.journal}.shard{i}" for i in range(args.shards)]
        if args.shards > 1
        else [args.journal]
    )
    resuming = args.journal is not None and any(
        os.path.exists(path) and os.path.getsize(path) > 0
        for path in journals
    )
    if args.shards > 1:
        if fault_model is not None or churn is not None:
            raise ValueError(
                "--shards partitions a clean pool; per-engine fault "
                "flags (--outage/--availability/--churn/task faults) "
                "are single-service only"
            )
        service = ShardedSchedulingService.open(config, args.shards, obs=obs)
    else:
        service = SchedulingService.open(
            config,
            obs=obs,
            fault_model=fault_model,
            retry_policy=retry_policy,
            churn=churn,
        )
    server = ServiceServer(
        service,
        host=args.host,
        port=args.port,
        unix_path=args.socket,
        metrics_port=args.metrics_port,
        chaos=chaos,
    )

    async def _amain() -> None:
        await server.start()
        if isinstance(server.address, str):
            print(f"serving on unix:{server.address}", flush=True)
        else:
            host, port = server.address
            print(f"serving on {host}:{port}", flush=True)
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(f"metrics on http://{mhost}:{mport}/metrics", flush=True)
        if args.shards > 1:
            print(
                f"shards: {args.shards} "
                f"(capacity split {list(service.allotter.split())})",
                flush=True,
            )
        if args.journal is not None:
            print(f"journal: {args.journal}", flush=True)
        if args.trace is not None:
            print(f"trace: {args.trace}", flush=True)
        if resuming:
            print(
                f"resumed from journal at step {service.clock} "
                f"({service.stats()['accepted']} acknowledged "
                "submissions restored)",
                flush=True,
            )
        if server.chaos is not None:
            print(
                f"chaos armed: seed={args.chaos_seed} "
                f"drop={args.chaos_drop} delay={args.chaos_delay} "
                f"corrupt={args.chaos_corrupt} "
                f"disconnect={args.chaos_disconnect}",
                flush=True,
            )
        await server.serve_until_drained()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        print("krad serve: interrupted", file=sys.stderr)
        _abort_obs()
        return 130
    if _finish_obs(obs, args, "krad serve"):
        return 2
    res = service.result
    if isinstance(res, dict):
        # sharded drains merge per-shard summaries into one document
        print(
            f"drained at makespan {res['makespan']}: "
            f"{res['completed']} completed, "
            f"{len(res['failed'])} failed"
        )
        if res.get("failed_shards"):
            print(
                "failed shards (journals retained for replay): "
                f"{res['failed_shards']}"
            )
        return 0 if res.get("ok") and not res["failed"] else 1
    print(
        f"drained at makespan {res.makespan}: "
        f"{len(res.completion_times)} completed, "
        f"{len(res.failed_jobs)} failed"
    )
    return 0 if not res.failed_jobs else 1


def _add_connect_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="TCP address of a running 'krad serve'",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="Unix socket of a running 'krad serve --socket'",
    )


def _connect_address(args):
    if args.connect is not None and args.socket is not None:
        raise ValueError(
            "--connect and --socket name the same service endpoint; "
            "pick one"
        )
    if args.socket is not None:
        return args.socket
    if args.connect is None:
        raise ValueError(
            "where is the service? pass --connect HOST:PORT or "
            "--socket PATH"
        )
    host, sep, port = args.connect.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--connect wants HOST:PORT, got {args.connect!r}"
        )
    return (host, int(port))


def _build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krad submit",
        description=(
            "Submit jobs to a running 'krad serve': either a random "
            "workload (--jobs/--seed) or serialized job documents "
            "(--job-file).  Prints one ack or rejection line per job"
        ),
    )
    _add_connect_arguments(parser)
    parser.add_argument(
        "--tenant",
        default="default",
        help="tenant name for quota accounting (default 'default')",
    )
    _add_jobs_arguments(
        parser, jobs=None, seed_help="workload RNG seed for --jobs"
    )
    parser.add_argument(
        "--job-file",
        default=None,
        metavar="FILE",
        help="submit the serialized job/jobset JSON in FILE instead of "
        "random jobs",
    )
    parser.add_argument(
        "--release-time",
        type=int,
        default=None,
        metavar="T",
        help="request release at virtual step T (clamped to the "
        "service clock)",
    )
    parser.add_argument(
        "--retry",
        action="store_true",
        help="retry under a budget: honour retry_after on rejections, "
        "ride out outages with tokened resubmission (exactly-once), "
        "give up with a deadline error when the budget is exhausted",
    )
    parser.add_argument(
        "--wait",
        action="store_true",
        help="after submitting, poll until every admitted job reaches a "
        "terminal state and print its response time",
    )
    return parser


@_subcommand("krad submit")
def _submit_main(argv: list[str]) -> int:
    """The ``krad submit`` subcommand: feed jobs to a running service."""
    from repro.service import RetryBudget, ServiceClient

    args = _build_submit_parser().parse_args(argv)
    # --retry arms the full resilience stack: outage ride-through with
    # reconnects and idempotency tokens, not just retry_after.
    # The tighter socket timeout turns a swallowed response into a fast
    # retry instead of a 30 s stall.
    retry = (
        RetryBudget(
            max_attempts=64,
            max_elapsed_s=120.0,
            base_backoff_s=0.05,
            max_backoff_s=2.0,
        )
        if args.retry
        else None
    )
    client_timeout = 5.0 if args.retry else 30.0
    address = _connect_address(args)
    if args.job_file is not None and (
        args.jobs is not None or args.seed is not None
    ):
        raise ValueError(
            "--job-file submits exactly the jobs in the file; "
            "--jobs/--seed generate random ones — pick one source"
        )
    if args.job_file is not None:
        import json

        from repro.io.serialize import job_from_dict, jobset_from_dict

        with open(args.job_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") == "jobset":
            jobs = list(jobset_from_dict(doc).jobs)
        else:
            jobs = [job_from_dict(doc)]
    else:
        with ServiceClient(
            address, timeout=client_timeout, retry=retry
        ) as probe:
            k = len(probe.stats()["capacities"])
        jobs = list(_random_jobs(args, k).jobs)

    rejected = 0
    admitted: list[int] = []
    with ServiceClient(address, timeout=client_timeout, retry=retry) as client:
        for job in jobs:
            if args.retry:
                ack = client.submit_blocking(
                    args.tenant, job, release_time=args.release_time
                )
            else:
                ack = client.submit(
                    args.tenant, job, release_time=args.release_time
                )
            if ack.get("ok"):
                admitted.append(ack["job_id"])
                print(
                    f"job {ack['job_id']} tenant={ack['tenant']} "
                    f"release={ack['release']}"
                )
            else:
                rejected += 1
                print(
                    f"rejected: {ack.get('reason')} "
                    f"(retry_after={ack.get('retry_after')}): "
                    f"{ack.get('error')}"
                )
        if args.wait:
            for jid in admitted:
                st = client.wait(jid)
                rt = st.get("response_time")
                print(
                    f"job {jid} {st.get('state')}"
                    + (f" response_time={rt}" if rt is not None else "")
                )
    return 1 if rejected else 0


@_subcommand("krad drain")
def _drain_main(argv: list[str]) -> int:
    """The ``krad drain`` subcommand: drain a running service."""
    parser = argparse.ArgumentParser(
        prog="krad drain",
        description=(
            "Ask a running 'krad serve' to stop admitting, run its "
            "backlog to completion, and print the drain summary (the "
            "server exits once drained)"
        ),
    )
    _add_connect_arguments(parser)
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print live service stats instead of draining",
    )
    args = parser.parse_args(argv)

    from repro.errors import ServiceError
    from repro.service import ServiceClient

    with ServiceClient(_connect_address(args), timeout=120.0) as client:
        if args.stats:
            import json

            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        summary = client.drain()
    if not summary.get("ok"):
        raise ServiceError(summary.get("error"))
    print(
        f"drained at makespan {summary['makespan']}: "
        f"{summary['completed']} completed, "
        f"{len(summary['failed'])} failed, "
        f"{len(summary['cancelled'])} cancelled"
    )
    for tenant in sorted(summary["per_tenant"]):
        counts = summary["per_tenant"][tenant]
        print(
            f"  {tenant}: {counts['completed']} completed, "
            f"{counts['failed']} failed, {counts['cancelled']} cancelled"
        )
    return 0 if not summary["failed"] else 1


@_subcommand("krad shards")
def _shards_main(argv: list[str]) -> int:
    """The ``krad shards`` subcommand: inspect a sharded service."""
    parser = argparse.ArgumentParser(
        prog="krad shards",
        description=(
            "Inspect a running 'krad serve --shards N': one row per "
            "shard with its state, capacity slice, routed tenants and "
            "the reason for its state"
        ),
    )
    parser.add_argument(
        "action",
        choices=["status"],
        help="what to ask the service (only 'status' for now)",
    )
    _add_connect_arguments(parser)
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw shards-status document instead of the table",
    )
    args = parser.parse_args(argv)

    from repro.errors import ServiceError
    from repro.service import ServiceClient

    with ServiceClient(_connect_address(args), timeout=30.0) as client:
        doc = client.shards_status()
    if not doc.get("ok"):
        raise ServiceError(doc.get("error"))
    if args.json:
        import json

        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(
        f"{doc['num_shards']} shards, fleet state {doc['state']}, "
        f"{doc['failovers']} failovers, supervision tick {doc['tick']}"
    )
    header = (
        f"{'shard':>5}  {'state':<11} {'capacity':<12} "
        f"{'in-flight':>9}  {'tenants':<24} reason"
    )
    print(header)
    for row in doc["shards"]:
        caps = ",".join(str(c) for c in row["capacities"])
        tenants = ",".join(row["tenants"][:4])
        if len(row["tenants"]) > 4:
            tenants += f",+{len(row['tenants']) - 4}"
        print(
            f"{row['shard']:>5}  {row['state']:<11} {caps:<12} "
            f"{row.get('in_flight', '-'):>9}  {tenants or '-':<24} "
            f"{row['reason'] or '-'}"
        )
    moves = doc.get("failover_moves") or {}
    if moves:
        print(
            "failed over: "
            + ", ".join(
                f"{t}->shard{s}" for t, s in sorted(moves.items())
            )
        )
    healthy = all(r["state"] == "serving" for r in doc["shards"])
    return 0 if healthy else 1


@_subcommand("krad replay")
def _replay_main(argv: list[str]) -> int:
    """The ``krad replay`` subcommand: re-execute a workload trace."""
    parser = argparse.ArgumentParser(
        prog="krad replay",
        description=(
            "Replay an NDJSON workload trace (recorded by 'krad serve "
            "--trace', converted from a journal, or generated by 'krad "
            "workload gen') through the simulation engines.  With no "
            "--engine, both engines run and the replays are proven "
            "bit-identical per step; a divergence names the first "
            "differing step and exits 1"
        ),
    )
    parser.add_argument("trace", help="NDJSON workload trace file")
    parser.add_argument(
        "--engine",
        default=None,
        help="replay through one engine only (reference|fast); "
        "default: both, compared per-step",
    )
    parser.add_argument(
        "--scheduler",
        default=None,
        help="override the recorded scheduler (what-if replay; the "
        "result is then a counterfactual, not a reproduction)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="verify the replayed schedule against the Section-2 model "
        "constraints step by step",
    )
    parser.add_argument(
        "--digests",
        action="store_true",
        help="also print the schedule digest and terminal state digest",
    )
    args = parser.parse_args(argv)

    from repro.errors import ReplayError
    from repro.workloads import WorkloadTrace, replay, replay_compare

    trace = WorkloadTrace.load(args.trace)
    n_submit = len(trace.submissions())
    n_cancel = len(trace.records) - n_submit
    origin = trace.scenario or "recorded run"
    print(
        f"trace: {origin}, {n_submit} submissions, {n_cancel} "
        f"cancellations, K={trace.num_categories} "
        f"{list(trace.capacities)}, scheduler {trace.scheduler}, "
        f"faults {'on' if trace.faults else 'off'}"
    )
    try:
        if args.engine is not None:
            out = replay(
                trace,
                engine=args.engine,
                scheduler=args.scheduler,
                validate=args.validate,
            )
            outcomes = {out.engine: out}
        else:
            outcomes = replay_compare(
                trace, scheduler=args.scheduler, validate=args.validate
            )
    except ReplayError as exc:
        where = f" (step {exc.step})" if exc.step is not None else ""
        print(f"krad replay: DIVERGED{where}: {exc}", file=sys.stderr)
        return 1
    for name in sorted(outcomes):
        o = outcomes[name]
        res = o.result
        print(
            f"{name:>9}: makespan {res.makespan}, "
            f"{len(res.completion_times)} completed, "
            f"{len(res.failed_jobs)} failed, "
            f"{len(o.step_digests)} executed steps"
        )
        if args.digests:
            print(
                f"{'':>9}  schedule sha256 {o.schedule_digest[:16]}…, "
                f"state crc {o.state_digest}"
            )
    if len(outcomes) > 1:
        print(
            f"bit-identical across {', '.join(sorted(outcomes))} "
            f"({len(next(iter(outcomes.values())).step_digests)} "
            "per-step digests equal)"
        )
    return 0


@_subcommand("krad workload")
def _workload_main(argv: list[str]) -> int:
    """The ``krad workload`` subcommand: the scenario library."""
    parser = argparse.ArgumentParser(
        prog="krad workload",
        description=(
            "The workload scenario library: list the named scenarios or "
            "materialise one as an NDJSON trace for 'krad replay'"
        ),
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("list", help="one line per scenario")
    gen = sub.add_parser(
        "gen", help="generate one scenario as a workload trace"
    )
    gen.add_argument("scenario", help="scenario name (see 'list')")
    gen.add_argument(
        "--out", required=True, metavar="FILE", help="trace file to write"
    )
    gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    gen.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="job count (default: the scenario's own)",
    )
    _add_capacities_argument(gen, None)
    gen.add_argument(
        "--scheduler", default="k-rad", help="scheduler recorded in the "
        "trace header (default k-rad)",
    )
    args = parser.parse_args(argv)

    from repro.workloads import SCENARIOS, build_trace, scenario_names

    if args.action == "list":
        for name in scenario_names():
            spec = SCENARIOS[name]
            tag = "        " if spec.certified else "[faults] "
            print(f"{name:18s} {tag}{spec.description}")
        return 0
    trace = build_trace(
        args.scenario,
        seed=args.seed,
        num_jobs=args.jobs,
        capacities=_parse_capacities(args.capacities),
        scheduler=args.scheduler,
    )
    trace.dump(args.out)
    print(
        f"wrote {args.out}: {args.scenario}, {len(trace)} submissions, "
        f"capacities {list(trace.capacities)}, seed {trace.seed}, "
        f"sha256 {trace.content_digest()[:16]}…"
    )
    return 0


@_subcommand("krad arena")
def _arena_main(argv: list[str]) -> int:
    """The ``krad arena`` subcommand: policy tournaments + leaderboards."""
    parser = argparse.ArgumentParser(
        prog="krad arena",
        description=(
            "Race every registered scheduling policy over the fault-free "
            "scenario library and report empirical competitive ratios "
            "against the paper's certified lower bounds"
        ),
    )
    sub = parser.add_subparsers(dest="action", required=True)

    run_p = sub.add_parser(
        "run", help="run a tournament and print/write the leaderboard"
    )
    run_p.add_argument(
        "--engine",
        default="both",
        help="reference, fast, or both (default: both, proven "
        "bit-identical apart from the engine field)",
    )
    run_p.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: every fault-free "
        "scenario; see 'krad workload list')",
    )
    run_p.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy names (default: every registered "
        "policy that supports the machine)",
    )
    run_p.add_argument("--seed", type=int, default=0, help="RNG seed")
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="job count per scenario (default: each scenario's own)",
    )
    _add_capacities_argument(run_p, None)
    run_p.add_argument(
        "--objective",
        choices=("makespan", "response"),
        default="makespan",
        help="ranking objective for the printed table (default makespan)",
    )
    run_p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the leaderboard JSON (the reference engine's board "
        "when --engine both)",
    )

    show = sub.add_parser(
        "leaderboard", help="print a saved leaderboard JSON as a table"
    )
    show.add_argument("file", help="leaderboard JSON file")
    show.add_argument(
        "--objective",
        choices=("makespan", "response"),
        default="makespan",
        help="ranking objective (default makespan)",
    )

    cmp_p = sub.add_parser(
        "compare",
        help="regression-check a leaderboard against a committed baseline",
    )
    cmp_p.add_argument("current", help="freshly produced leaderboard JSON")
    cmp_p.add_argument("baseline", help="committed baseline JSON")
    cmp_p.add_argument(
        "--max-regression",
        type=float,
        default=0.02,
        metavar="FRAC",
        help="allowed relative ratio growth per cell (default 0.02)",
    )

    args = parser.parse_args(argv)

    from repro.arena import (
        compare_leaderboards,
        load_leaderboard,
        run_cross_engine_tournament,
        run_tournament,
    )
    objective_attr = {
        "makespan": "makespan_ratio",
        "response": "mean_response_ratio",
    }

    def _print_board(board) -> None:
        from repro.analysis.tables import format_table

        obj = objective_attr[args.objective]
        rows = [
            [
                r["policy"],
                round(r["mean_ratio"], 3),
                round(r["worst_ratio"], 3),
                r["scenarios"],
            ]
            for r in board.ranking(obj)
        ]
        print(
            format_table(
                ["policy", "mean ratio", "worst ratio", "scenarios"],
                rows,
                title=(
                    f"{args.objective} leaderboard: engine "
                    f"{board.engine}, seed {board.seed}, capacities "
                    f"{list(board.capacities)}, Theorem-3 limit "
                    f"{board.theorem3_limit:.3f}"
                ),
            )
        )

    if args.action == "run":
        kwargs = dict(
            scenarios=(
                [s for s in args.scenarios.split(",") if s]
                if args.scenarios
                else None
            ),
            policies=(
                [p for p in args.policies.split(",") if p]
                if args.policies
                else None
            ),
            seed=args.seed,
            num_jobs=args.jobs,
            capacities=_parse_capacities(args.capacities),
        )
        if args.engine == "both":
            boards = run_cross_engine_tournament(**kwargs)
            board = boards["reference"]
            _print_board(board)
            print(
                "bit-identical across reference, fast "
                f"(engine-masked digest "
                f"{board.content_digest()[:16]}…)"
            )
        else:
            board = run_tournament(engine=args.engine, **kwargs)
            _print_board(board)
        if args.out:
            board.dump(args.out)
            print(f"wrote {args.out}")
        return 0
    if args.action == "leaderboard":
        _print_board(load_leaderboard(args.file))
        return 0
    # compare
    failures = compare_leaderboards(
        load_leaderboard(args.current),
        load_leaderboard(args.baseline),
        max_regression=args.max_regression,
    )
    if failures:
        for f in failures:
            print(f"krad arena: REGRESSION: {f}", file=sys.stderr)
        return 1
    print(
        f"leaderboard within {args.max_regression:.1%} of baseline on "
        "every cell"
    )
    return 0


#: ``krad <name> ...`` subcommands; anything else names an experiment
_SUBCOMMANDS = {
    "faults": _faults_main,
    "supervise": _supervise_main,
    "recover": _recover_main,
    "serve": _serve_main,
    "submit": _submit_main,
    "drain": _drain_main,
    "shards": _shards_main,
    "replay": _replay_main,
    "workload": _workload_main,
    "arena": _arena_main,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = _build_parser().parse_args(argv)
    target = args.experiment.upper()

    # Reject flag combinations that would otherwise be silently ignored —
    # a typo'd invocation should fail loudly, not drop half its options.
    if args.markdown and args.json:
        print(
            "krad: --markdown and --json are mutually exclusive output "
            "formats for --out",
            file=sys.stderr,
        )
        return 2
    if (args.markdown or args.json) and not args.out:
        flag = "--markdown" if args.markdown else "--json"
        print(
            f"krad: {flag} formats the --out file; pass --out FILE",
            file=sys.stderr,
        )
        return 2
    if target == "LIST":
        ignored = [
            flag
            for flag, value in (
                ("--repeats", args.repeats),
                ("--out", args.out),
                ("--engine", args.engine),
                ("--obs-out", args.obs_out),
                ("--events-out", args.events_out),
            )
            if value is not None
        ]
        if ignored:
            print(
                f"krad: 'list' runs nothing; {', '.join(ignored)} "
                "would be ignored",
                file=sys.stderr,
            )
            return 2
        for key in sorted(REGISTRY):
            print(f"{key:8s} {_DESCRIPTIONS.get(key, '')}")
        return 0

    if target != "ALL" and target not in REGISTRY:
        print(
            f"unknown experiment {args.experiment!r}; try 'krad list'",
            file=sys.stderr,
        )
        return 2

    obs = _install_obs(args)
    # experiments call simulate() internally; --engine routes every run
    # of this invocation through the chosen engine, and only this one
    from repro.sim.engine import get_default_engine, set_default_engine

    previous_engine = get_default_engine()
    if args.engine is not None:
        set_default_engine(args.engine)
    try:
        keys = sorted(REGISTRY) if target == "ALL" else [target]
        ok = all([_run_one(key, args) for key in keys])
        if target == "ALL":
            print(
                "ALL EXPERIMENTS PASSED" if ok else "SOME EXPERIMENTS FAILED"
            )
    except Exception:
        _abort_obs()
        raise
    finally:
        set_default_engine(previous_engine)
    if _finish_obs(obs, args, "krad"):
        return 2
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
