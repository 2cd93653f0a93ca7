"""replay-scenarios and sim-dag: the engine step loop in process.

No wire and no journal: a pass is one call of the public entry point per
input (``repro.workloads.replay`` per scenario trace, ``repro.sim.simulate``
per DAG mix).  Passes repeat until the run's time is spent; metrics
are medians over passes.  Every pass's output is checked against the
reference engine on the same input after the timed passes.  A public
call that raises counts as a failed operation and ends the passes.

``python perfbench/inproc.py WORKLOAD SEED ENGINE`` (with ``src`` on
``PYTHONPATH``) times one cold set-up in a fresh interpreter and prints
its seconds; runs use it to set up several times.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import HERE, MachineSpeed, OwnedProcess, high_percentile, median

SCENARIOS = ("flash-crowd", "heavy-tail", "adversarial-mix")
#: scenario traces at 10x their default size
SCENARIO_SCALE = 10
DAG_JOBS = 400
#: independent mixes per pass: one mix's work varies by 0.08 (quartile
#: spread over median) from seed to seed, which three mixes average down
DAG_MIXES = 3
DAG_CAPACITIES = (8, 8, 8)
#: releases drawn over [0, 1000]: the jobs overlap but arrive staggered
DAG_RELEASE_SPREAD = 1000
MIN_PASSES = 3
#: set-up is timed in this process plus this many fresh interpreters
SETUP_PROBES = 2


@dataclass
class Call:
    label: str
    seconds: float
    submitted: int
    terminal: int
    fingerprint: object
    #: what the call raised, if it did
    error: str | None = None


@dataclass
class Pass:
    seconds: float
    calls: list = field(default_factory=list)
    #: converts the pass's seconds to nominal machine speed
    scale: float = 1.0

    @property
    def submitted(self) -> int:
        return sum(c.submitted for c in self.calls)

    @property
    def terminal(self) -> int:
        return sum(c.terminal for c in self.calls)


def build_inputs(workload: str, seed: int) -> list[tuple[str, object]]:
    import numpy as np

    if workload == "replay-scenarios":
        from repro.workloads.scenarios import SCENARIOS as LIBRARY
        from repro.workloads.scenarios import build_trace

        return [
            (name, build_trace(
                name, seed=seed,
                num_jobs=SCENARIO_SCALE * LIBRARY[name].default_jobs,
            ))
            for name in SCENARIOS
        ]
    from repro.jobs.templates import application_mix

    return [
        (f"dag-mix-{k}", application_mix(
            np.random.default_rng((seed, k)), DAG_JOBS,
            release_spread=DAG_RELEASE_SPREAD,
        ))
        for k in range(DAG_MIXES)
    ]


def call(workload: str, label: str, inp, seed: int, engine: str,
         tracer=None) -> Call:
    """One public call, timed, reduced to what the checks compare."""
    from repro import KResourceMachine, simulate
    from repro.schedulers.krad import KRad
    from repro.workloads.replay import replay

    submitted = (len(inp.records) if workload == "replay-scenarios"
                 else len(inp))
    t0 = time.perf_counter()
    try:
        if workload == "replay-scenarios":
            outcome = replay(inp, engine=engine, record_trace=False)
            result = outcome.result
        else:
            result = simulate(KResourceMachine(DAG_CAPACITIES), KRad(), inp,
                              seed=seed, engine=engine)
    except Exception as exc:  # noqa: BLE001 - any raise fails the call
        return Call(label, time.perf_counter() - t0, submitted, 0, None,
                    f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if workload == "replay-scenarios":
        fingerprint = outcome.state_digest
    else:
        fingerprint = tuple(sorted(result.completion_times.items()))
    if tracer is not None:
        tracer.add_result(result)
    terminal = len(result.completion_times) + len(result.failed_jobs)
    return Call(label, seconds, submitted, terminal, fingerprint)


def one_pass(workload, inputs, seed, engine, tracer=None) -> Pass:
    """One call per input; stops at the first call that raises."""
    t0 = time.perf_counter()
    calls = []
    for label, inp in inputs:
        calls.append(call(workload, label, inp, seed, engine, tracer))
        if calls[-1].error:
            break
    return Pass(time.perf_counter() - t0, calls)


def failed(p: Pass) -> bool:
    return any(c.error for c in p.calls)


def timed_passes(workload, inputs, seed, engine, seconds,
                 speed: MachineSpeed, tracer=None):
    """Passes for ``seconds``, each closed by a ``speed`` mark (the first
    is opened by the caller's last mark).  With a ``tracer``, untraced
    passes and passes with the tracer's wrappers installed alternate, so
    drift of the machine's speed falls on both alike; returns (untraced
    passes, traced passes) then.  A failed pass is the last."""
    modes = (False, True) if tracer is not None else (False,)
    passes: list[Pass] = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(passes) < MIN_PASSES * len(modes)):
        if not modes[len(passes) % len(modes)]:
            p = one_pass(workload, inputs, seed, engine)
        else:
            tracer.install_engine_layers()
            try:
                p = one_pass(workload, inputs, seed, engine, tracer)
            finally:
                tracer.uninstall()
        p.scale = speed.mark()
        passes.append(p)
        if failed(p):
            break
    if tracer is None:
        return passes
    return passes[::2], passes[1::2]


def set_up(workload: str, seed: int, engine: str):
    """Import ``repro``, build the inputs and run one warm-up pass;
    returns (inputs, seconds, the warm-up pass)."""
    t0 = time.perf_counter()
    import repro  # noqa: F401 - the import is part of set-up

    inputs = build_inputs(workload, seed)
    warm = one_pass(workload, inputs, seed, engine)
    return inputs, time.perf_counter() - t0, warm


def probe_set_up(workload: str, seed: int, engine: str, work: Path) -> float:
    """Time :func:`set_up` in a fresh interpreter, owned and reaped; it
    inherits this process's CPUs."""
    argv = [sys.executable, str(HERE / "inproc.py"), workload, str(seed),
            engine]
    log = work / "setup-probe.log"
    with OwnedProcess(argv, log) as child:
        code = child.wait(120.0)
    lines = log.read_text().strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"set-up probe failed ({code}): {lines[-3:]}")
    return float(lines[-1])


def check(workload, inputs, seed, passes: list[Pass]) -> tuple[int, list]:
    """Compare every call's output with the reference engine's; a call
    that raised fails, and so does every input when the reference
    engine raises."""
    expected = {label: call(workload, label, inp, seed, "reference")
                for label, inp in inputs}
    failures, problems = 0, []
    for label, ref in expected.items():
        if ref.error:
            problems.append(f"{label}: the reference engine raised "
                            f"{ref.error}")
    for p in passes:
        for c in p.calls:
            ref = expected[c.label]
            if c.error or ref.error or c.fingerprint != ref.fingerprint:
                failures += 1
                why = c.error or "output differs from the reference engine"
                problems.append(f"{c.label}: {why}")
    return failures, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list[Pass], setup_s: float, rss_mb: float,
               scaled: bool = True) -> tuple[dict, str]:
    """The end-to-end metrics of the passes that did not fail, each pass
    at nominal machine speed (with ``scaled``; see
    :class:`common.MachineSpeed`).  In batch use a pass is the request:
    every input is handed over at once and acknowledged by the last
    result's return, so submissions and terminal jobs per second coincide
    and ack times are pass times."""
    passes = [p for p in passes if not failed(p)]
    if not passes:
        return {}, "no pass finished"
    pass_s = [p.seconds * (p.scale if scaled else 1.0) for p in passes]
    p99, rank = high_percentile(pass_s)
    metrics = {
        "submits_per_s": median(p.submitted / s
                                for p, s in zip(passes, pass_s)),
        "ack_p50_ms": median(pass_s) * 1e3,
        "ack_p99_ms": p99 * 1e3,
        "jobs_per_s": median(p.terminal / s for p, s in zip(passes, pass_s)),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    note = (f"{len(passes)} passes of {passes[0].submitted} jobs; an ack is "
            f"a pass's return; ack_p99_ms is p{rank:.3g} of {len(passes)}")
    return metrics, note


def per_call_median(passes: list[Pass]) -> dict[str, float]:
    labels = [c.label for c in passes[0].calls]
    return {
        label: median(c.seconds for p in passes for c in p.calls
                      if c.label == label)
        for label in labels
    }


if __name__ == "__main__":
    _inputs, seconds, warm = set_up(sys.argv[1], int(sys.argv[2]),
                                    sys.argv[3])
    if failed(warm):
        sys.exit(f"set-up failed: {[c.error for c in warm.calls]}")
    print(seconds)
