"""End-to-end benchmark of the K-RAD reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``perfbench/README.md``) for about ``S`` seconds
of measurement, checks its outputs, prints a short human-readable summary
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
with no instrumentation installed, their seconds scaled to a nominal
machine speed (see ``common.MachineSpeed``); ``--trace 1`` alternates
untraced passes with passes under timing wrappers around the program's
public calls and reports the per-layer metrics instead.  Run it from the
repository root: it imports ``repro`` from ``src`` and writes only under
``.perfbench_tmp``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import threading
import traceback
from pathlib import Path

import inproc
import serve_load
from common import (NOMINAL_S, SRC, WORK_ROOT, MachineSpeed, median,
                    metric_units, pin_to_one_cpu)
from tracer import Tracer, layer_metrics, merge, shares

SERVE = ("serve-durable", "serve-fleet")
IN_PROCESS = ("replay-scenarios", "sim-dag")
#: a run that is not done by then is stopped, cleaned up and failed
DEADLINE_S = 170


class Stopped(BaseException):
    """A stop signal or the run deadline arrived (a BaseException, so the
    handlers that count a failed public call let it through)."""


def _stop(signum, _frame):
    raise Stopped(signal.Signals(signum).name)


def _speed_note(speed: MachineSpeed, raw: dict) -> str:
    unscaled = ", ".join(f"{k} {v:.4g}" for k, v in raw.items()
                         if k != "peak_rss_mb")
    return (f"calibration loop {median(speed.samples) * 1e3:.1f} ms "
            f"(median of {len(speed.samples)}; nominal "
            f"{NOMINAL_S * 1e3:.0f} ms); as measured: {unscaled}")


def run_serve(args, work) -> dict:
    speed = MachineSpeed()
    rounds, traced = serve_load.run_rounds(
        args.workload, args.seed, args.seconds, work, args.trace, speed)
    metrics, note = serve_load.end_to_end(rounds)
    raw, _ = serve_load.end_to_end(rounds, scaled=False)
    out = {"note": f"{note}; {_speed_note(speed, raw)}", "shares": []}
    if args.trace:
        spanned = [r for r in traced if r.spans is not None and not r.failed]
        traced_metrics, _ = serve_load.end_to_end(spanned)
        if metrics and traced_metrics:
            spans = merge([r.spans for r in spanned])
            out["shares"] = shares(spans, len(spanned),
                                   median(r.drained_s for r in spanned))
            metrics = layer_metrics(
                spans,
                passes=len(spanned),
                submits=serve_load.ROUND_SUBMITS * len(spanned),
                wait_ms=serve_load.server_wait_ms(spanned),
                journal_bytes=sum(r.journal_bytes for r in spanned),
                overhead=metrics["submits_per_s"]
                / traced_metrics["submits_per_s"] - 1.0,
            )
        else:
            metrics = {}
        out["note"] += f"; {len(spanned)} traced rounds interleaved"
        rounds = rounds + traced
    out["metrics"] = metrics
    out["attempted"] = sum(r.attempted for r in rounds)
    out["failed"] = sum(r.failed for r in rounds)
    out["problems"] = [p for r in rounds for p in r.problems]
    return out


def run_in_process(args, work) -> dict:
    speed = MachineSpeed()
    speed.mark()
    inputs, setup_s, warm = inproc.set_up(args.workload, args.seed,
                                          args.engine)
    #: (seconds as measured, scale) of each set-up
    setups = [(setup_s, speed.mark())]
    out = {"shares": [], "metrics": {}, "note": "the warm-up pass failed"}
    passes = traced = []
    if not inproc.failed(warm) and not args.trace:
        passes = inproc.timed_passes(args.workload, inputs, args.seed,
                                     args.engine, args.seconds, speed)
        for _ in range(inproc.SETUP_PROBES):
            seconds = inproc.probe_set_up(args.workload, args.seed,
                                          args.engine, work)
            setups.append((seconds, speed.mark()))
        rss = inproc.peak_rss_mb()
        nominal = [s * k for s, k in setups]
        out["metrics"], note = inproc.end_to_end(passes, median(nominal), rss)
        raw, _ = inproc.end_to_end(passes, median(s for s, _ in setups), rss,
                                   scaled=False)
        out["note"] = (f"{note}; set-ups at nominal speed "
                       f"{', '.join(f'{s:.3f}' for s in nominal)} s; "
                       f"{_speed_note(speed, raw)}")
    elif not inproc.failed(warm):
        tracer = Tracer()
        passes, traced = inproc.timed_passes(
            args.workload, inputs, args.seed, args.engine, args.seconds,
            speed, tracer)
        ok = [p for p in passes if not inproc.failed(p)]
        ok_traced = [p for p in traced if not inproc.failed(p)]
        if ok and ok_traced:
            spans = merge([tracer.to_dict()])
            out["shares"] = shares(spans, len(traced),
                                   median(p.seconds for p in ok_traced))
            out["metrics"] = layer_metrics(
                spans, passes=len(traced),
                replay_s=(inproc.per_call_median(passes)
                          if args.workload == "replay-scenarios" else {}),
                overhead=median(p.seconds * p.scale for p in ok_traced)
                / median(p.seconds * p.scale for p in ok) - 1.0,
            )
        out["note"] = (f"{len(passes)} untraced and {len(traced)} traced "
                       "passes interleaved")
    checked = [warm, *passes, *traced]
    out["failed"], out["problems"] = inproc.check(
        args.workload, inputs, args.seed, checked)
    out["attempted"] = sum(len(p.calls) for p in checked)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=SERVE + IN_PROCESS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--engine", choices=("fast", "reference"), default="fast",
        help="engine of the in-process workloads (reference: one-off "
        "attribution runs, not gated)")
    args = parser.parse_args(argv)
    if args.engine != "fast" and args.workload in SERVE:
        parser.error("--engine applies to the in-process workloads only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              "missing (run from the repository root)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        for sig in (signal.SIGTERM, signal.SIGALRM):
            signal.signal(sig, _stop)
        signal.alarm(DEADLINE_S)
        pin_to_one_cpu()
        runner = run_serve if args.workload in SERVE else run_in_process
        out = runner(args, Path(work))
    except (Stopped, KeyboardInterrupt) as exc:
        print(f"perfbench: stopped ({exc or 'SIGINT'}); children reaped",
              file=sys.stderr)
        return 130
    except Exception as exc:  # noqa: BLE001 - report the run as failed
        traceback.print_exc()
        out = {"note": "the run broke off", "shares": [], "metrics": {},
               "attempted": 1, "failed": 1,
               "problems": [f"{type(exc).__name__}: {exc}"]}
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    leftover = [t.name for t in threading.enumerate()
                if t is not threading.main_thread() and not t.daemon]
    if leftover:
        out["failed"] += 1
        out["problems"].append(f"threads left running: {leftover}")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    correct = out["failed"] == 0 and bool(out["metrics"])
    print(f"perfbench {args.workload} seed={args.seed} "
          f"engine={args.engine}: {out['note']}")
    for problem in out["problems"][:10]:
        print(f"  FAILED CHECK: {problem}")
    for name, seconds, share in out["shares"]:
        print(f"  self time {name:30s} {seconds:10.4f} s/pass "
              f"{100 * share:5.1f}%")
    for name, unit in units.items():
        print(f"  {name:32s} {out['metrics'].get(name, float('nan')):14.6g} "
              f"{unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"].get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
