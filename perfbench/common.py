"""Paths, owned child processes, machine speed and statistics shared by
the workloads."""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: per-run scratch space (journals, span dumps, child logs), removed
#: after every run; the checkout is the only place a run may write
WORK_ROOT = ROOT / ".perfbench_tmp"

#: signals that interrupt a run; blocked while a child is being reaped
STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM, signal.SIGALRM}

#: seconds one :func:`calibration_s` loop takes on an unloaded vCPU of the
#: 2.1 GHz Xeon VM the benchmark was tuned on; end-to-end timings are
#: reported at this speed
NOMINAL_S = 0.030


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics of
    ``BENCHMARK.json``, in the file's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    """Environment for a child interpreter that imports ``repro`` from
    the checkout's ``src`` (the package is not installed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to the first CPU
    it may use.  The vCPUs of a shared VM change speed independently of
    each other; on one CPU a closed loop's client and server slow down
    together, and the calibration loop samples the speed they ran at."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class OwnedProcess:
    """A child started in its own process group and always reaped.

    ``with OwnedProcess(argv, log_path) as proc:`` spawns the child;
    leaving the block by any path (normal exit, failed check, timeout,
    SIGINT, SIGTERM) terminates the whole group if it still runs and
    reaps the child, with the stop signals blocked so a second signal
    cannot cut the clean-up short.  :meth:`wait` reaps a child that exits
    by itself and returns its exit code and resource usage.
    """

    def __init__(self, argv: list[str], log_path: Path) -> None:
        self.argv = argv
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.returncode: int | None = None
        self.rusage = None
        self.spawned_at = 0.0

    def __enter__(self) -> "OwnedProcess":
        # A stop signal that lands between the fork and the ``with`` body
        # would skip __exit__: hold the signals until the child is
        # recorded (the child itself starts with them unblocked).
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        try:
            with open(self.log_path, "wb") as log:
                self.spawned_at = time.perf_counter()
                self.proc = subprocess.Popen(
                    self.argv,
                    cwd=ROOT,
                    env=child_env(),
                    stdin=subprocess.DEVNULL,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    start_new_session=True,
                    preexec_fn=self._child_setup,
                )
        except BaseException:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)
            raise
        try:
            # a pending stop signal is handled inside this call
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)
        except BaseException:
            self.__exit__()
            raise
        return self

    @staticmethod
    def _child_setup() -> None:
        """Runs in the child before exec: it starts with the stop signals
        unblocked."""
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def exited(self) -> bool:
        """True once the child has exited (without reaping it)."""
        if self.returncode is not None:
            return True
        info = os.waitid(
            os.P_PID, self.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT
        )
        return info is not None

    def _reap(self, flags: int) -> bool:
        pid, status, rusage = os.wait4(self.pid, flags)
        if pid == 0:
            return False
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.rusage = rusage
        return True

    def wait(self, timeout: float) -> int:
        """Reap the child once it exits; TimeoutError after ``timeout``."""
        deadline = time.monotonic() + timeout
        while self.returncode is None:
            if self._reap(os.WNOHANG):
                break
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"child {self.argv[1:4]} still running after {timeout}s"
                )
            time.sleep(0.005)
        return self.returncode

    def log_tail(self, lines: int = 5) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])

    def __exit__(self, *exc) -> None:
        if self.proc is None or self.returncode is not None:
            return
        old = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        try:
            self._signal_group(signal.SIGTERM)
            try:
                self.wait(5.0)
            except TimeoutError:
                self._signal_group(signal.SIGKILL)
                self._reap(0)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.pid, sig)
        except ProcessLookupError:
            pass


#: iterations of one :func:`calibration_s` loop
CALIBRATION_LOOP = 200_000


def calibration_s(iterations: int = CALIBRATION_LOOP) -> float:
    """CPU seconds of the calling thread for one fixed pure-Python loop
    (CPU time, so a process that preempts the loop is not counted)."""
    t0 = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += i % 7
    return time.thread_time() - t0


def nominal_scale(samples, iterations: int = CALIBRATION_LOOP) -> float:
    """The factor that converts seconds measured while loops of
    ``iterations`` took ``samples`` seconds to seconds at
    :data:`NOMINAL_S`."""
    return (NOMINAL_S * iterations / CALIBRATION_LOOP
            / statistics.fmean(samples))


class MachineSpeed:
    """The calibration loop, timed between the steps of a run.

    A shared VM changes speed by up to 1.6x within seconds, and its mean
    speed drifts by tens of percent over minutes, as other tenants load
    the host; wall time and CPU time change alike and steal time stays
    near zero, so no clock of the run's own excludes it.  The loop slows
    with the program, so a step's seconds times the scale :meth:`mark`
    returns for it are the seconds it would have taken at
    :data:`NOMINAL_S`.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def mark(self) -> float:
        """Time the loop once and return the scale of the step since the
        previous mark (see :func:`nominal_scale`) from the loop times of
        the two marks.  The first mark only starts a step."""
        self.samples.append(calibration_s())
        return nominal_scale(self.samples[-2:])


def median(values) -> float:
    return float(statistics.median(values))


def high_percentile(values) -> tuple[float, float]:
    """The highest percentile, at most the 99th, with at least ten
    samples beyond it (nearest rank), as ``(value, percentile)``; never
    below the median: for 22 samples or fewer it is the middle sample,
    or the upper of the two."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n // 2 + 1, min((99 * n + 99) // 100, n - 10))
    return float(ordered[rank - 1]), 100.0 * rank / n
