"""A run leaves nothing behind: no ``krad serve`` child, no temp journal.

Run from the repository root with ``python -m pytest perfbench/tests``.
Each test starts the benchmark as a subprocess, watches ``/proc`` for the
children it starts, stops or finishes the run, and then requires every
child it saw to be gone and the run's work directory to be removed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import WORK_ROOT, OwnedProcess, metric_units  # noqa: E402

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)


def _children(pid: int) -> set[int]:
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.add(int(entry.name))
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _run_dirs() -> set[Path]:
    return set(WORK_ROOT.glob("*")) if WORK_ROOT.exists() else set()


def _journal_bytes(run_dirs) -> int:
    return sum(p.stat().st_size for d in run_dirs
               for p in d.glob("round*/serve.journal"))


def _bench(workload: str, seconds: int, stop=None, when=None):
    """Run the benchmark, optionally calling ``stop(benchmark process,
    children)`` once ``when(new run dirs)`` holds; returns (exit code,
    stdout, children seen, dirs)."""
    before = _run_dirs()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    seen: set[int] = set()
    dirs: set[Path] = set()
    deadline = time.monotonic() + 170
    sent = False
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            seen |= _children(proc.pid)
            dirs |= _run_dirs() - before
            if stop is not None and not sent and when(dirs):
                seen |= _children(proc.pid)
                stop(proc, _children(proc.pid))
                sent = True
            time.sleep(0.05)
        out, _err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert stop is None or sent, "the run ended before it could be stopped"
    return proc.returncode, out, seen, dirs


def _assert_clean(seen: set[int], dirs: set[Path]) -> None:
    time.sleep(0.2)
    assert seen, "the run started no child process"
    assert not [pid for pid in seen if _alive(pid)]
    assert dirs and not [d for d in dirs if d.exists()]


@pytest.mark.parametrize(
    "stop", [signal.SIGINT, signal.SIGTERM, signal.SIGALRM],
    ids=["SIGINT", "SIGTERM", "deadline"],
)
def test_stopped_mid_load_leaves_no_child(stop):
    """SIGINT, SIGTERM and the run deadline (SIGALRM) while submissions
    stream into a journaled server: every child is reaped, the journal
    directory is removed, and no result is printed."""
    code, out, seen, dirs = _bench(
        "serve-durable", 30, stop=lambda proc, _kids: proc.send_signal(stop),
        when=lambda d: _journal_bytes(d) > 100_000,
    )
    assert code != 0
    assert '"correct"' not in out
    _assert_clean(seen, dirs)


def test_lost_server_fails_the_run_and_leaves_no_child():
    """The server dies mid-load: the round's unacknowledged submissions
    and its drain count as failed, the run still prints its result (not
    correct) and exits 1, and nothing is left behind."""

    def kill_server(_proc, kids):
        for pid in kids:
            os.kill(pid, signal.SIGKILL)

    code, out, seen, dirs = _bench(
        "serve-durable", 30, stop=kill_server,
        when=lambda d: _journal_bytes(d) > 100_000,
    )
    assert code == 1, out
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"]
    # each lost submission counts, not just the round
    assert 1 < result["failed"] <= result["attempted"]
    _assert_clean(seen, dirs)


def test_completed_run_leaves_no_child():
    code, out, seen, dirs = _bench("serve-durable", 1)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(metric_units("end_to_end"))
    _assert_clean(seen, dirs)


def test_failed_check_kills_the_whole_group():
    """An exception inside the ``with`` block (a failed check) kills the
    child's process group, grandchildren included, and reaps the child."""
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
        grandchild = Path(work) / "grandchild"
        argv = ["sh", "-c", f"sleep 60 & echo $! > {grandchild}; wait"]
        with pytest.raises(RuntimeError):
            with OwnedProcess(argv, Path(work) / "log") as child:
                for _ in range(500):
                    if grandchild.exists() and grandchild.read_text():
                        break
                    time.sleep(0.01)
                gpid = int(grandchild.read_text())
                raise RuntimeError("check failed")
    _remove_empty(WORK_ROOT)
    assert child.returncode is not None
    time.sleep(0.2)
    assert not _alive(child.pid) and not _alive(gpid)


def _remove_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass  # a run still uses it

