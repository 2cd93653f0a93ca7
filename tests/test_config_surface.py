"""The configuration surface: one rule, one home, one wording.

A rule about a library object lives in that object, so the API and the
CLI refuse the same inputs with the same typed error; the CLI's flag
set is pinned so refactoring the flag plumbing cannot drop or rename a
flag.
"""

import argparse

import pytest

from repro.cli import _build_serve_parser, _child_serve_argv, main
from repro.errors import ServiceError
from repro.service import (
    SchedulingService,
    ServiceConfig,
    ServiceServer,
    ShardedSchedulingService,
)


class TestApiCliParity:
    def test_server_refuses_unix_path_with_port(self, capsys):
        svc = SchedulingService(ServiceConfig(capacities=(4, 2)))
        with pytest.raises(ServiceError) as exc:
            ServiceServer(svc, port=7000, unix_path="/tmp/x.sock")
        assert main(
            ["serve", "--socket", "/tmp/x.sock", "--port", "7000"]
        ) == 2
        assert capsys.readouterr().err == f"krad serve: {exc.value}\n"

    def test_sharded_service_refuses_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "t.ndjson")
        config = ServiceConfig(capacities=(4, 4), trace_path=trace)
        with pytest.raises(ServiceError) as exc:
            ShardedSchedulingService(config, 2)
        argv = ["serve", "--capacities", "4,4", "--shards", "2"]
        assert main([*argv, "--trace", trace]) == 2
        assert capsys.readouterr().err == f"krad serve: {exc.value}\n"
        assert not (tmp_path / "t.ndjson").exists()


class TestWatchdogChildArgv:
    @pytest.mark.parametrize(
        "flag", ["--supervised", "--supervise", "--superv", "--su"]
    )
    def test_child_is_never_a_watchdog(self, flag):
        # argparse accepts any unique prefix of --supervised; the child
        # must parse with supervised=False or every child is another
        # watchdog and none binds the port
        argv = [flag, "--port", "7000", "--journal", "j"]
        argv += ["--hang-timeout", "3"]
        child = _child_serve_argv(argv)
        assert _build_serve_parser().parse_args(argv).supervised
        args = _build_serve_parser().parse_args(child)
        assert not args.supervised
        assert (args.port, args.journal, args.hang_timeout) == (7000, "j", 3.0)


class _Captured(BaseException):
    """Stops a subcommand at parse time.  A BaseException, so the CLI's
    error path (which catches Exception) cannot swallow it."""


#: every parser's long option strings, in --help order (124 in all)
OPTION_STRINGS = {
    "krad": [
        "--help", "--version", "--seed", "--repeats", "--out",
        "--markdown", "--json", "--engine", "--obs-out", "--events-out",
    ],
    "faults": [
        "--help", "--capacities", "--jobs", "--seed", "--scheduler",
        "--task-fail-rate", "--kill-rate", "--max-attempts",
        "--availability", "--outage", "--max-stall-steps", "--out",
        "--engine", "--obs-out", "--events-out",
    ],
    "supervise": [
        "--help", "--capacities", "--jobs", "--seed", "--scheduler",
        "--mode", "--churn", "--journal", "--checkpoint-every",
        "--inject-violation", "--engine", "--obs-out", "--events-out",
    ],
    "recover": [
        "--help", "--seed", "--task-fail-rate", "--kill-rate",
        "--max-attempts", "--engine", "--obs-out", "--events-out",
    ],
    "serve": [
        "--help", "--capacities", "--scheduler", "--seed", "--host",
        "--port", "--socket", "--metrics-port", "--step-slice",
        "--tenant-quota", "--max-in-flight", "--retry-after",
        "--shed-horizon", "--journal", "--checkpoint-every", "--trace",
        "--churn", "--chaos-seed", "--chaos-drop", "--chaos-delay",
        "--chaos-delay-ms", "--chaos-corrupt", "--chaos-disconnect",
        "--shards", "--supervised", "--hang-timeout", "--max-restarts",
        "--recovery-deadline", "--task-fail-rate", "--kill-rate",
        "--max-attempts", "--availability", "--outage", "--engine",
        "--obs-out", "--events-out",
    ],
    "submit": [
        "--help", "--connect", "--socket", "--tenant", "--jobs", "--seed",
        "--job-file", "--release-time", "--retry", "--wait",
    ],
    "drain": ["--help", "--connect", "--socket", "--stats"],
    "shards status": ["--help", "--connect", "--socket", "--json"],
    "replay": ["--help", "--engine", "--scheduler", "--validate", "--digests"],
    "workload gen": [
        "--help", "--out", "--seed", "--jobs", "--capacities", "--scheduler",
    ],
    "arena run": [
        "--help", "--engine", "--scenarios", "--policies", "--seed",
        "--jobs", "--capacities", "--objective", "--out",
    ],
    "arena leaderboard": ["--help", "--objective"],
    "arena compare": ["--help", "--max-regression"],
}


def _parser_of(monkeypatch, argv):
    seen = []

    def capture(self, *args, **kwargs):
        seen.append(self)
        raise _Captured

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Captured):
        main(argv)
    return seen[0]


def _subparser(parser, name):
    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices[name]


@pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
def test_option_inventory(monkeypatch, command):
    words = command.split()
    if words[0] == "krad":
        parser = _parser_of(monkeypatch, [])
    else:
        parser = _parser_of(monkeypatch, words[:1])
        if words[0] in ("workload", "arena"):
            parser = _subparser(parser, words[1])
    options = [
        s for a in parser._actions for s in a.option_strings
        if s.startswith("--")
    ]
    assert options == OPTION_STRINGS[command]
