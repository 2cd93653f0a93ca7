"""Unit tests for the CLI entry point."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "FIG3" in out and "THM6" in out

    def test_run_fig1(self, capsys):
        assert main(["FIG1"]) == 0
        out = capsys.readouterr().out
        assert "experiment PASSED" in out

    def test_run_lowercase(self, capsys):
        assert main(["fig1"]) == 0

    def test_unknown_experiment(self, capsys):
        assert main(["BOGUS"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_lem4_accepts_seed(self, capsys):
        assert main(["LEM4", "--seed", "3"]) == 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["FIG1", "--out", str(out)]) == 0
        text = out.read_text()
        assert "FIG1" in text and "experiment PASSED" in text

    def test_extension_experiment_runs(self, capsys):
        assert main(["ABLATE"]) == 0
        assert "ablation" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "experiment, rc", [("FIG1", 0), ("BOGUS", 2)], ids=["run", "unknown"]
    )
    def test_engine_flag_leaves_process_default(self, capsys, experiment, rc):
        from repro.sim.engine import get_default_engine

        before = get_default_engine()
        other = "fast" if before == "reference" else "reference"
        assert main([experiment, "--engine", other]) == rc
        assert get_default_engine() == before


class TestCliOutputFormats:
    def test_markdown_out(self, capsys, tmp_path):
        out = tmp_path / "r.md"
        assert main(["FIG1", "--out", str(out), "--markdown"]) == 0
        text = out.read_text()
        assert "## FIG1" in text and "| quantity |" in text

    def test_json_out(self, capsys, tmp_path):
        import json

        out = tmp_path / "r.jsonl"
        assert main(["FIG1", "--out", str(out), "--json"]) == 0
        doc = json.loads(out.read_text().strip())
        assert doc["experiment_id"] == "FIG1"
        assert doc["passed"] is True
        assert isinstance(doc["checks"], dict)

    def test_report_to_dict_round_trips_json(self):
        import json

        from repro.experiments import run_experiment

        doc = run_experiment("FIG1").to_dict()
        json.dumps(doc)  # must not raise on numpy leftovers


class TestCliFlagConflicts:
    """Flag combinations that would silently ignore half the invocation
    must be rejected loudly with a one-line error."""

    def test_markdown_and_json_conflict(self, capsys):
        assert main(["FIG1", "--out", "x", "--markdown", "--json"]) == 2
        err = capsys.readouterr().err
        assert "mutually exclusive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--markdown", "--json"])
    def test_format_without_out_rejected(self, capsys, flag):
        assert main(["FIG1", flag]) == 2
        err = capsys.readouterr().err
        assert f"{flag} formats the --out file" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--repeats", "2"],
            ["--out", "x"],
            ["--engine", "fast"],
            ["--obs-out", "m.prom"],
            ["--events-out", "e.jsonl"],
        ],
    )
    def test_list_with_run_flags_rejected(self, capsys, extra):
        assert main(["list", *extra]) == 2
        err = capsys.readouterr().err
        assert "'list' runs nothing" in err
        assert extra[0] in err

    def test_faults_max_attempts_without_kill_rate(self, capsys):
        assert main(["faults", "--jobs", "3", "--max-attempts", "4"]) == 2
        err = capsys.readouterr().err
        assert "max_attempts only governs killed-job retries" in err
        assert "Traceback" not in err

    def test_supervise_checkpoint_every_without_journal(self, capsys):
        assert main(["supervise", "--checkpoint-every", "5"]) == 2
        err = capsys.readouterr().err
        assert "--checkpoint-every sets the journal's checkpoint" in err
        assert "Traceback" not in err


class TestCliObservability:
    def test_experiment_exports_metrics_and_events(self, capsys, tmp_path):
        import json

        from repro.obs import get_default_obs, parse_prometheus_text

        prom = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "FIG1",
                    "--obs-out",
                    str(prom),
                    "--events-out",
                    str(events),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"metrics: {prom}" in out
        assert f"events: {events}" in out
        samples = parse_prometheus_text(prom.read_text())
        assert samples["krad_runs_total"] > 0
        assert samples["krad_completions_total"] > 0
        kinds = {
            json.loads(line)["kind"]
            for line in events.read_text().splitlines()
        }
        assert {"run_start", "step", "run_end"} <= kinds
        assert get_default_obs() is None  # torn down after the run

    def test_fault_probe_exports_retry_counters(self, capsys, tmp_path):
        from repro.obs import parse_prometheus_text

        prom = tmp_path / "faults.prom"
        assert (
            main(
                [
                    "faults",
                    "--jobs",
                    "8",
                    "--seed",
                    "3",
                    "--kill-rate",
                    "0.05",
                    "--max-attempts",
                    "4",
                    "--obs-out",
                    str(prom),
                ]
            )
            == 0
        )
        samples = parse_prometheus_text(prom.read_text())
        assert samples["krad_job_kills_total"] > 0
        assert samples["krad_retries_total"] > 0

    def test_obs_out_into_missing_dir_rejected(self, capsys, tmp_path):
        from repro.obs import get_default_obs

        target = str(tmp_path / "no" / "dir" / "m.prom")
        assert main(["FIG1", "--obs-out", target]) == 2
        err = capsys.readouterr().err
        assert "cannot write" in err
        assert "Traceback" not in err
        assert get_default_obs() is None

    def test_failing_run_still_clears_default_obs(self, capsys, tmp_path):
        from repro.obs import get_default_obs

        assert (
            main(["faults", "--outage", "nope", "--obs-out", "m.prom"]) == 2
        )
        assert get_default_obs() is None


class TestCliAll:
    def test_all_aggregates_and_reports(self, capsys, monkeypatch):
        """Run `krad all` against a stubbed registry (fast, deterministic)."""
        from repro import cli
        from repro.experiments.common import ExperimentReport

        def make(passed):
            def run(**kwargs):
                return ExperimentReport(
                    experiment_id="STUB",
                    title="stub",
                    headers=["x"],
                    rows=[[1]],
                    checks={"c": passed},
                )

            return run

        monkeypatch.setattr(
            cli, "REGISTRY", {"A1": make(True), "A2": make(True)}
        )
        monkeypatch.setattr(
            "repro.experiments.REGISTRY",
            {"A1": make(True), "A2": make(True)},
        )
        assert cli.main(["all"]) == 0
        out = capsys.readouterr().out
        assert "ALL EXPERIMENTS PASSED" in out

    def test_all_fails_when_one_fails(self, capsys, monkeypatch):
        from repro import cli
        from repro.experiments.common import ExperimentReport

        def run_bad(**kwargs):
            return ExperimentReport(
                experiment_id="BAD",
                title="bad",
                headers=["x"],
                rows=[],
                checks={"c": False},
            )

        monkeypatch.setattr(cli, "REGISTRY", {"B1": run_bad})
        monkeypatch.setattr(
            "repro.experiments.REGISTRY", {"B1": run_bad}
        )
        assert cli.main(["all"]) == 1
        assert "SOME EXPERIMENTS FAILED" in capsys.readouterr().out


class TestFaultsSubcommand:
    def test_healthy_probe(self, capsys):
        assert main(["faults", "--jobs", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fault probe" in out
        assert "completed 4/4 jobs" in out
        assert "goodput per category" in out

    def test_task_failures_probe(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--jobs",
                    "4",
                    "--task-fail-rate",
                    "0.2",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wasted" in out

    def test_full_outage_probe(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--jobs",
                    "3",
                    "--capacities",
                    "4",
                    "--outage",
                    "6:2:0",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stall" in out

    def test_bad_outage_spec(self, capsys):
        assert main(["faults", "--outage", "nope"]) == 2
        assert "krad faults" in capsys.readouterr().err

    def test_bad_rate_rejected(self, capsys):
        assert main(["faults", "--task-fail-rate", "1.5"]) == 2
        assert "task failure rate" in capsys.readouterr().err

    def test_conflicting_fault_modes_rejected(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--outage",
                    "10:4",
                    "--availability",
                    "0.8",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "mutually exclusive" in err
        assert err.count("\n") == 1  # one-line message, no traceback
        assert "Traceback" not in err

    def test_out_into_missing_dir_rejected(self, capsys, tmp_path):
        target = str(tmp_path / "no" / "such" / "dir" / "metrics.txt")
        assert (
            main(["faults", "--jobs", "3", "--seed", "1", "--out", target])
            == 2
        )
        err = capsys.readouterr().err
        assert "cannot write" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_appends_table(self, capsys, tmp_path):
        target = str(tmp_path / "metrics.txt")
        assert (
            main(["faults", "--jobs", "3", "--seed", "1", "--out", target])
            == 0
        )
        assert "fault probe" in open(target).read()


class TestSuperviseSubcommand:
    def test_clean_supervised_run(self, capsys):
        assert main(["supervise", "--jobs", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "incident" not in out

    def test_churned_run_prints_migrations(self, capsys):
        assert (
            main(
                [
                    "supervise",
                    "--jobs",
                    "8",
                    "--seed",
                    "1",
                    "--churn",
                    "3:0:-3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "category 0 migrations" in out

    def test_injected_violation_resilient_quarantines(self, capsys):
        rc = main(
            [
                "supervise",
                "--jobs",
                "8",
                "--seed",
                "1",
                "--inject-violation",
                "2:3",
            ]
        )
        assert rc == 1  # quarantined jobs => non-zero
        out = capsys.readouterr().out
        assert "quarantined=1" in out
        assert "incident: step 2 [scripted-violation] quarantined" in out

    def test_injected_violation_strict_fails_fast(self, capsys):
        rc = main(
            [
                "supervise",
                "--jobs",
                "8",
                "--seed",
                "1",
                "--mode",
                "strict",
                "--inject-violation",
                "2:3",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "scripted-violation" in err
        assert "step 2" in err
        assert "Traceback" not in err

    def test_journal_written(self, capsys, tmp_path):
        journal = str(tmp_path / "run.journal")
        assert (
            main(
                [
                    "supervise",
                    "--jobs",
                    "5",
                    "--seed",
                    "1",
                    "--journal",
                    journal,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"journal: {journal}" in out
        from repro.sim import read_journal

        records, _, clean = read_journal(journal)
        assert clean
        assert records[-1].type == "end"

    def test_bad_churn_spec_rejected(self, capsys):
        assert main(["supervise", "--churn", "nope"]) == 2
        err = capsys.readouterr().err
        assert "STEP:CAT:DELTA" in err
        assert "Traceback" not in err

    def test_bad_injection_spec_rejected(self, capsys):
        assert main(["supervise", "--inject-violation", "7"]) == 2
        assert "STEP:JOB" in capsys.readouterr().err


class TestRecoverSubcommand:
    def test_missing_journal_rejected(self, capsys, tmp_path):
        assert main(["recover", str(tmp_path / "nope.journal")]) == 2
        err = capsys.readouterr().err
        assert "krad recover" in err
        assert "Traceback" not in err

    def test_completed_journal_rejected(self, capsys, tmp_path):
        journal = str(tmp_path / "done.journal")
        assert (
            main(
                [
                    "supervise",
                    "--jobs",
                    "4",
                    "--seed",
                    "1",
                    "--journal",
                    journal,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["recover", journal]) == 2
        assert "nothing to recover" in capsys.readouterr().err

    def test_recovers_crashed_journal(self, capsys, tmp_path):
        """Truncate a completed journal back to mid-run (drop the end
        record and the tail of the steps) and recover it."""
        import json

        journal = str(tmp_path / "crashed.journal")
        assert (
            main(
                [
                    "supervise",
                    "--jobs",
                    "6",
                    "--seed",
                    "1",
                    "--journal",
                    journal,
                    "--checkpoint-every",
                    "4",
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = open(journal, "rb").read().splitlines(keepends=True)
        kept = [
            ln
            for ln in lines
            if json.loads(ln)["type"] != "end"
        ][:-3]
        open(journal, "wb").write(b"".join(kept))
        assert main(["recover", journal]) == 0
        out = capsys.readouterr().out
        assert f"recovered from {journal}" in out
        assert "makespan" in out


    @pytest.mark.parametrize("fault", ["outage", "availability"])
    def test_recover_rebuilds_capacity_faults_from_journal(
        self, capsys, tmp_path, fault
    ):
        """Capacity faults are churn: the journal alone carries them, so
        ``recover`` takes no capacity flag and still finishes the run
        exactly as the uninterrupted one did."""
        import numpy as np

        from repro.jobs import workloads
        from repro.machine import KResourceMachine
        from repro.schedulers import KRad
        from repro.sim import Journal, Simulator
        from repro.sim.faults import RandomDegradation, periodic_outage

        machine = KResourceMachine((4, 2))
        churn = (
            periodic_outage((4, 2), 0, period=6, duration=2, degraded=0)
            if fault == "outage"
            else RandomDegradation((4, 2), availability=0.6, seed=5)
        )
        js = workloads.random_dag_jobset(
            np.random.default_rng(3), 2, 6, size_hint=12
        )
        ref = Simulator(machine, KRad(), js.fresh_copy(), churn=churn).run()
        journal = str(tmp_path / "cap.journal")
        sim = Simulator(
            machine,
            KRad(),
            js.fresh_copy(),
            churn=churn,
            journal=Journal(journal, checkpoint_every=4, fsync=False),
        )
        assert sim.run_until(5) is None
        sim._journal.close()
        with pytest.raises(SystemExit):
            main(["recover", journal, f"--{fault}", "1"])
        capsys.readouterr()
        assert main(["recover", journal]) == 0
        assert ref.summary() in capsys.readouterr().out


class TestServeCli:
    """Flag-conflict guards of the service subcommands: every bad
    combination fails fast with exit 2 and a one-line stderr, never a
    traceback."""

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            # where the library's wording replaced the CLI's, the id
            # keeps naming the flags in conflict
            pytest.param(
                ["serve", "--socket", "/tmp/x.sock", "--port", "7000"],
                "unix_path and port",
                id="argv0---socket and --port",
            ),
            (["serve", "--checkpoint-every", "5"], "--checkpoint-every"),
            (
                ["serve", "--churn", "5:0:-1", "--availability", "0.5"],
                "mutually exclusive",
            ),
            (
                ["serve", "--churn", "5:0:-1", "--outage", "10:2"],
                "mutually exclusive",
            ),
            pytest.param(
                ["serve", "--outage", "10:2", "--availability", "0.5"],
                "outage and availability",
                id="argv4---outage and --availability",
            ),
            pytest.param(
                ["serve", "--max-attempts", "3"],
                "max_attempts",
                id="argv5---max-attempts",
            ),
            (["serve", "--step-slice", "0"], "step_slice"),
            (["serve", "--tenant-quota", "0"], "tenant_quota"),
            (["serve", "--shed-horizon", "0"], "shed_horizon"),
            (["serve", "--shards", "0"], "--shards"),
            # the ids below were numbered with a tenth case that
            # refused --shards with --supervised; pinned so they stay
            pytest.param(
                ["serve", "--shards", "2", "--availability", "0.5"],
                "single-service only",
                id="argv11-single-service only",
            ),
            pytest.param(
                ["serve", "--shards", "2", "--churn", "5:0:-1"],
                "single-service only",
                id="argv12-single-service only",
            ),
            pytest.param(
                ["serve", "--capacities", "4,1", "--shards", "2"],
                "every shard needs",
                id="argv13-every shard needs",
            ),
            pytest.param(
                ["submit", "--connect", "1.2.3.4:1", "--socket", "/tmp/x"],
                "--connect and --socket",
                id="argv14---connect and --socket",
            ),
            pytest.param(
                ["submit", "--jobs", "3"],
                "where is the service",
                id="argv15-where is the service",
            ),
            pytest.param(
                ["submit", "--connect", "nocolon"],
                "HOST:PORT",
                id="argv16-HOST:PORT",
            ),
            pytest.param(
                [
                    "submit", "--connect", "1.2.3.4:1",
                    "--job-file", "x.json", "--jobs", "2",
                ],
                "pick one source",
                id="argv17-pick one source",
            ),
            pytest.param(
                ["drain", "--connect", "nope"],
                "HOST:PORT",
                id="argv18-HOST:PORT",
            ),
            pytest.param(
                ["drain"],
                "where is the service",
                id="argv19-where is the service",
            ),
            pytest.param(
                ["shards", "status", "--connect", "nope"],
                "HOST:PORT",
                id="argv20-HOST:PORT",
            ),
            pytest.param(
                ["shards", "status"],
                "where is the service",
                id="argv21-where is the service",
            ),
            pytest.param(
                ["recover", "x.journal", "--max-attempts", "2"],
                "kill_rate",
                id="argv22---kill-rate",
            ),
        ],
    )
    def test_conflicts_exit_2_one_line(self, capsys, argv, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err
        assert err.strip().count("\n") == 0

    def test_supervised_fleet_runs_under_the_watchdog(
        self, capsys, monkeypatch
    ):
        """--supervised --shards N takes the watchdog path: the child
        is the same serve command, --shards included, without
        --supervised.  No process is started."""
        import subprocess

        import repro.service

        spawned = []

        class FakeChild:
            pid = 4242

            def __init__(self, argv):
                spawned.append(argv)

        class FakeWatchdog:
            def __init__(self, spawn, probe, **kwargs):
                self.spawn = spawn

            def run(self):
                self.spawn()
                return 0

        monkeypatch.setattr(subprocess, "Popen", FakeChild)
        monkeypatch.setattr(repro.service, "Watchdog", FakeWatchdog)
        argv = [
            "serve", "--shards", "2", "--supervised",
            "--port", "7000", "--journal", "x.journal",
        ]
        assert main(argv) == 0
        assert "watchdog: child pid 4242" in capsys.readouterr().out
        [child] = spawned
        assert child[child.index("serve"):] == [
            "serve", "--shards", "2",
            "--port", "7000", "--journal", "x.journal",
        ]

    def test_submit_unreachable_service(self, capsys):
        # port 1 is never listening; transport errors are CLI errors
        assert main(["submit", "--connect", "127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert "cannot connect" in err and "Traceback" not in err

    def test_drain_unreachable_service(self, capsys):
        assert main(["drain", "--connect", "127.0.0.1:1"]) == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_shards_unreachable_service(self, capsys):
        assert main(["shards", "status", "--connect", "127.0.0.1:1"]) == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_recover_missing_journal(self, capsys):
        assert main(["recover", "/nonexistent/x.journal"]) == 2
        err = capsys.readouterr().err
        assert "krad recover:" in err and "Traceback" not in err

    def test_recover_rebuilds_fault_hooks_from_flags(self, capsys, tmp_path):
        """A service journal written under fault injection recovers when
        (and only when) the same fault flags come back."""
        import json

        journal = str(tmp_path / "svc.journal")
        from repro.obs import Observability
        from repro.service import SchedulingService, ServiceConfig
        from repro.sim import JobKiller, RetryPolicy

        cfg = ServiceConfig(
            capacities=(4, 2), seed=9, journal_path=journal
        )
        svc = SchedulingService(
            cfg,
            obs=Observability(),
            fault_model=JobKiller(0.05, seed=9),
            retry_policy=RetryPolicy(max_attempts=4),
        )
        import numpy as np

        from repro.jobs import workloads

        rng = np.random.default_rng(2)
        for job in workloads.random_phase_jobset(rng, 2, 4, max_work=20).jobs:
            assert svc.submit("t", job)["ok"]
        svc.tick()
        del svc  # crash: journal has no end record
        # exit 0 = all jobs completed, 1 = some permanently failed under
        # the injected kills; both mean the recovery itself succeeded
        assert (
            main(
                [
                    "recover", journal,
                    "--kill-rate", "0.05",
                    "--max-attempts", "4",
                    "--seed", "9",
                ]
            )
            in (0, 1)
        )
        captured = capsys.readouterr()
        assert f"recovered from {journal}" in captured.out
        # without the fault flags the digest replay must diverge loudly
        assert main(["recover", journal]) == 2
        assert "krad recover:" in capsys.readouterr().err
