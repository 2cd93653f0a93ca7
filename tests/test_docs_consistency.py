"""Documentation-drift guards.

A reproduction's documentation IS part of the artefact; these tests fail
when code and docs fall out of sync (new experiment not indexed, example
script not listed, promised doc file missing).
"""

import os
import re

import pytest

from repro.experiments import REGISTRY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path: str) -> str:
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


class TestExperimentIndexing:
    def test_every_experiment_in_design_md(self):
        design = read("DESIGN.md")
        missing = [k for k in REGISTRY if k not in design]
        assert not missing, f"DESIGN.md misses experiment ids: {missing}"

    def test_every_experiment_in_experiments_md(self):
        text = read("EXPERIMENTS.md")
        # PERF is bench-only QA; everything else needs a section
        missing = [
            k for k in REGISTRY if k not in text and k != "PERF"
        ]
        assert not missing, f"EXPERIMENTS.md misses: {missing}"

    def test_cli_descriptions_nonempty(self):
        from repro.cli import _DESCRIPTIONS

        for key, desc in _DESCRIPTIONS.items():
            assert desc.strip(), f"empty CLI description for {key}"


class TestExamplesListed:
    def test_readme_lists_every_example(self):
        readme = read("README.md")
        examples_dir = os.path.join(ROOT, "examples")
        for name in sorted(os.listdir(examples_dir)):
            if name.endswith(".py"):
                assert name in readme, f"README.md misses examples/{name}"

    def test_every_example_has_docstring_and_main(self):
        examples_dir = os.path.join(ROOT, "examples")
        for name in sorted(os.listdir(examples_dir)):
            if not name.endswith(".py"):
                continue
            text = read(os.path.join("examples", name))
            assert text.lstrip().startswith(
                ("#!/usr/bin/env python3", '"""')
            ), name
            assert '"""' in text, f"{name} lacks a docstring"
            assert "def main()" in text, f"{name} lacks main()"
            assert '__name__ == "__main__"' in text, name


class TestPromisedDocsExist:
    @pytest.mark.parametrize(
        "path",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "CHANGELOG.md",
            "LICENSE",
            "CITATION.cff",
            "Makefile",
            "docs/MODEL.md",
            "docs/ALGORITHMS.md",
            "docs/REPRODUCING.md",
            "docs/THEORY.md",
            "docs/WORKLOADS.md",
            "docs/API.md",
        ],
    )
    def test_exists_and_nonempty(self, path):
        assert os.path.exists(os.path.join(ROOT, path)), path
        assert len(read(path)) > 100, f"{path} suspiciously short"

    def test_readme_links_resolve(self):
        readme = read("README.md")
        for target in re.findall(r"\]\(((?:docs/)?[A-Z_]+\.md)\)", readme):
            assert os.path.exists(
                os.path.join(ROOT, target)
            ), f"README links to missing {target}"


class TestBenchCoverage:
    def test_every_experiment_has_a_bench(self):
        bench_dir = os.path.join(ROOT, "benchmarks")
        bench_text = "".join(
            read(os.path.join("benchmarks", f))
            for f in os.listdir(bench_dir)
            if f.endswith(".py")
        )
        # each registered driver module must be exercised by some bench

        for key, fn in REGISTRY.items():
            module = fn.__module__.rsplit(".", 1)[-1]
            assert module in bench_text, (
                f"experiment {key} ({module}) has no bench"
            )


class TestRejectionReasonDocs:
    """The admission rejection vocabulary and its documentation must
    agree in both directions: an undocumented wire reason is unusable,
    a documented-but-dead one is a lie."""

    def _documented_reasons(self):
        text = read("docs/SERVICE.md")
        section = text.split("## Admission control", 1)[1]
        section = section.split("\n## ", 1)[0]
        return set(re.findall(r"\*\*`([a-z][a-z-]*)`\*\*", section))

    def test_every_reason_code_documented(self):
        from repro.service import REASON_CODES

        documented = self._documented_reasons()
        for code in REASON_CODES:
            assert code in documented, (
                f"reason {code!r} is in REASON_CODES but not in the "
                "docs/SERVICE.md admission-control list"
            )

    def test_every_documented_reason_exists(self):
        from repro.service import REASON_CODES, RejectionReason

        for name in self._documented_reasons():
            assert name in REASON_CODES, (
                f"docs/SERVICE.md documents reason {name!r} which is "
                "not in repro.service.REASON_CODES"
            )
        # the enum and the tuple are the same vocabulary
        assert set(REASON_CODES) == {r.value for r in RejectionReason}


class TestServiceStateDocs:
    def test_health_table_lists_every_service_state(self):
        """docs/RUNBOOK.md's health table lists exactly the service
        states, each with its numeric code, in both directions."""
        from repro.service import SERVICE_STATES, service_state_code

        section = read("docs/RUNBOOK.md").split(
            "\n## Health and degradation", 1
        )[1]
        section = section.split("\n## ", 1)[0]
        documented = [
            (name, int(code))
            for name, code in re.findall(
                r"^\| `([a-z-]+)` \| (\d+) \|", section, re.M
            )
        ]
        assert documented == [
            (name, service_state_code(name)) for name in SERVICE_STATES
        ], (
            f"docs/RUNBOOK.md documents service states {documented}, "
            f"repro.service.SERVICE_STATES is {SERVICE_STATES}"
        )


class TestShardStateDocs:
    def test_every_shard_state_documented(self):
        """docs/SERVICE.md's sharding section lists exactly the shard
        states the supervisor can be in."""
        from repro.service import SHARD_STATES

        section = read("docs/SERVICE.md").split("\n## Sharding", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = re.findall(r"^\* \*\*`([a-z-]+)`\*\*", section, re.M)
        assert documented == list(SHARD_STATES), (
            f"docs/SERVICE.md documents shard states {documented}, "
            f"repro.service.SHARD_STATES is {SHARD_STATES}"
        )


class TestTelemetryDocs:
    """docs/OBSERVABILITY.md names exactly the event kinds and counter
    families the code emits, in both directions."""

    def test_event_table_lists_every_event_kind(self):
        from repro.obs import EVENT_KINDS

        section = read("docs/OBSERVABILITY.md").split(
            "\n## The event bus", 1
        )[1]
        section = section.split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z_]+)` \|", section, re.M)
        assert sorted(documented) == sorted(EVENT_KINDS), (
            f"docs/OBSERVABILITY.md documents event kinds {documented}, "
            f"repro.obs.EVENT_KINDS is {EVENT_KINDS}"
        )

    def test_counters_paragraph_names_every_counter_family(self):
        import numpy as np

        from repro.obs import RunMetrics

        m = RunMetrics()  # one of every recorded event
        m.record_run_start()
        m.record_step(
            desired=np.array([2]),
            allocated=np.array([1]),
            progress=1,
            arrivals=1,
            completions=1,
            stalled=True,
            realloc=1.0,
            rr_depths=[1],
            wall=1e-4,
            caps_total=2,
        )
        m.record_task_failures(1)
        m.record_job_kill()
        m.record_retry()
        m.record_job_failed()
        m.record_incident("scripted-violation", quarantined=True)
        m.record_checkpoint()
        m.record_journal("step")
        m.record_submission("tenant")
        m.record_rejection("quota")
        m.record_cancellation()
        m.record_state_change("degraded")
        m.record_run_end(
            makespan=1,
            idle_steps=1,
            utilization=[0.5],
            transitions=[{"deq_to_rr": 1}],
        )
        exported = {
            name.removeprefix("krad_")
            for name, family in m.to_dict().items()
            if family["type"] == "counter"
        }
        paragraph = read("docs/OBSERVABILITY.md").split("**Counters**", 1)[1]
        paragraph = paragraph.split("\n\n", 1)[0]
        documented = set(
            re.findall(r"`([a-z_]+_total)(?:\{[^`]*\})?`", paragraph)
        )
        assert documented == exported, (
            f"documented only: {sorted(documented - exported)}, "
            f"exported only: {sorted(exported - documented)}"
        )
