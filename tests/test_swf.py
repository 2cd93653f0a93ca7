"""Tests for the SWF (Standard Workload Format) bridge."""

import pytest

from repro.errors import WorkloadError
from repro.io import jobset_from_swf, jobset_to_swf, parse_swf
from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.schedulers import KRad
from repro.sim import simulate

SAMPLE = """\
; Synthetic mini-trace in SWF
; UnixStartTime: 0
1 0 5 100 4 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
2 10 0 50 2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
3 20 0 -1 8 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
4 30 0 200 0 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
5 40 0 10 1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
"""


class TestParse:
    def test_parses_valid_jobs_skips_failed(self):
        jobs = parse_swf(SAMPLE)
        # jobs 3 (run -1) and 4 (procs 0) dropped
        assert [j.job_id for j in jobs] == [1, 2, 5]
        assert jobs[0].run_time == 100
        assert jobs[0].processors == 4
        assert jobs[1].submit_time == 10

    def test_comments_and_blanks_ignored(self):
        assert parse_swf ("; only comments\n\n;x\n") == []

    def test_malformed_line_rejected(self):
        with pytest.raises(WorkloadError, match="fields"):
            parse_swf("1 2 3\n")
        with pytest.raises(WorkloadError):
            parse_swf("a b c d e\n")


class TestJobsetFromSwf:
    def test_lifts_to_phase_jobs(self):
        js = jobset_from_swf(
            SAMPLE, category_mix=(0.5, 0.5), time_scale=0.1
        )
        assert len(js) == 3
        assert js.num_categories == 2
        # submit times scaled
        assert js.release_times().tolist() == [0, 1, 4]
        # each job: one phase per category with positive share
        assert js[0].phases[0].work[0] > 0
        assert js[0].phases[1].work[1] > 0

    def test_zero_share_category_skipped(self):
        js = jobset_from_swf(SAMPLE, category_mix=(1.0, 0.0))
        for job in js:
            assert all(ph.work[1] == 0 for ph in job.phases)

    def test_mix_validated(self):
        with pytest.raises(WorkloadError):
            jobset_from_swf(SAMPLE, category_mix=(0.5, 0.4))
        with pytest.raises(WorkloadError):
            jobset_from_swf(SAMPLE, category_mix=(-0.5, 1.5))
        with pytest.raises(WorkloadError):
            jobset_from_swf(SAMPLE, category_mix=(1.0,), time_scale=0)

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError, match="no valid jobs"):
            jobset_from_swf("; nothing\n", category_mix=(1.0,))

    def test_max_jobs(self):
        js = jobset_from_swf(SAMPLE, category_mix=(1.0,), max_jobs=2)
        assert len(js) == 2

    def test_simulates_end_to_end(self):
        js = jobset_from_swf(
            SAMPLE, category_mix=(0.7, 0.3), time_scale=0.05
        )
        machine = KResourceMachine((8, 4))
        r = simulate(machine, KRad(), js)
        assert len(r.completion_times) == len(js)


class TestRoundTrip:
    def test_emit_and_reparse(self, rng):
        js = workloads.random_phase_jobset(rng, 1, 5, max_parallelism=4)
        text = jobset_to_swf(js, comment="round trip")
        jobs = parse_swf(text)
        assert len(jobs) == 5
        assert jobs[0].processors >= 1
        assert text.startswith("; round trip")

    def test_emitted_trace_lifts_back(self, rng):
        js = workloads.random_phase_jobset(rng, 1, 4, max_parallelism=4)
        text = jobset_to_swf(js)
        back = jobset_from_swf(text, category_mix=(1.0,))
        assert len(back) == 4
