"""Workload scenarios and the bit-identical trace/replay machinery.

Three layers (the arrival processes they draw from live in
:mod:`repro.jobs.workloads`):

* :mod:`repro.workloads.trace` — the versioned NDJSON workload-trace
  format: a run's submission-side record, loadable, appendable, and
  digestible;
* :mod:`repro.workloads.replay` — re-execute any trace through either
  engine and prove the replays bit-identical per step;
* :mod:`repro.workloads.scenarios` — the named scenario library
  (Zipfian tenant skew, hotspot, flash crowd, diurnal, bursty,
  heavy-tail, correlated demand, adversarial mix with faults).
"""

from repro.workloads.replay import ReplayOutcome, replay, replay_compare
from repro.workloads.scenarios import (
    SCENARIOS,
    Scenario,
    build_trace,
    correlated_phase_jobset,
    heavy_tailed_phase_jobset,
    hotspot_phase_jobset,
    scenario_names,
    zipf_tenant_weights,
)
from repro.workloads.trace import (
    TRACE_FORMAT,
    TRACE_READ_VERSIONS,
    TRACE_VERSION,
    WorkloadTrace,
    WorkloadTraceWriter,
    load_workload_trace,
    workload_trace_from_journal,
)

__all__ = [
    "ReplayOutcome",
    "replay",
    "replay_compare",
    "SCENARIOS",
    "Scenario",
    "build_trace",
    "correlated_phase_jobset",
    "heavy_tailed_phase_jobset",
    "hotspot_phase_jobset",
    "scenario_names",
    "zipf_tenant_weights",
    "TRACE_FORMAT",
    "TRACE_READ_VERSIONS",
    "TRACE_VERSION",
    "WorkloadTrace",
    "WorkloadTraceWriter",
    "load_workload_trace",
    "workload_trace_from_journal",
]
