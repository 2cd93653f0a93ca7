#!/usr/bin/env python3
"""Scenario: what if the vector units are 4x faster? (extension)

The paper's model is purely *functional* heterogeneity — every processor of
a category runs at unit speed.  Its concluding remarks pose performance +
functional heterogeneity as the open challenge; a machine built with
`KResourceMachine(caps, speeds=...)` explores it: each category gets an
integer speed, and an allotted processor chains through up to that many
dependent tasks per step.

This script takes one workload and sweeps speed profiles for the same
physical processor counts, showing how K-RAD — which never sees the speeds
— exploits faster categories anyway (its desires shrink faster there), and
how the generalised lower bound (work/throughput + weighted span) tracks
the measured makespans.

Run:  python examples/speed_heterogeneity.py
"""

import numpy as np

from repro import KRad
from repro.analysis import format_table
from repro.dag import dag_stats
from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.sim import simulate
from repro.theory import makespan_lower_bound


def main() -> None:
    caps = (8, 4, 2)
    names = ("cpu", "vector", "io")
    rng = np.random.default_rng(11)
    jobset = workloads.random_dag_jobset(rng, 3, 16, size_hint=25)
    print(f"workload: {jobset}")
    from repro.jobs import DagJob

    sample = next(j for j in jobset if isinstance(j, DagJob))
    print(f"sample job stats: {dag_stats(sample.dag)}\n")

    profiles = {
        "baseline (paper model)": (1, 1, 1),
        "vector 4x": (1, 4, 1),
        "io 4x": (1, 1, 4),
        "cpu 2x + vector 4x": (2, 4, 1),
        "everything 2x": (2, 2, 2),
    }
    rows = []
    base_makespan = None
    for label, speeds in profiles.items():
        machine = KResourceMachine(caps, names=names, speeds=speeds)
        result = simulate(machine, KRad(), jobset)
        lb = makespan_lower_bound(jobset, machine)
        if base_makespan is None:
            base_makespan = result.makespan
        rows.append(
            [
                label,
                str(speeds),
                result.makespan,
                base_makespan / result.makespan,
                lb,
                result.makespan / lb,
            ]
        )
    print(
        format_table(
            ["profile", "speeds", "makespan", "speedup", "LB", "vs LB"],
            rows,
            title=f"K-RAD on {caps} processors under different speed profiles",
        )
    )
    print(
        "\nThe scheduler is identical (and speed-oblivious) in every row; "
        "the speedups come\npurely from faster categories draining their "
        "desires sooner."
    )


if __name__ == "__main__":
    main()
