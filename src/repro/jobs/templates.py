"""Named application templates: realistic job shapes with one-call builders.

The generic builders (:mod:`repro.dag.builders`) are geometry; templates
are *applications* — each models the task structure of a recognisable
parallel program on a (cpu, vector/accelerator, io) machine, with the
category roles documented.  They power the examples and give library users
realistic starting points.

All templates use categories ``CPU=0``, ``ACCEL=1``, ``IO=2`` and return
3-category DAGs; pass them to any K >= 3 machine (extra categories unused).
"""

from __future__ import annotations

import numpy as np

from repro.dag.kdag import KDag
from repro.errors import WorkloadError
from repro.jobs.jobset import JobSet

__all__ = [
    "CPU",
    "ACCEL",
    "IO",
    "mapreduce_job",
    "stencil_solver_job",
    "etl_pipeline_job",
    "training_epoch_job",
    "application_mix",
]

CPU, ACCEL, IO = 0, 1, 2
_K = 3


def mapreduce_job(mappers: int, reducers: int) -> KDag:
    """Classic two-stage MapReduce.

    IO split → ``mappers`` parallel CPU map tasks → full shuffle →
    ``reducers`` parallel CPU reduce tasks → IO commit.  The shuffle is the
    all-to-all edge set (every reducer depends on every mapper).
    """
    if mappers < 1 or reducers < 1:
        raise WorkloadError(
            f"need mappers, reducers >= 1; got {mappers}, {reducers}"
        )
    dag = KDag(_K)
    split = dag.add_vertex(IO)
    maps = dag.add_vertices(CPU, mappers)
    for m in maps:
        dag.add_edge(split, m)
    reds = dag.add_vertices(CPU, reducers)
    for m in maps:
        for r in reds:
            dag.add_edge(m, r)
    commit = dag.add_vertex(IO)
    for r in reds:
        dag.add_edge(r, commit)
    return dag


def stencil_solver_job(iterations: int, tiles: int) -> KDag:
    """An iterative stencil: per iteration, ``tiles`` accelerator tile
    updates, a CPU halo-exchange barrier, and every 4th iteration an IO
    checkpoint the next iteration waits on."""
    if iterations < 1 or tiles < 1:
        raise WorkloadError(
            f"need iterations, tiles >= 1; got {iterations}, {tiles}"
        )
    dag = KDag(_K)
    prev_barrier: int | None = None
    for it in range(iterations):
        tile_tasks = dag.add_vertices(ACCEL, tiles)
        if prev_barrier is not None:
            for t in tile_tasks:
                dag.add_edge(prev_barrier, t)
        barrier = dag.add_vertex(CPU)
        for t in tile_tasks:
            dag.add_edge(t, barrier)
        if (it + 1) % 4 == 0:
            ckpt = dag.add_vertex(IO)
            dag.add_edge(barrier, ckpt)
            barrier = ckpt
        prev_barrier = barrier
    return dag


def etl_pipeline_job(batches: int, transform_width: int) -> KDag:
    """Extract-transform-load over ``batches`` in-order batches.

    Per batch: IO extract → ``transform_width`` parallel CPU transforms →
    IO load; batch ``i``'s load precedes batch ``i+1``'s load (ordered
    writes), while extracts/transforms of later batches may overlap."""
    if batches < 1 or transform_width < 1:
        raise WorkloadError(
            f"need batches, transform_width >= 1; got {batches}, "
            f"{transform_width}"
        )
    dag = KDag(_K)
    prev_load: int | None = None
    for _ in range(batches):
        extract = dag.add_vertex(IO)
        transforms = dag.add_vertices(CPU, transform_width)
        for tr in transforms:
            dag.add_edge(extract, tr)
        load = dag.add_vertex(IO)
        for tr in transforms:
            dag.add_edge(tr, load)
        if prev_load is not None:
            dag.add_edge(prev_load, load)
        prev_load = load
    return dag


def training_epoch_job(steps: int, data_parallel: int) -> KDag:
    """One training epoch: per step, an IO batch fetch feeding
    ``data_parallel`` accelerator forward/backward shards, then a CPU
    gradient all-reduce that gates the next step.  The fetch of step
    ``i+1`` overlaps step ``i`` (prefetching)."""
    if steps < 1 or data_parallel < 1:
        raise WorkloadError(
            f"need steps, data_parallel >= 1; got {steps}, {data_parallel}"
        )
    dag = KDag(_K)
    fetches = [dag.add_vertex(IO)]
    prev_reduce: int | None = None
    for s in range(steps):
        if s + 1 < steps:
            # prefetch next batch; depends only on the previous fetch
            nxt = dag.add_vertex(IO)
            dag.add_edge(fetches[-1], nxt)
            fetches.append(nxt)
        shards = dag.add_vertices(ACCEL, data_parallel)
        for sh in shards:
            dag.add_edge(fetches[s], sh)
            if prev_reduce is not None:
                dag.add_edge(prev_reduce, sh)
        reduce_task = dag.add_vertex(CPU)
        for sh in shards:
            dag.add_edge(sh, reduce_task)
        prev_reduce = reduce_task
    return dag


def application_mix(
    rng: np.random.Generator,
    num_jobs: int,
    *,
    release_spread: int = 0,
) -> JobSet:
    """A realistic cluster mix of the four templates, randomly sized.

    With ``release_spread > 0`` arrival times are drawn uniformly from
    ``[0, release_spread]`` (sorted, first at 0); otherwise batched.
    """
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    dags = []
    for _ in range(num_jobs):
        kind = rng.integers(0, 4)
        if kind == 0:
            dags.append(
                mapreduce_job(
                    int(rng.integers(4, 16)), int(rng.integers(2, 6))
                )
            )
        elif kind == 1:
            dags.append(
                stencil_solver_job(
                    int(rng.integers(3, 9)), int(rng.integers(4, 12))
                )
            )
        elif kind == 2:
            dags.append(
                etl_pipeline_job(
                    int(rng.integers(2, 6)), int(rng.integers(3, 9))
                )
            )
        else:
            dags.append(
                training_epoch_job(
                    int(rng.integers(2, 6)), int(rng.integers(2, 8))
                )
            )
    releases = None
    if release_spread > 0:
        times = np.sort(rng.integers(0, release_spread + 1, size=num_jobs))
        times -= times[0]
        releases = times.tolist()
    return JobSet.from_dags(dags, releases)
