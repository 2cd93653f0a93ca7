"""Lower bounds and closed-form competitive ratios (Sections 4-7).

Because the true optimum ``T*`` is NP-hard, every empirical competitive
ratio in this repository divides the measured objective by the paper's own
*lower-bound certificates* — the same quantities the proofs compare against.
That makes every measured ratio an **upper bound** on the true competitive
ratio, so "measured ratio <= theorem ratio" is a sound check.

The makespan certificate also holds on a machine with per-category speeds
(``KResourceMachine(caps, speeds=...)``, the performance-heterogeneity
extension); the other bounds are the paper's unit-speed results and refuse
such a machine with a :class:`~repro.errors.ReproError` rather than return
an unsound number.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dag.kdag import KDag
from repro.errors import ReproError
from repro.jobs.base import Job
from repro.jobs.dag_job import DagJob
from repro.jobs.jobset import JobSet
from repro.machine.machine import KResourceMachine
from repro.theory.squashed import squashed_work_areas

__all__ = [
    "makespan_lower_bound",
    "weighted_span",
    "job_weighted_span",
    "time_expanded_lower_bound",
    "total_response_lower_bound",
    "mean_response_lower_bound",
    "mean_response_floor",
    "lemma2_bound",
    "theorem3_ratio",
    "theorem1_ratio",
    "theorem5_ratio",
    "theorem5_total_rt_bound",
    "theorem6_ratio",
    "k1_mean_response_ratio",
    "EDMONDS_EQUI_RATIO",
]

#: Edmonds et al. (STOC'97): EQUI is (2 + sqrt 3)-competitive for mean
#: response time on homogeneous processors — the bound RAD's 3 improves on.
EDMONDS_EQUI_RATIO = 2.0 + np.sqrt(3.0)


def _check(jobset: JobSet, machine: KResourceMachine) -> None:
    if jobset.num_categories != machine.num_categories:
        raise ReproError(
            f"job set K={jobset.num_categories} != machine "
            f"K={machine.num_categories}"
        )


def _check_unit_speeds(
    jobset: JobSet, machine: KResourceMachine, bound: str
) -> None:
    _check(jobset, machine)
    if machine.max_speed > 1:
        raise ReproError(
            f"{bound} is proved for unit speeds only; this machine runs "
            f"at speeds {machine.speeds}"
        )


# ----------------------------------------------------------------------
# makespan (Section 4)
# ----------------------------------------------------------------------
def weighted_span(dag: KDag, speeds: Sequence[int]) -> float:
    """Macro steps a dedicated machine with speeds needs for the critical
    path.

    Models the engine's micro-round structure exactly: a macro step has
    ``max(speeds)`` micro-rounds, a category-``alpha`` task may occupy any
    round ``< s_alpha``, and a successor must occupy a strictly later
    round (possibly in a later step) than its predecessor.  The DP walks
    each vertex to its earliest ``(step, round)`` completion slot in one
    topological pass (insertion order is topological for :class:`KDag`).
    Empty DAG -> 0.  Reduces to ``dag.span()`` at unit speeds.

    This is deliberately **not** ``sum 1/s_cat(v)`` over paths: a task
    enabled in an early micro-round may feed a successor in a *later*
    micro-round of the same step, so a chain of categories ``0, 1`` at
    speeds ``(1, 2)`` finishes in one step although ``1/1 + 1/2 > 1``.
    """
    if len(speeds) != dag.num_categories:
        raise ReproError(
            f"{len(speeds)} speeds for a K={dag.num_categories} DAG"
        )
    n = dag.num_vertices
    if n == 0:
        return 0.0
    steps = np.zeros(n, dtype=np.int64)
    rounds = np.zeros(n, dtype=np.int64)
    for v in range(n):
        # latest predecessor slot; sources act as if a phantom predecessor
        # finished in round -1 of step 1, i.e. they start in round 0.
        ps, pr = 1, -1
        for u in dag.predecessors(v):
            if (steps[u], rounds[u]) > (ps, pr):
                ps, pr = int(steps[u]), int(rounds[u])
        s = int(speeds[dag.category(v)])
        if pr + 1 < s:
            steps[v], rounds[v] = ps, pr + 1
        else:
            steps[v], rounds[v] = ps + 1, 0
    return float(steps.max())


def job_weighted_span(job: Job, speeds: Sequence[int]) -> float:
    """Weighted span of a job: exact for DAG jobs, conservative otherwise.

    A :class:`PhaseJob` has no explicit DAG, so it gets the safe
    ``span / max_speed``: every chain step costs at least ``1/max_s``.
    """
    if isinstance(job, DagJob):
        return weighted_span(job.dag, speeds)
    return job.span() / float(max(speeds))


def makespan_lower_bound(jobset: JobSet, machine: KResourceMachine) -> float:
    """``T*(J) >= max(max_i (r_i + T_inf(Ji)), max_alpha T1(J, alpha)/P_alpha)``.

    The first term: no schedule can finish a job before its release plus its
    critical path.  The second: category ``alpha``'s total work can at best
    be spread perfectly over ``P_alpha`` processors.

    On a machine with speeds both terms generalise: category ``alpha``
    delivers at most ``P_alpha * s_alpha`` work units per step, and the
    critical path becomes :func:`job_weighted_span`.  At unit speeds this
    is the paper's bound exactly, computed without the weighted-span DP.
    """
    _check(jobset, machine)
    work = jobset.total_work_vector()
    work_bound = float(np.max(work / machine.throughput_vector()))
    return max(_release_plus_span(jobset, machine), work_bound)


def _release_plus_span(jobset: JobSet, machine: KResourceMachine) -> float:
    """``max_i (r_i + T_inf(Ji))``, the span weighted by the machine's
    speeds when one is above 1."""
    if machine.max_speed == 1:
        return float(jobset.max_release_plus_span())
    return max(
        (
            job.release_time + job_weighted_span(job, machine.speeds)
            for job in jobset
        ),
        default=0.0,
    )


def time_expanded_lower_bound(
    jobset: JobSet, machine: KResourceMachine, schedule, horizon: int
) -> float:
    """Earliest completion any schedule could reach on a time-varying machine.

    ``schedule`` is any callable ``t -> capacities`` giving the *realized*
    per-category processor counts of ``machine`` at step ``t`` — a
    :class:`~repro.machine.churn.ChurnSchedule` (outages and random
    availability included; capacities may exceed nominal), or any other
    availability profile.

    Necessary conditions on any valid schedule of the same run: by the
    finish step ``T``, the machine has cumulatively offered at least
    ``T1(J, alpha)`` units of work in every category (``P_alpha(t) *
    s_alpha`` per step), and ``T`` is at least the release+span bound of
    :func:`makespan_lower_bound`.  The smallest ``T`` meeting both is
    therefore a sound lower bound for *every* scheduler on this (job
    set, machine, availability profile) triple — the fault/churn-aware
    generalisation of :func:`makespan_lower_bound`, to which it reduces
    when capacities are constant.
    """
    _check(jobset, machine)
    if horizon < 1:
        raise ReproError(f"horizon must be >= 1, got {horizon}")
    need = jobset.total_work_vector().astype(np.int64)
    speeds = np.asarray(machine.speeds, dtype=np.int64)
    offered = np.zeros_like(need)
    work_time = horizon  # fallback when the horizon is never enough
    for t in range(1, horizon + 1):
        offered += np.asarray(schedule(t), dtype=np.int64) * speeds
        if (offered >= need).all():
            work_time = t
            break
    return float(max(work_time, _release_plus_span(jobset, machine)))


def lemma2_bound(jobset: JobSet, machine: KResourceMachine) -> float:
    """Lemma 2's makespan guarantee for K-RAD (no idle intervals)::

        T(J) <= sum_alpha T1(J, alpha)/P_alpha
                + (1 - 1/Pmax) * max_i (T_inf(Ji) + r(Ji))
    """
    _check_unit_speeds(jobset, machine, "lemma2_bound")
    work = jobset.total_work_vector()
    caps = machine.capacity_vector()
    work_term = float(np.sum(work / caps))
    span_term = (1.0 - 1.0 / machine.pmax) * jobset.max_release_plus_span()
    return work_term + span_term


def theorem1_ratio(num_categories: int, pmax: int) -> float:
    """Theorem 1's lower bound on any deterministic online algorithm:
    ``K + 1 - 1/Pmax``."""
    if num_categories < 1 or pmax < 1:
        raise ReproError(f"need K, Pmax >= 1; got {num_categories}, {pmax}")
    return num_categories + 1.0 - 1.0 / pmax


def theorem3_ratio(num_categories: int, pmax: int) -> float:
    """Theorem 3's makespan competitiveness of K-RAD: ``K + 1 - 1/Pmax``.

    Identical to :func:`theorem1_ratio` — K-RAD matches the lower bound and
    is therefore optimal; both names exist so call sites read like the paper.
    """
    return theorem1_ratio(num_categories, pmax)


# ----------------------------------------------------------------------
# mean response time (Sections 6-7); batched job sets only
# ----------------------------------------------------------------------
def total_response_lower_bound(
    jobset: JobSet, machine: KResourceMachine
) -> float:
    """``R*(J) >= max(T_inf(J), max_alpha swa(J, alpha))`` for batched sets."""
    _check_unit_speeds(jobset, machine, "total_response_lower_bound")
    if not jobset.is_batched():
        raise ReproError(
            "the response-time lower bounds of Section 6 apply to batched "
            "job sets only"
        )
    swa = squashed_work_areas(jobset.work_matrix(), machine.capacities)
    return max(float(jobset.aggregate_span()), float(np.max(swa)))


def mean_response_lower_bound(
    jobset: JobSet, machine: KResourceMachine
) -> float:
    """``R*(J)`` lower bound divided by ``|J|``."""
    return total_response_lower_bound(jobset, machine) / len(jobset)


def mean_response_floor(
    jobset: JobSet, machine: KResourceMachine
) -> float:
    """Per-job response floor, valid for *arbitrary* release times.

    The Section-6 bounds (:func:`mean_response_lower_bound`) certify only
    batched job sets; the arena's scenario traces release jobs over time,
    so they need a certificate that holds for any release pattern.  For
    every job ``Ji`` and every schedule::

        R(Ji) = C(Ji) - r(Ji)
              >= max(T_inf(Ji), max_alpha ceil(T1(Ji, alpha) / P_alpha))

    The first term is the critical path (no schedule beats the span); the
    second holds because a single step hands ``Ji`` at most ``P_alpha``
    processors of category ``alpha``, so retiring ``T1(Ji, alpha)`` units
    of its ``alpha``-work takes at least that many whole steps.  Both are
    per-job quantities, so averaging them bounds the mean response time
    from below for every scheduler, clairvoyant or not.  Weaker than the
    squashed-area bound on batched sets (it ignores inter-job contention)
    but sound everywhere — the right denominator for empirical
    mean-response competitive ratios over trace workloads.
    """
    _check_unit_speeds(jobset, machine, "mean_response_floor")
    if len(jobset) == 0:
        raise ReproError("mean_response_floor needs a non-empty job set")
    work = jobset.work_matrix().astype(np.int64)
    caps = machine.capacity_vector().astype(np.int64)
    steps = -(-work // caps)  # ceil division, per job x category
    per_job = np.maximum(jobset.spans(), steps.max(axis=1))
    return float(per_job.mean())


def theorem5_total_rt_bound(
    jobset: JobSet, machine: KResourceMachine
) -> float:
    """Inequality (5): under light workload K-RAD's *total* response time
    satisfies ``R(J) <= (2 - 2/(n+1)) * sum_alpha swa(J, alpha) + T_inf(J)``."""
    _check_unit_speeds(jobset, machine, "theorem5_total_rt_bound")
    n = len(jobset)
    swa = squashed_work_areas(jobset.work_matrix(), machine.capacities)
    return (2.0 - 2.0 / (n + 1)) * float(swa.sum()) + float(
        jobset.aggregate_span()
    )


def theorem5_ratio(num_categories: int, num_jobs: int) -> float:
    """Theorem 5: light-workload mean-RT competitiveness
    ``2K + 1 - 2K/(n+1)``."""
    if num_categories < 1 or num_jobs < 1:
        raise ReproError(f"need K, n >= 1; got {num_categories}, {num_jobs}")
    k, n = num_categories, num_jobs
    return 2.0 * k + 1.0 - 2.0 * k / (n + 1)


def theorem6_ratio(num_categories: int, num_jobs: int) -> float:
    """Theorem 6: general batched mean-RT competitiveness
    ``4K + 1 - 4K/(n+1)``."""
    if num_categories < 1 or num_jobs < 1:
        raise ReproError(f"need K, n >= 1; got {num_categories}, {num_jobs}")
    k, n = num_categories, num_jobs
    return 4.0 * k + 1.0 - 4.0 * k / (n + 1)


def k1_mean_response_ratio(num_jobs: int) -> float:
    """The K = 1 corollary: RAD is ``3 - 2/(n+1)``-competitive — under 3 for
    every n, beating Edmonds et al.'s ``2 + sqrt 3 ~= 3.73`` for EQUI."""
    return theorem5_ratio(1, num_jobs)
