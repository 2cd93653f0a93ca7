"""The fast simulation engine: one lean phase-array kernel.

:class:`FastSimulator` is a drop-in subclass of
:class:`~repro.sim.engine.Simulator` (select it with
``simulate(..., engine="fast")`` or ``krad --engine fast``).  It produces
**bit-identical** results — traces, metrics, digests, checkpoints — which
the differential layer in :mod:`repro.sim.conformance` and
``tests/test_conformance_fast.py`` verify; the reference engine stays the
executable specification.

The engine has exactly one kernel of its own.  At a run's first step it
decides whether the run is *lean-eligible*: the scheduler is exactly
:class:`~repro.schedulers.krad.KRad`, every job is exactly a
:class:`~repro.jobs.phase_job.PhaseJob`, and nothing consumes per-task
ids or per-job state within a step (no trace, fault model, supervisor or
``on_step`` hook) on a unit-speed machine.  Every other run executes the
reference :meth:`Simulator._step` unchanged — for DAG jobs, other
schedulers and traced runs the reference step is the faster one.  A lean
run takes exactly the reference engine's unit steps, each through two
mechanisms:

1. **Phase arrays.**  The jobs' runtime state — current-phase remaining
   work, parallelism, desire, phase index, executed counter — lives in
   one row block, one row per live job in arrival order, with an
   ``(n, K)`` column view per vector; each step's allotment matrix is
   applied with a handful of numpy operations instead of one
   ``Job.execute`` call per served job.  Rows are appended on arrival
   (only the fresh rows are read from their jobs) and compacted with
   one boolean mask on completion, so a step pays for what changed in
   it, not for every live row.  Job objects are re-synchronised from the
   arrays at completion and whenever the stepping loop returns, so
   digests, checkpoints and paused runs see exactly the reference
   engine's jobs.

2. **Vectorised K-RAD.**  Allocation runs through
   :meth:`~repro.schedulers.krad.KRad.begin_batch`: numpy kernels over the
   desire matrix (argsorts over service-sequence numbers replace per-job
   Python list scans), bit-identical to :meth:`KRad.allocate`.  The
   batch hands back the rows it served and each category's total along
   with the allotment matrix, so the step does not reduce it again.

A journaled run stays lean.  Each step ends in the reference step's
journal tail (:meth:`Simulator._journal_step`): its digest reads the live
jobs' remaining work straight from the arrays (``R`` plus each job's
precomputed future-phase work), and a checkpoint-delta record flushes
the arrays into the Job objects first, so the journal is byte-identical
to the reference engine's.  Recovery still replays through the reference
step; the first lean step after it takes over the replay's state.

Injecting a job that is not a plain ``PhaseJob`` into a lean run hands
the rest of the run to the reference step (``KRad.allocate`` materialises
the batch state).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.jobs.base import Job
from repro.jobs.phase_job import PhaseJob
from repro.schedulers.krad import KRad
from repro.sim.engine import Simulator, _fold_completions

__all__ = ["FastSimulator"]


class FastSimulator(Simulator):
    """Drop-in for :class:`~repro.sim.engine.Simulator` with a lean kernel.

    Accepts the exact constructor surface of the reference engine; the
    checkpoint/restore/recover/journal machinery is inherited unchanged
    (the state it snapshots is identical by construction, so fast and
    reference runs can even resume each other's checkpoints).
    """

    engine_name = "fast"

    #: lean eligibility: None until the first :meth:`_step` decides it;
    #: cleared for good by a non-PhaseJob
    _ft_lean: bool | None = None
    #: True while Job objects lag behind the lean-mode state arrays
    #: (only ever inside the stepping loop)
    _ft_stale = False
    #: obs-only scratch: cached ones vector for matmul column sums
    #: (3x cheaper than ``sum(axis=0)`` at the hot shapes) and a
    #: reusable ``|A - prev|`` buffer — telemetry must not allocate
    _obs_ones = None
    _obs_diffbuf = None
    #: reallocation volume owed by rows that left between two
    #: allocations (``_ft_sync`` realigns the previous-allotment matrix
    #: and banks the departed rows here; the next diff pays it out)
    _obs_realloc_carry = 0.0

    # ------------------------------------------------------------------
    def _ft_build(self) -> None:
        """Decide lean eligibility for the run and load the arrays.

        The only full load: the first lean step of a run, which after a
        journal replay takes over the replayed state.  Every later
        membership change goes through :meth:`_ft_sync`.
        """
        st = self._state
        # Strict type checks: a KRad or PhaseJob *subclass* may override
        # allocate or execute, so only the exact classes run lean.  A
        # journal does not matter: its step records read only the digest
        # (answered from the arrays).
        self._ft_lean = (
            type(self._scheduler) is KRad
            and self._max_speed == 1
            and self._fault_model is None
            and self._supervisor is None
            and self._on_step is None
            and st.trace is None
            and all(type(j) is PhaseJob for j in st.pending)
            and all(type(j) is PhaseJob for j in st.alive.values())
            and all(type(e[2]) is PhaseJob for e in st.resubmit)
        )
        if not self._ft_lean:
            return
        self._ft_jids: list[int] = list(st.alive)
        self._ft_jobs: list[Job] = list(st.alive.values())
        #: rows the completion branch emptied since the last sync
        self._ft_gone: list[int] = []
        self._ft_load(self._ft_rows(self._ft_jobs))
        self._ft_batch = self._scheduler.begin_batch(self._ft_jids)
        prev = self._obs_prev_alloc
        if prev is not None:
            # Reference steps ran first (journal replay on recovery) and
            # left a dict snapshot: realign it into the matrix form and
            # bank departed jobs in the carry, as _ft_sync does.
            n = len(self._ft_jids)
            k = self._machine.num_categories
            row = {jid: i for i, jid in enumerate(self._ft_jids)}
            P = np.zeros((n, k), dtype=np.int64)
            for jid, a in prev.items():
                if jid in row:
                    P[row[jid]] = a
                else:
                    self._obs_realloc_carry += float(np.sum(a))
            self._obs_prev_alloc = ["matrix", self._ft_jids, P]

    # ------------------------------------------------------------------
    def _ft_rows(self, jobs: list[Job]) -> np.ndarray:
        """The lean state rows of ``jobs``, read from their runtime state.

        A row is ``[R | P | D | phase, last phase, executed]``: remaining
        work of the current phase, its parallelism and the desire
        ``min(P, R)`` (``PhaseJob.desire_vector``), K columns each, then
        three scalars.
        """
        k = self._machine.num_categories
        rows = []
        for job in jobs:
            rs = job.runtime_state()
            pi = rs["phase_idx"]
            phases = job.phases
            par = [0] * k
            if pi < len(phases):
                par = phases[pi].parallelism.tolist()
            rows.append(
                rs["remaining"] + par + [0] * k
                + [pi, rs["last_phase_idx"], rs["executed_counter"]]
            )
        S = np.array(rows, dtype=np.int64).reshape(len(rows), 3 * k + 3)
        np.minimum(S[:, k : 2 * k], S[:, :k], out=S[:, 2 * k : 3 * k])
        return S

    def _ft_load(self, S: np.ndarray) -> None:
        """Install the row block ``S`` and its column views."""
        k = self._machine.num_categories
        self._ft_S = S
        self._ft_R = S[:, :k]
        self._ft_P = S[:, k : 2 * k]
        self._ft_D = S[:, 2 * k : 3 * k]
        self._ft_PI = S[:, 3 * k]
        self._ft_LPI = S[:, 3 * k + 1]
        self._ft_EC = S[:, 3 * k + 2]

    # ------------------------------------------------------------------
    def _ft_flush(self) -> None:
        """Write the lean-mode arrays back into the Job objects.

        Rows of already-completed jobs re-write identical state;
        harmless.
        """
        if not self._ft_stale:
            return
        k = self._machine.num_categories
        for job, row in zip(self._ft_jobs, self._ft_S.tolist()):
            job.restore_runtime_state(
                {
                    "phase_idx": row[3 * k],
                    "last_phase_idx": row[3 * k + 1],
                    "remaining": row[:k],
                    "executed_counter": row[3 * k + 2],
                    "completion_time": job.completion_time,
                }
            )
        self._ft_stale = False

    def _live_remaining(self) -> dict[str, list[int]]:
        if not self._ft_stale:
            return super()._live_remaining()
        # Mid-loop the arrays lead the Job objects: a live job's remaining
        # work is its R row plus its precomputed future-phase work, read
        # without a flush.  Rows that completed this step are not live.
        alive = self._state.alive
        rows = [i for i, jid in enumerate(self._ft_jids) if jid in alive]
        if not rows:
            return {}
        jobs, pi = self._ft_jobs, self._ft_PI
        future = [jobs[i]._suffix_work[pi[i] + 1] for i in rows]
        remaining = (self._ft_R[rows] + future).tolist()
        return {str(self._ft_jids[i]): w for i, w in zip(rows, remaining)}

    def _checkpoint_delta(self) -> dict:
        # A lean step writes this record mid-loop: its job snapshots need
        # the Job objects in step with the arrays.
        self._ft_flush()
        return super()._checkpoint_delta()

    # ------------------------------------------------------------------
    def _step_until(self, t_stop: float) -> None:
        # Lean steps only run inside this loop, and inside it only the
        # journal tail reads job state (the digest through the arrays, a
        # checkpoint-delta record after a flush), so writing the arrays
        # back on the way out keeps every observation — digest,
        # checkpoint, backlog, a paused run's jobs — identical to the
        # reference engine's.
        try:
            super()._step_until(t_stop)
        finally:
            self._ft_flush()

    def inject_job(self, job, *, release_time=None, meta=None):
        release = super().inject_job(
            job, release_time=release_time, meta=meta
        )
        if type(job) is not PhaseJob:
            # The rest of the run takes the reference step; its first
            # KRad.allocate materialises the batch scheduler state.
            self._ft_lean = False
        return release

    # ------------------------------------------------------------------
    def _ft_sync(self, n_fresh: int) -> None:
        """Apply the membership change since the last allocation.

        A lean live set changes in two ways only: rows leave through
        the lean step's completion branch (``_ft_gone``), and ``n_fresh``
        arrivals join through :meth:`_begin_step`.  So one boolean mask
        keeps the survivors and the arrivals are appended, reading only
        their fresh rows.  The new row order is the survivors in their
        old order, then the arrivals in arrival order — exactly
        ``st.alive``'s dict order, which the reference scheduler's
        register+prune also sees.

        Runs lazily at the next allocation after membership changed —
        the same point the reference scheduler's register+prune runs —
        so digests and checkpoints taken at the end of a step still see
        the jobs that completed during it, exactly like the reference.
        """
        st = self._state
        S = self._ft_S
        gone = self._ft_gone
        keep = None
        if gone:
            keep = np.ones(S.shape[0], dtype=bool)
            keep[gone] = False
            self._ft_gone = []
            S = S[keep]
        self._ft_jids = list(st.alive)
        self._ft_jobs = list(st.alive.values())
        if n_fresh:
            S = np.concatenate((S, self._ft_rows(self._ft_jobs[-n_fresh:])))
        self._ft_load(S)
        self._ft_batch.sync(keep, n_fresh, self._ft_jids)
        prev = self._obs_prev_alloc
        if prev is not None:
            # Align the previous-allotment matrix with the new rows so
            # the per-step realloc diff stays one aligned subtraction.
            # Fresh rows start at zero (the next diff charges their full
            # allotment); departed rows are owed |prev - 0| and bank into
            # the carry, paid out by the next diff — together exactly
            # reallocation_volume's absent-job = zero-vector convention.
            P = prev[2]
            if keep is not None:
                self._obs_realloc_carry += float(P[gone].sum())
                P = P[keep]
            if n_fresh:
                P = np.concatenate(
                    (P, np.zeros((n_fresh, P.shape[1]), dtype=np.int64))
                )
            self._obs_prev_alloc = ["matrix", self._ft_jids, P]

    # ------------------------------------------------------------------
    def _ft_check_matrix(self, A: np.ndarray, caps_t) -> None:
        """Vectorised equivalent of :func:`check_allotments`."""
        if (A < 0).any() or (A > self._ft_D).any():
            raise ScheduleError(
                "fast engine produced an allotment outside [0, desire]"
            )
        caps = np.asarray(caps_t, dtype=np.int64)
        if (A.sum(axis=0) > caps).any():
            raise ScheduleError(
                "fast engine over-subscribed a category's capacity"
            )

    # ------------------------------------------------------------------
    # observability helpers (matrix-shaped)
    # ------------------------------------------------------------------
    def _obs_realloc_matrix(self, A: np.ndarray) -> float:
        """Matrix-shaped counterpart of ``_obs_realloc_dict``.

        ``_ft_sync`` realigns the stored matrix to every membership
        change and banks departed rows in ``_obs_realloc_carry``, so the
        diff is always one aligned subtraction plus the carry.  The value
        always matches :func:`repro.sim.metrics.reallocation_volume`.
        """
        prev = self._obs_prev_alloc
        if prev is None:
            # first allocation of the run contributes nothing
            self._obs_prev_alloc = ["matrix", self._ft_jids, A]
            return 0.0
        # Swap the snapshot in place: A is freshly allocated by
        # allocate_matrix and never written after allocation, so keeping
        # it without a copy is safe.
        P = prev[2]
        prev[2] = A
        buf = self._obs_diffbuf
        if buf is None or buf.shape != A.shape:
            buf = self._obs_diffbuf = np.empty_like(A)
        np.subtract(A, P, out=buf)
        np.abs(buf, out=buf)
        carry = self._obs_realloc_carry
        if carry:
            self._obs_realloc_carry = 0.0
            return float(buf.sum()) + carry
        return float(buf.sum())

    # ------------------------------------------------------------------
    def _step(self) -> None:
        """One time step: the lean kernel, or the reference step."""
        if self._ft_lean is None:
            self._ft_build()
        if not self._ft_lean:
            super()._step()
            return
        st = self._state
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        t, arrivals, caps_t, _ = self._begin_step()

        # Membership changes apply exactly where the reference scheduler
        # runs register+prune: at allocation time.  A lean live set only
        # grows by arrivals and only shrinks by completions.
        if arrivals or self._ft_gone:
            self._ft_sync(len(arrivals))

        # Allotment matrix in, array state update out.  No per-task ids
        # exist, so nothing per-job runs in Python except the rare
        # phase-barrier / completion events.
        D = self._ft_D
        A, served, a_cols = self._ft_batch.allocate_matrix(D, caps_t)
        if self._validate:
            self._ft_check_matrix(A, caps_t)
        if prof is not None:
            prof.lap("allotment")
        # Pre-execution desire column sums — D is mutated in place
        # below for served rows, so capture the totals now.
        if obs is not None:
            ones = self._obs_ones
            if ones is None or ones.shape[0] != D.shape[0]:
                ones = self._obs_ones = np.ones(D.shape[0], dtype=np.int64)
            obs_desired = ones @ D
        progress = 0
        completions: list[int] = []
        if served.size:
            self._ft_stale = True
            progress = int(a_cols.sum())
            st.busy += a_cols
            R, P, PI = self._ft_R, self._ft_P, self._ft_PI
            A_s = A[served]
            self._ft_LPI[served] = PI[served]
            self._ft_EC[served] += A_s.sum(axis=1)
            R_s = R[served]
            R_s -= A_s
            R[served] = R_s
            D[served] = np.minimum(P[served], R_s)
            done = served[~R_s.any(axis=1)]
            for r in done.tolist():
                pi = int(PI[r]) + 1
                PI[r] = pi
                job = self._ft_jobs[r]
                if pi < len(job.phases):
                    phase = job.phases[pi]
                    R[r] = phase.work
                    P[r] = phase.parallelism
                    np.minimum(phase.parallelism, phase.work, out=D[r])
                else:
                    # completion: flush this row so the Job object is
                    # exactly what the reference engine would leave
                    jid = self._ft_jids[r]
                    job.restore_runtime_state(
                        {
                            "phase_idx": pi,
                            "last_phase_idx": int(self._ft_LPI[r]),
                            "remaining": R[r].tolist(),
                            "executed_counter": int(self._ft_EC[r]),
                            "completion_time": t,
                        }
                    )
                    st.completion[jid] = t
                    completions.append(jid)
                    del st.alive[jid]
                    self._ft_gone.append(r)
        if prof is not None:
            prof.lap("execution")

        stalled = self._account_stall(
            t, progress, progress == 0 and bool(D.any())
        )
        if completions:
            st.makespan = t
            st.history = _fold_completions(st.history, t, completions)

        if obs is not None:
            realloc = self._obs_realloc_matrix(A)
            if obs.bus.active:
                obs.bus.emit(
                    t,
                    "alloc",
                    allotments={
                        int(jid): A[i].tolist()
                        for i, jid in enumerate(self._ft_jids)
                    },
                )
            self._obs_common(
                t,
                obs_desired,
                a_cols,
                realloc,
                progress,
                len(arrivals),
                len(completions),
                stalled,
            )
        if self._journal is not None:
            self._journal_step(t)
        if prof is not None:
            prof.lap("bookkeeping")
