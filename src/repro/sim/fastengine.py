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
schedulers and traced runs the reference step is the faster one.  A lean run steps
through three mechanisms:

1. **Phase arrays.**  The jobs' runtime state — current-phase remaining
   work, parallelism, phase index, executed counter — lives in ``(n, K)``
   arrays, and the desire matrix is derived from them; each step's
   allotment matrix is applied with a handful of numpy operations instead
   of one ``Job.execute`` call per served job.  Job objects are
   re-synchronised from the arrays at completion and whenever the
   stepping loop returns, so digests, checkpoints and paused runs see
   exactly the reference engine's jobs.

2. **Vectorised K-RAD.**  Allocation runs through
   :meth:`~repro.schedulers.krad.KRad.begin_batch`: numpy kernels over the
   desire matrix (argsorts over service-sequence numbers replace per-job
   Python list scans), bit-identical to :meth:`KRad.allocate`.

3. **Quiescent-span skipping.**  After a step in which every category
   was in DEQ mode (no open round-robin cycle) and the whole desire
   matrix fits under the capacities, the next allocation is provably the
   desire matrix itself, repeated verbatim — so the engine advances
   ``s`` steps analytically in O(1): ``t += s``, ``busy += s * totals``,
   and one bulk array update.  ``s`` is the largest span in which no
   desire changes, no job completes, no arrival lands and the stepping
   loop's clock target is not passed.  Churn (capacity faults included)
   disables the skip — every unit step must see its own capacities — and
   so does a journal, which holds one digest record per unit step.

A journaled run stays lean.  Each unit step ends in the reference step's
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
        """Decide lean eligibility for the run and load the arrays."""
        st = self._state
        # Strict type checks: a KRad or PhaseJob *subclass* may override
        # allocate or execute, so only the exact classes run lean.  A
        # journal does not matter: its step records read only the digest
        # (answered from the arrays) and the quiescent skip is off under it.
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
        self._ft_jobs: list[Job] = [st.alive[j] for j in self._ft_jids]
        n = len(self._ft_jids)
        k = self._machine.num_categories
        self._ft_D = np.zeros((n, k), dtype=np.int64)
        self._ft_R = np.zeros((n, k), dtype=np.int64)
        self._ft_P = np.zeros((n, k), dtype=np.int64)
        self._ft_PI = np.zeros(n, dtype=np.int64)
        self._ft_LPI = np.zeros(n, dtype=np.int64)
        self._ft_EC = np.zeros(n, dtype=np.int64)
        for i, job in enumerate(self._ft_jobs):
            self._ft_read_row(i, job)
        self._ft_batch = self._scheduler.begin_batch(self._ft_jids)
        prev = self._obs_prev_alloc
        if prev is not None:
            # Reference steps ran first (journal replay on recovery) and
            # left a dict snapshot: realign it into the matrix form and
            # bank departed jobs in the carry, as _ft_sync does.
            row = {jid: i for i, jid in enumerate(self._ft_jids)}
            P = np.zeros((n, k), dtype=np.int64)
            for jid, a in prev.items():
                if jid in row:
                    P[row[jid]] = a
                else:
                    self._obs_realloc_carry += float(np.sum(a))
            self._obs_prev_alloc = ["matrix", self._ft_jids, P]

    # ------------------------------------------------------------------
    def _ft_read_row(self, i: int, job: Job) -> None:
        """Load one job's runtime state into row ``i`` of the lean arrays."""
        rs = job.runtime_state()
        pi = int(rs["phase_idx"])
        self._ft_PI[i] = pi
        self._ft_LPI[i] = int(rs["last_phase_idx"])
        self._ft_R[i] = rs["remaining"]
        self._ft_EC[i] = int(rs["executed_counter"])
        phases = job.phases
        if pi < len(phases):
            self._ft_P[i] = phases[pi].parallelism
        # PhaseJob.desire_vector: min(parallelism, remaining)
        np.minimum(self._ft_P[i], self._ft_R[i], out=self._ft_D[i])

    # ------------------------------------------------------------------
    def _ft_flush(self) -> None:
        """Write the lean-mode arrays back into the Job objects.

        Rows of already-completed jobs re-write identical state;
        harmless.
        """
        if not self._ft_stale:
            return
        for i, job in enumerate(self._ft_jobs):
            job.restore_runtime_state(
                {
                    "phase_idx": int(self._ft_PI[i]),
                    "last_phase_idx": int(self._ft_LPI[i]),
                    "remaining": self._ft_R[i].tolist(),
                    "executed_counter": int(self._ft_EC[i]),
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
    def _ft_sync(self) -> None:
        """Reconcile rows with the live set (arrivals/completions).

        Runs lazily at the next allocation after membership changed —
        the same point the reference scheduler's register+prune runs —
        so digests and checkpoints taken at the end of a step still see
        the jobs that completed during it, exactly like the reference.
        """
        st = self._state
        new_jids = list(st.alive)
        old_idx = {jid: i for i, jid in enumerate(self._ft_jids)}
        surv_pos: list[int] = []
        perm: list[int] = []
        fresh_pos: list[int] = []
        for pos, jid in enumerate(new_jids):
            row = old_idx.get(jid)
            if row is None:
                fresh_pos.append(pos)
            else:
                surv_pos.append(pos)
                perm.append(row)
        n = len(new_jids)

        def gather(old: np.ndarray) -> np.ndarray:
            """Surviving rows in their new positions, zeros elsewhere."""
            new = np.zeros((n,) + old.shape[1:], dtype=np.int64)
            if surv_pos:
                new[surv_pos] = old[perm]
            return new

        self._ft_D, self._ft_R, self._ft_P = (
            gather(self._ft_D),
            gather(self._ft_R),
            gather(self._ft_P),
        )
        self._ft_PI, self._ft_LPI, self._ft_EC = (
            gather(self._ft_PI),
            gather(self._ft_LPI),
            gather(self._ft_EC),
        )
        self._ft_jobs = [st.alive[jid] for jid in new_jids]
        for pos in fresh_pos:
            self._ft_read_row(pos, self._ft_jobs[pos])
        self._ft_batch.sync(surv_pos, perm, fresh_pos, new_jids)
        prev = self._obs_prev_alloc
        if prev is not None:
            # Realign the previous-allotment matrix to the new row order
            # so the per-step realloc diff stays one aligned subtraction.
            # Fresh rows start at zero (the next diff charges their full
            # allotment); departed rows are owed |prev - 0| and bank into
            # the carry, paid out by the next diff — together exactly
            # reallocation_volume's absent-job = zero-vector convention.
            P_new = gather(prev[2])
            self._obs_realloc_carry += float(
                int(prev[2].sum()) - int(P_new.sum())
            )
            self._obs_prev_alloc = ["matrix", new_jids, P_new]
        self._ft_jids = new_jids

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

    def _obs_span(self, t: int, s: int, totals: np.ndarray) -> None:
        """Credit an analytically skipped quiescent span of ``s`` steps."""
        obs = self._obs
        if obs.metrics is not None:
            obs.metrics.record_span(
                s,
                np.asarray(totals, dtype=np.int64),
                sum(self._state.last_caps),
            )
        if obs.bus.active:
            obs.bus.emit(
                t,
                "steady_span",
                steps=s,
                allocated=np.asarray(totals).tolist(),
            )

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

        # Membership reconciliation happens exactly where the reference
        # scheduler runs register+prune: at allocation time.  A lean live
        # set only grows by arrivals and only shrinks by completions.
        if arrivals or len(st.alive) != len(self._ft_jids):
            self._ft_sync()

        # Allotment matrix in, array state update out.  No per-task ids
        # exist, so nothing per-job runs in Python except the rare
        # phase-barrier / completion events.
        D = self._ft_D
        A = self._ft_batch.allocate_matrix(D, caps_t)
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
        row_tot = A.sum(axis=1)
        served = np.flatnonzero(row_tot)
        progress = int(row_tot.sum())
        completions: list[int] = []
        a_cols = None
        if served.size:
            self._ft_stale = True
            a_cols = A.sum(axis=0)
            st.busy += a_cols
            R = self._ft_R
            self._ft_LPI[served] = self._ft_PI[served]
            self._ft_EC[served] += row_tot[served]
            R[served] -= A[served]
            done = served[~R[served].any(axis=1)]
            for r in done.tolist():
                pi = int(self._ft_PI[r]) + 1
                self._ft_PI[r] = pi
                job = self._ft_jobs[r]
                if pi < len(job.phases):
                    phase = job.phases[pi]
                    R[r] = phase.work
                    self._ft_P[r] = phase.parallelism
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
            D[served] = np.minimum(self._ft_P[served], R[served])
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
                a_cols if a_cols is not None else np.zeros_like(obs_desired),
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

        # Quiescent-span skip: if this step was fully satisfied with
        # every category in DEQ mode, and no event can land before the
        # desires change, the next s steps are this step verbatim.  A
        # journal keeps unit steps: each has its own digest record.
        if (
            progress > 0
            and not arrivals
            and not completions
            and not self._faulty
            and self._journal is None
            and self._ft_batch.quiescent()
        ):
            totals = D.sum(axis=0)
            if (totals <= np.asarray(caps_t, dtype=np.int64)).all():
                mask = D > 0
                # every live PhaseJob has an active category, so the
                # entry-wise min is the span in which no desire changes
                s = int((self._ft_R[mask] // D[mask]).min()) - 1
                next_release = self._next_release()
                if next_release is not None:
                    s = min(s, next_release - t)
                s = int(min(s, self._max_steps - t, self._t_stop - t))
                if s >= 1:
                    st.t += s
                    st.busy += s * totals
                    self._ft_stale = True
                    self._ft_LPI[:] = self._ft_PI
                    self._ft_EC += s * D.sum(axis=1)
                    self._ft_R -= s * D
                    if obs is not None:
                        self._obs_span(t, s, totals)
