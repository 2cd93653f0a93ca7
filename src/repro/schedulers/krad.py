"""K-RAD — the paper's contribution (Section 3).

K-RAD assigns one independent :class:`~repro.schedulers.rad.RadCategoryState`
to each of the K processor categories; RAD instance ``alpha`` manages the
``alpha``-tasks of all jobs.  The per-category instances share no state: a
job can simultaneously be deep in a round-robin cycle on a scarce category
and equi-partitioned on an abundant one.

Proven guarantees (all verified empirically in ``benchmarks/``):

* makespan: ``(K + 1 - 1/Pmax)``-competitive for arbitrary release times
  (Theorem 3) — optimal, matching the Theorem 1 lower bound;
* mean response time, batched jobs: ``(4K + 1 - 4K/(n+1))``-competitive
  (Theorem 6), improving to ``(2K + 1 - 2K/(n+1))`` under light workload
  (Theorem 5) and to 3-competitive for K = 1.

Two allocation entry points share one state machine:

* :meth:`KRad.allocate` — the per-step dict interface every scheduler
  implements (the reference engine's path);
* :meth:`KRad.begin_batch` — hands out a :class:`KRadBatch`, a row-aligned
  vectorised form of the same state used by the fast engine
  (:mod:`repro.sim.fastengine`).  Both produce bit-identical allocations;
  the differential conformance suite pins that equivalence down.
"""

from __future__ import annotations

import numpy as np

from repro.machine.machine import KResourceMachine
from repro.schedulers.base import Scheduler
from repro.schedulers.deq import deq_allocate
from repro.schedulers.rad import RadCategoryState

__all__ = ["KRad", "KRadBatch"]


class _BatchCategory:
    """Vectorised twin of one :class:`RadCategoryState`.

    Queue order is represented by a per-row *service sequence number*:
    ascending ``seq`` is queue order, and moving a job to the queue back is
    assigning it the next fresh number.  Rotating served jobs in their
    original relative order therefore reproduces the list semantics of
    :meth:`RadCategoryState._rotate` exactly.
    """

    __slots__ = ("seq", "marked", "next_seq", "rotate", "transitions", "n_marked")

    def __init__(self) -> None:
        self.seq = np.empty(0, dtype=np.int64)
        self.marked = np.zeros(0, dtype=bool)
        self.next_seq = 0
        self.rotate = True
        self.transitions = dict.fromkeys(RadCategoryState.TRANSITION_KINDS, 0)
        self.n_marked = 0


class _BatchCategoryView:
    """Read-only :class:`RadCategoryState`-compatible view of a batch
    category (what monitors and diagnostics introspect mid-run)."""

    __slots__ = ("_batch", "_alpha")

    def __init__(self, batch: "KRadBatch", alpha: int) -> None:
        self._batch = batch
        self._alpha = alpha

    def in_rr_cycle(self) -> bool:
        return self._batch._cats[self._alpha].n_marked > 0

    @property
    def marked_jobs(self) -> frozenset[int]:
        c = self._batch._cats[self._alpha]
        jids = self._batch.jids
        return frozenset(jids[i] for i in np.flatnonzero(c.marked).tolist())

    @property
    def queue_order(self) -> tuple[int, ...]:
        c = self._batch._cats[self._alpha]
        jids = self._batch.jids
        return tuple(jids[i] for i in np.argsort(c.seq).tolist())

    @property
    def transitions(self) -> dict[str, int]:
        return dict(self._batch._cats[self._alpha].transitions)

    def state_dict(self) -> dict:
        return self._batch.category_dict(self._alpha)


class KRadBatch:
    """Row-aligned vectorised K-RAD state (the fast engine's substrate).

    Rows correspond, in order, to the engine's live jobs (arrival order).
    The engine owns row membership: it calls :meth:`sync` whenever the live
    set changes — which performs, in one shot, exactly what ``register`` +
    ``prune`` do on the list form — and :meth:`allocate_matrix` once per
    step with the ``(n, K)`` desire matrix.  While a batch is active it
    *is* the scheduler state; :meth:`KRad.state_dict` materialises it back
    to the canonical list form on demand, so checkpoints, digests and
    monitors see the identical structure either way.
    """

    def __init__(self, krad: "KRad", jids) -> None:
        self._krad = krad
        self.jids: list[int] = list(jids)
        n = len(self.jids)
        alive = set(self.jids)
        self._cats: list[_BatchCategory] = []
        for state in krad._states:
            c = _BatchCategory()
            c.rotate = state._rotate_enabled
            c.transitions = dict(state._transitions)
            # Seed queue order from the canonical state: known jobs keep
            # their rank (ids no longer alive are pruned), unseen jobs are
            # registered behind them in row order.
            order = [j for j in state._order if j in alive]
            seen = set(order)
            order += [j for j in self.jids if j not in seen]
            rank = {j: i for i, j in enumerate(order)}
            c.seq = np.asarray([rank[j] for j in self.jids], dtype=np.int64)
            c.next_seq = n
            marked = state._marked & alive
            c.marked = np.asarray(
                [j in marked for j in self.jids], dtype=bool
            )
            c.n_marked = len(marked)
            self._cats.append(c)

    # ------------------------------------------------------------------
    def sync(self, keep, n_fresh: int, jids: list[int]) -> None:
        """Apply one membership change to the rows, as ``prune`` +
        ``register`` do on the list form.

        ``keep`` is a boolean mask over the current rows, or ``None``
        when none departed: the rows it clears are pruned (their marks
        leave ``n_marked``), and the survivors keep their seq and mark in
        their old order.  Then ``n_fresh`` newcomers are registered at
        the queue back in row order.  ``jids`` is the new live list: the
        survivors in their old order, then the newcomers in arrival
        order.
        """
        if n_fresh:
            fresh_seq = np.arange(n_fresh)
            fresh_marked = np.zeros(n_fresh, dtype=bool)
        for c in self._cats:
            if keep is not None:
                c.seq = c.seq[keep]
                c.marked = c.marked[keep]
                if c.n_marked:
                    c.n_marked = int(np.count_nonzero(c.marked))
            if n_fresh:
                c.seq = np.concatenate((c.seq, fresh_seq + c.next_seq))
                c.marked = np.concatenate((c.marked, fresh_marked))
                c.next_seq += n_fresh
        self.jids = jids

    # ------------------------------------------------------------------
    def allocate_matrix(self, desire_matrix: np.ndarray, capacities):
        """One K-RAD step over the ``(n, K)`` desire matrix.

        Returns ``(A, served, totals)``: the ``(n, K)`` allotment matrix,
        row-aligned with :attr:`jids`, with the same values and state
        evolution as :meth:`KRad.allocate` — round-robin picks in queue
        order, then DEQ's satisfaction rounds; the ascending rows that
        received any processor; and each category's allotment total.
        DEQ rounds run through :func:`deq_allocate` so per-job integer
        remainders match the reference bit-for-bit.
        """
        n = len(self.jids)
        k = len(self._cats)
        A = np.zeros((n, k), dtype=np.int64)
        totals = np.zeros(k, dtype=np.int64)
        served = np.zeros(n, dtype=bool)
        active_mask = desire_matrix > 0
        busy = active_mask.any(axis=0).tolist()
        jids = self.jids
        for alpha, c in enumerate(self._cats):
            if not busy[alpha]:
                if c.n_marked:
                    # No active job while a cycle is open: the DEQ step
                    # that would close it is empty, but the cycle still
                    # closes and the marks clear (list form: Q empty,
                    # closing_cycle true).
                    c.transitions["rr_to_deq"] += 1
                    c.marked[:] = False
                    c.n_marked = 0
                continue
            cap = int(capacities[alpha])
            act = active_mask[:, alpha].nonzero()[0]
            seq = c.seq
            act_marked = c.marked[act]
            unmarked = act[~act_marked]
            if unmarked.size > cap:
                # Round-robin step: first `cap` unmarked actives in queue
                # order each get one processor and are marked.
                if cap > 0:
                    if c.n_marked == 0:
                        c.transitions["deq_to_rr"] += 1
                    chosen = unmarked[seq[unmarked].argsort()[:cap]]
                    c.marked[chosen] = True
                    c.n_marked += cap
                    if c.rotate:
                        seq[chosen] = np.arange(c.next_seq, c.next_seq + cap)
                        c.next_seq += cap
                    A[chosen, alpha] = 1
                    served[chosen] = True
                    totals[alpha] = cap
                continue
            # DEQ step (closing any open cycle): unmarked actives plus
            # the first min(|Q'|, cap - |Q|) marked actives, queue order.
            mact = act[act_marked]
            take = min(mact.size, cap - unmarked.size)
            closing = c.n_marked > 0
            if closing:
                c.transitions["rr_to_deq"] += 1
                c.marked[:] = False
                c.n_marked = 0
            part = unmarked[seq[unmarked].argsort()].tolist()
            if take > 0:
                part += mact[seq[mact].argsort()[:take]].tolist()
            if not part:
                continue
            col = desire_matrix[part, alpha].tolist()
            queue = [jids[r] for r in part]
            alloc = deq_allocate(queue, dict(zip(queue, col)), cap)
            served_rows: list[int] = []
            total = 0
            for r, jid in zip(part, queue):
                a = alloc.get(jid)
                if a:
                    A[r, alpha] = a
                    served_rows.append(r)
                    total += a
            if not served_rows:
                continue
            served[served_rows] = True
            totals[alpha] = total
            if closing and c.rotate:
                sr = np.asarray(served_rows)
                sr = sr[seq[sr].argsort()]
                seq[sr] = np.arange(c.next_seq, c.next_seq + sr.size)
                c.next_seq += sr.size
        return A, served.nonzero()[0], totals

    #: the one kernel under both names (``perfbench/tracer.py`` wraps
    #: each name it finds in the class dict)
    allocate = allocate_matrix

    # ------------------------------------------------------------------
    def on_resize(self, old_capacities, new_capacities) -> None:
        for alpha, c in enumerate(self._cats):
            old, new = int(old_capacities[alpha]), int(new_capacities[alpha])
            if new == old or c.n_marked == 0:
                continue
            c.transitions["rebatch" if new < old else "absorb"] += 1

    def category_dict(self, alpha: int) -> dict:
        """Materialise one category into RadCategoryState.state_dict form."""
        c = self._cats[alpha]
        order = [self.jids[i] for i in np.argsort(c.seq).tolist()]
        marked = sorted(
            self.jids[i] for i in np.flatnonzero(c.marked).tolist()
        )
        return {
            "order": order,
            "marked": marked,
            "rotate": c.rotate,
            "transitions": dict(c.transitions),
        }

    def category_view(self, alpha: int) -> _BatchCategoryView:
        return _BatchCategoryView(self, alpha)


class KRad(Scheduler):
    """One RAD scheduler per processor category (the paper's algorithm).

    ``rotate=False`` disables the FIFO queue rotation (ablation only; see
    :class:`~repro.schedulers.rad.RadCategoryState`).
    """

    name = "k-rad"

    def __init__(self, rotate: bool = True) -> None:
        super().__init__()
        self._rotate = bool(rotate)
        self._states: list[RadCategoryState] = []
        self._batch: KRadBatch | None = None

    def reset(self, machine: KResourceMachine) -> None:
        super().reset(machine)
        self._states = [
            RadCategoryState(rotate=self._rotate)
            for _ in range(machine.num_categories)
        ]
        self._batch = None

    def category_state(self, alpha: int):
        """Inspect one category's RAD state (tests/diagnostics/monitors).

        While a batch is active this returns a live read-only view of the
        vectorised state with the same introspection surface.
        """
        if self._batch is not None:
            return self._batch.category_view(alpha)
        return self._states[alpha]

    def notify_capacity_change(self, old_capacities, new_capacities):
        """Migrate each category's DEQ/RR state across a ``P_alpha`` change.

        Fired by the engine on every churn/degradation boundary.  The
        per-category RAD instance keeps its queue and marks; it records a
        re-batch (shrink mid-cycle) or an absorption (growth mid-cycle) in
        its migration ledger — see
        :meth:`~repro.schedulers.rad.RadCategoryState.on_resize`.
        """
        if self._batch is not None:
            self._batch.on_resize(old_capacities, new_capacities)
            return
        for alpha, state in enumerate(self._states):
            state.on_resize(
                int(old_capacities[alpha]), int(new_capacities[alpha])
            )

    def churn_transitions(self) -> list[dict[str, int]]:
        """Per-category DEQ<->RR transition counts (diagnostics)."""
        if self._batch is not None:
            return [dict(c.transitions) for c in self._batch._cats]
        return [s.transitions for s in self._states]

    def obs_rr_depths(self) -> list[int]:
        if self._batch is not None:
            return [c.n_marked for c in self._batch._cats]
        return [len(s._marked) for s in self._states]

    def obs_transitions(self) -> list[dict[str, int]]:
        return self.churn_transitions()

    def state_dict(self) -> dict:
        if self._batch is not None:
            return {
                "states": [
                    self._batch.category_dict(alpha)
                    for alpha in range(len(self._states))
                ]
            }
        return {"states": [s.state_dict() for s in self._states]}

    def load_state_dict(self, state: dict) -> None:
        self._batch = None
        states = state["states"]
        if len(states) != len(self._states):
            raise ValueError(
                f"checkpoint has {len(states)} category states, scheduler "
                f"has {len(self._states)}"
            )
        for s, data in zip(self._states, states):
            s.load_state_dict(data)

    # ------------------------------------------------------------------
    # batch (vectorised) entry point
    # ------------------------------------------------------------------
    def begin_batch(self, jids) -> KRadBatch:
        """Switch to the row-aligned vectorised state form.

        ``jids`` is the engine's live-job list in arrival order.  The
        returned :class:`KRadBatch` owns the state until :meth:`reset`,
        :meth:`load_state_dict` or a classic :meth:`allocate` call ends
        batch mode (materialising the state back first).
        """
        self._batch = KRadBatch(self, jids)
        return self._batch

    def _end_batch(self) -> None:
        """Materialise batch state back into the canonical list form."""
        if self._batch is None:
            return
        batch = self._batch
        self._batch = None
        for alpha, state in enumerate(self._states):
            state.load_state_dict(batch.category_dict(alpha))

    # ------------------------------------------------------------------
    def allocate(self, t, desires, jobs=None):
        if self._batch is not None:
            # A classic call while a batch is active (e.g. a tool driving
            # the scheduler directly): fall back coherently.
            self._end_batch()
        machine = self.machine
        k = machine.num_categories
        # Sparse output: jobs with an all-zero allotment are omitted (the
        # Scheduler contract allows it), which keeps per-step cost
        # proportional to the number of *served* jobs.
        out: dict[int, np.ndarray] = {}
        alive = desires.keys()
        # One tolist() per job instead of K numpy-scalar extractions per
        # job, and per-category desire maps holding only the alpha-active
        # jobs: profiling showed the K*n `int(d[alpha])` rescan — mostly
        # over jobs with zero alpha-desire — dominating large-K runs.
        # RadCategoryState reads desires via .get(j, 0) and only for
        # active jobs, so dropping the zero entries is behaviour-neutral.
        flats: list[dict[int, int]] = [{} for _ in range(k)]
        for jid, d in desires.items():
            row = d.tolist() if hasattr(d, "tolist") else list(d)
            for alpha in range(k):
                v = row[alpha]
                if v:
                    flats[alpha][jid] = int(v)
        for alpha, state in enumerate(self._states):
            state.register(alive)
            state.prune(alive)
            alloc = state.allocate(flats[alpha], machine.capacity(alpha))
            for jid, a in alloc.items():
                if a:
                    row = out.get(jid)
                    if row is None:
                        row = out[jid] = np.zeros(k, dtype=np.int64)
                    row[alpha] = a
        return out
