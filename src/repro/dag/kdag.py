"""The K-DAG job model (Section 2 of the paper).

A parallel job with heterogeneous tasks is a *K-color dag* (**K-DAG**): a
directed acyclic graph whose vertices each carry one of ``K`` category
colours.  An ``alpha``-vertex represents a unit-time ``alpha``-task that may
only execute on an ``alpha``-processor.  Edges encode precedence constraints
regardless of category.

This module provides the static graph container.  The *dynamically unfolding*
runtime view (ready sets, execution) lives in :mod:`repro.jobs.dag_job`; the
scheduler never sees this structure, which is what makes the algorithms
non-clairvoyant.

Categories are 0-based integers ``0..K-1`` throughout the code base (the
paper uses ``1..K``); human-readable category names are attached at the
machine level (:mod:`repro.machine`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import CategoryError, DagError

__all__ = ["KDag"]


class KDag:
    """A static K-colour DAG of unit-time tasks.

    Vertices are dense integer ids assigned in insertion order.  The graph is
    append-only: vertices and edges may be added, never removed, which keeps
    all derived arrays (category, adjacency) consistent and cheap.

    Parameters
    ----------
    num_categories:
        ``K`` — the number of task categories this DAG may use.  Vertices may
        use any subset of ``0..K-1``.

    Examples
    --------
    A two-vertex chain (a CPU task feeding an I/O task)::

        dag = KDag(num_categories=2)
        u = dag.add_vertex(0)
        v = dag.add_vertex(1)
        dag.add_edge(u, v)
        assert dag.span() == 2
    """

    __slots__ = ("_k", "_category", "_succ", "_pred", "_num_edges")

    def __init__(self, num_categories: int) -> None:
        if num_categories < 1:
            raise CategoryError(f"num_categories must be >= 1, got {num_categories}")
        self._k = int(num_categories)
        self._category: list[int] = []
        self._succ: list[list[int]] = []
        self._pred: list[list[int]] = []
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, category: int) -> int:
        """Add a unit-time task of ``category`` and return its vertex id."""
        category = int(category)
        if not 0 <= category < self._k:
            raise CategoryError(
                f"category {category} out of range for K={self._k} DAG"
            )
        vid = len(self._category)
        self._category.append(category)
        self._succ.append([])
        self._pred.append([])
        return vid

    def add_vertices(self, category: int, count: int) -> list[int]:
        """Add ``count`` vertices of the same ``category``; return their ids."""
        if count < 0:
            raise DagError(f"count must be >= 0, got {count}")
        return [self.add_vertex(category) for _ in range(count)]

    def add_edge(self, u: int, v: int) -> None:
        """Add the precedence constraint ``u`` before ``v``.

        Only forward edges (``u < v``) are accepted.  Because vertex ids are
        assigned in insertion order, this restriction makes every ``KDag``
        acyclic *by construction* — insertion order is a topological order —
        so no cycle check is ever needed.
        """
        n = len(self._category)
        if not 0 <= u < n or not 0 <= v < n:
            raise DagError(f"edge ({u}, {v}) references unknown vertex (n={n})")
        if u >= v:
            raise DagError(
                f"edge ({u}, {v}) is not forward; add vertices in a topological "
                "order and only draw edges from earlier to later vertices"
            )
        self._succ[u].append(v)
        self._pred[v].append(u)
        self._num_edges += 1

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Add every ``(u, v)`` pair in ``edges`` as a precedence edge."""
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        """``K`` — the number of categories this DAG was declared with."""
        return self._k

    @property
    def num_vertices(self) -> int:
        """Total number of unit-time tasks, ``|V|``."""
        return len(self._category)

    @property
    def num_edges(self) -> int:
        """Total number of precedence edges, ``|E|``."""
        return self._num_edges

    def category(self, v: int) -> int:
        """Category colour of vertex ``v``."""
        return self._category[v]

    def categories(self) -> np.ndarray:
        """Category of every vertex as an ``int64`` array indexed by id."""
        return np.asarray(self._category, dtype=np.int64)

    def successors(self, v: int) -> Sequence[int]:
        """Vertices that directly depend on ``v`` (read-only view)."""
        return tuple(self._succ[v])

    def predecessors(self, v: int) -> Sequence[int]:
        """Vertices that ``v`` directly depends on (read-only view)."""
        return tuple(self._pred[v])

    def out_degree(self, v: int) -> int:
        return len(self._succ[v])

    def in_degree(self, v: int) -> int:
        return len(self._pred[v])

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (used to seed the ready set)."""
        return np.asarray([len(p) for p in self._pred], dtype=np.int64)

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids in insertion (topological) order."""
        return iter(range(len(self._category)))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges as ``(u, v)`` pairs."""
        for u, succs in enumerate(self._succ):
            for v in succs:
                yield (u, v)

    def sources(self) -> list[int]:
        """Vertices with no predecessors (initially ready tasks)."""
        return [v for v in range(len(self._category)) if not self._pred[v]]

    def sinks(self) -> list[int]:
        """Vertices with no successors."""
        return [v for v in range(len(self._category)) if not self._succ[v]]

    # ------------------------------------------------------------------
    # work and span (Section 2 definitions)
    # ------------------------------------------------------------------
    def work(self, category: int) -> int:
        """``T1(J, alpha)`` — number of ``category`` vertices in the DAG."""
        if not 0 <= category < self._k:
            raise CategoryError(f"category {category} out of range for K={self._k}")
        return sum(1 for c in self._category if c == category)

    def work_vector(self) -> np.ndarray:
        """``T1(J, alpha)`` for every ``alpha`` as a length-K array."""
        counts = np.zeros(self._k, dtype=np.int64)
        for c in self._category:
            counts[c] += 1
        return counts

    def total_work(self) -> int:
        """Total number of vertices across all categories."""
        return len(self._category)

    def span(self) -> int:
        """``T_inf(J)`` — number of vertices on the longest precedence chain.

        A single isolated vertex has span 1 (tasks are unit time).  The empty
        DAG has span 0.
        """
        return int(self.depth_to_sink().max(initial=0))

    def depth_from_source(self) -> np.ndarray:
        """Longest chain *ending* at each vertex, counted in vertices.

        ``depth_from_source[v]`` is the earliest step at which ``v`` could
        possibly execute under unlimited processors (1-based).
        """
        n = len(self._category)
        depth = np.zeros(n, dtype=np.int64)
        # Insertion order is topological, so a single forward sweep suffices.
        for v in range(n):
            best = 0
            for u in self._pred[v]:
                if depth[u] > best:
                    best = depth[u]
            depth[v] = best + 1
        return depth

    def depth_to_sink(self) -> np.ndarray:
        """Longest chain *starting* at each vertex, counted in vertices.

        This is the vertex's *remaining critical path*: the clairvoyant
        priority used by the critical-path-first execution policy, and the
        quantity the Theorem-1 adversary minimises.
        """
        n = len(self._category)
        depth = np.zeros(n, dtype=np.int64)
        for v in range(n - 1, -1, -1):
            best = 0
            for w in self._succ[v]:
                if depth[w] > best:
                    best = depth[w]
            depth[v] = best + 1
        return depth

    def critical_path(self) -> list[int]:
        """One longest precedence chain, as a list of vertex ids.

        Ties are broken toward the smallest vertex id, making the result
        deterministic.  Returns ``[]`` for the empty DAG.
        """
        n = len(self._category)
        if n == 0:
            return []
        depth = self.depth_to_sink()
        v = int(np.argmax(depth))  # np.argmax returns the first maximum
        path = [v]
        while self._succ[v]:
            nxt = None
            for w in sorted(self._succ[v]):
                if depth[w] == depth[v] - 1:
                    nxt = w
                    break
            if nxt is None:  # pragma: no cover - depth invariant guarantees next
                break
            path.append(nxt)
            v = nxt
        return path

    # ------------------------------------------------------------------
    # structure checks & dunder helpers
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raise :class:`DagError` on failure.

        The construction API already guarantees acyclicity (forward edges
        only); this re-checks the invariants so externally manipulated or
        deserialised graphs can be vetted.
        """
        n = len(self._category)
        if len(self._succ) != n or len(self._pred) != n:
            raise DagError("adjacency arrays out of sync with vertex count")
        for c in self._category:
            if not 0 <= c < self._k:
                raise DagError(f"vertex category {c} out of range for K={self._k}")
        edge_count = 0
        for u in range(n):
            for v in self._succ[u]:
                edge_count += 1
                if u >= v:
                    raise DagError(f"non-forward edge ({u}, {v})")
                if u not in self._pred[v]:
                    raise DagError(f"edge ({u}, {v}) missing reverse link")
        if edge_count != self._num_edges:
            raise DagError("edge count out of sync")

    def __len__(self) -> int:
        return len(self._category)

    def __repr__(self) -> str:
        return (
            f"KDag(K={self._k}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, work={self.work_vector().tolist()})"
        )
