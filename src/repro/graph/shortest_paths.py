"""Shortest paths and the all-pairs distance oracle.

The paper's preprocessing is centralized and is dominated by an
all-pairs shortest-path computation (Section 6).  This module provides:

* single-source Dijkstra (:func:`dijkstra`) returning distances and
  shortest-path-tree parents, with the deterministic tie-breaking the
  rest of the library relies on;
* :func:`shortest_path` extraction (cached: repeated queries against
  the same frozen graph reuse one tree per source, and reuse a live
  :class:`DistanceOracle` outright when one exists);
* :class:`DistanceOracle`, a cached all-pairs distance matrix with the
  roundtrip matrix ``r = d + d^T`` alongside (used by every scheme).

The oracle has two interchangeable engines:

* ``engine="vectorized"`` (the default) builds a CSR snapshot
  (:mod:`repro.graph.csr`) and computes all ``n`` sources at once with
  the numpy-batched relaxation in :mod:`repro.graph.apsp`;
* ``engine="python"`` runs the classic ``n`` heap Dijkstras and is
  kept as the differential-testing reference.

Both produce bit-identical distance, roundtrip, and parent matrices
(asserted over every standard graph family in
``tests/test_csr_apsp.py``).  The vectorized engine requires edge
weights well above the tie tolerance; the default transparently falls
back to the python engine on (pathological) graphs where that fails.

Dijkstra tie-breaking: when two paths to ``v`` have equal length, the
one whose predecessor has the smaller vertex id wins.  This makes
shortest-path trees canonical, which matters for the cluster-closure
property of the RTZ substrate (see ``repro.rtz.routing``).
"""

from __future__ import annotations

import heapq
import math
import weakref
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, NotStronglyConnectedError
from repro.graph.apsp import (
    TIE_EPS,
    apsp_matrices,
    apsp_rows,
    vectorized_engine_supported,
)
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Digraph

INF = math.inf


def dijkstra(
    g: Digraph,
    source: int,
    reverse: bool = False,
) -> Tuple[List[float], List[int]]:
    """Single-source shortest paths.

    Args:
        g: the digraph.
        source: source vertex.
        reverse: when ``True``, compute distances *into* ``source``
            (i.e. run on reversed edges); the returned parents then form
            an in-tree: ``parent[v]`` is the successor of ``v`` on a
            shortest ``v -> source`` path.

    Returns:
        ``(dist, parent)`` where ``dist[v]`` is the distance and
        ``parent[v]`` the shortest-path-tree parent (``-1`` for the
        source and for unreachable vertices).
    """
    n = g.n
    dist = [INF] * n
    parent = [-1] * n
    dist[source] = 0.0
    # heap entries: (distance, parent_id_tiebreak, vertex)
    heap: List[Tuple[float, int, int]] = [(0.0, -1, source)]
    done = [False] * n
    neighbors = g.in_neighbors if reverse else g.out_neighbors
    while heap:
        d, _tie, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for (v, w) in neighbors(u):
            nd = d + w
            if nd < dist[v] - TIE_EPS or (
                abs(nd - dist[v]) <= TIE_EPS and parent[v] > u and not done[v]
            ):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, u, v))
    return dist, parent


# ----------------------------------------------------------------------
# per-graph caches for repeated shortest_path() queries
# ----------------------------------------------------------------------
# Analysis code calls shortest_path() in per-pair loops; re-running a
# full Dijkstra per call is quadratic waste.  For frozen (immutable)
# graphs we keep one forward tree per queried source, and when a
# DistanceOracle has been built for the graph we use its cached trees
# directly.  Keys are weak so caches die with their graphs.
_TREE_CACHE: "weakref.WeakKeyDictionary[Digraph, Dict[int, Tuple[List[float], List[int]]]]" = (
    weakref.WeakKeyDictionary()
)
_ORACLE_CACHE: "weakref.WeakKeyDictionary[Digraph, weakref.ref]" = (
    weakref.WeakKeyDictionary()
)


def _cached_tree(g: Digraph, source: int) -> Tuple[List[float], List[int]]:
    """The forward Dijkstra tree from ``source``, cached for frozen
    graphs (a frozen graph's topology can no longer change)."""
    if not g.frozen:
        return dijkstra(g, source)
    trees = _TREE_CACHE.setdefault(g, {})
    tree = trees.get(source)
    if tree is None:
        tree = trees[source] = dijkstra(g, source)
    return tree


def shortest_path(g: Digraph, source: int, target: int) -> List[int]:
    """Return a shortest path ``source -> ... -> target`` as vertex ids.

    Queries against a frozen graph are served from cached trees (one
    Dijkstra per distinct source, or zero when a
    :class:`DistanceOracle` for the graph is alive), so per-pair loops
    in analysis code no longer pay a full Dijkstra per call.

    Raises:
        GraphError: if ``target`` is unreachable from ``source``.
    """
    oracle_ref = _ORACLE_CACHE.get(g)
    oracle = oracle_ref() if oracle_ref is not None else None
    if oracle is not None:
        if source == target:
            return [source]
        return oracle.path(source, target)
    dist, parent = _cached_tree(g, source)
    if dist[target] == INF:
        raise GraphError(f"vertex {target} unreachable from {source}")
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def path_length(g: Digraph, path: Sequence[int]) -> float:
    """Return the total weight of a vertex path."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += g.weight(u, v)
    return total


def _read_only_parents(parent: np.ndarray) -> np.ndarray:
    """``parent`` as a read-only int32 matrix: a view when it already is
    int32 (a memory-mapped store blob is not copied), one cast
    otherwise.  The caller's own array stays writeable."""
    parent = np.asarray(parent)
    parent = parent.astype(np.int32) if parent.dtype != np.int32 else parent.view()
    parent.flags.writeable = False
    return parent


class DistanceOracle:
    """All-pairs distances with the derived roundtrip metric.

    Computes the all-pairs solution once and caches:

    * ``d`` — the ``n x n`` one-way distance matrix (``d[u, v]`` is the
      shortest ``u -> v`` distance),
    * ``r`` — the roundtrip matrix ``r[u, v] = d[u, v] + d[v, u]``
      (Section 1.1: the minimum cost of a directed tour from ``u``
      through ``v`` back to ``u``),
    * forward shortest-path-tree parents from every source, one
      read-only ``(n, n)`` int32 matrix (row ``s`` is the out-tree
      rooted at ``s``), used to extract canonical shortest paths
      without re-running Dijkstra.

    Args:
        g: the digraph (must be strongly connected).
        engine: ``"vectorized"`` computes all sources at once over a
            CSR snapshot with numpy-batched relaxation
            (:mod:`repro.graph.apsp`); ``"python"`` runs ``n`` heap
            Dijkstras (the legacy reference); ``"auto"`` (the default)
            uses the vectorized engine whenever its tie-break is exact
            for the graph's weights (it is for anything but
            pathologically tiny weights) and the python engine
            otherwise.  All engines produce bit-identical matrices.

    Raises:
        NotStronglyConnectedError: if any pair is unreachable.
        GraphError: for an unknown ``engine``, or ``"vectorized"`` on
            a graph with weights below the engine's safe threshold.
    """

    def __init__(self, g: Digraph, engine: str = "auto"):
        if engine not in ("auto", "vectorized", "python"):
            raise GraphError(
                f"unknown DistanceOracle engine {engine!r}; "
                "choose 'auto', 'vectorized', or 'python'"
            )
        n = g.n
        self._g = g
        if engine == "auto":
            csr = CSRGraph.from_digraph(g)
            engine = "vectorized" if vectorized_engine_supported(csr) else "python"
        else:
            csr = CSRGraph.from_digraph(g) if engine == "vectorized" else None
        self._engine = engine
        if engine == "vectorized":
            d, pmat = apsp_matrices(csr)
            unreachable = np.isinf(d).any(axis=1)
            if unreachable.any():
                s = int(np.flatnonzero(unreachable)[0])
                raise NotStronglyConnectedError(
                    f"vertex unreachable from {s}; graph must be strongly connected"
                )
            self._d = d
            self._parent = _read_only_parents(pmat)
        else:
            self._d = np.empty((n, n), dtype=np.float64)
            pmat = np.empty((n, n), dtype=np.int32)
            for s in range(n):
                dist, parent = dijkstra(g, s)
                if any(x == INF for x in dist):
                    raise NotStronglyConnectedError(
                        f"vertex unreachable from {s}; graph must be strongly connected"
                    )
                self._d[s, :] = dist
                pmat[s, :] = parent
            self._parent = _read_only_parents(pmat)
        self._r = self._d + self._d.T
        if g.frozen:
            _ORACLE_CACHE[g] = weakref.ref(self)

    @classmethod
    def from_arrays(
        cls,
        g: Digraph,
        d: np.ndarray,
        parent: np.ndarray,
        engine: str = "vectorized",
    ) -> "DistanceOracle":
        """Rehydrate an oracle from stored matrices, skipping the APSP.

        This is the artifact-store load path
        (:mod:`repro.api.artifacts`): ``d`` and ``parent`` come straight
        out of a memory-mapped ``.npz`` blob, so the distance matrix is
        shared read-only between every process that loads the entry.
        The roundtrip matrix is derived with the same ``d + d.T`` the
        constructor uses, and an int32 ``parent`` (the store's blob
        dtype) is held as a read-only view, not copied — a rehydrated
        oracle is bit-identical to a fresh build (asserted in
        ``tests/test_store.py``).

        Args:
            g: the digraph the matrices were built from.
            d: ``(n, n)`` float64 one-way distance matrix.
            parent: ``(n, n)`` integer forward-tree parent matrix.
            engine: the engine recorded at build time (provenance only;
                no computation is engine-dependent here).
        """
        n = g.n
        d = np.asarray(d, dtype=np.float64)
        parent = np.asarray(parent)
        if d.shape != (n, n) or parent.shape != (n, n):
            raise GraphError(
                f"stored oracle arrays have shapes {d.shape}/{parent.shape}, "
                f"expected ({n}, {n})"
            )
        self = cls.__new__(cls)
        self._g = g
        self._engine = str(engine)
        self._d = d
        self._parent = _read_only_parents(parent)
        self._r = self._d + self._d.T
        if g.frozen:
            _ORACLE_CACHE[g] = weakref.ref(self)
        return self

    @property
    def graph(self) -> Digraph:
        """The underlying digraph."""
        return self._g

    @property
    def engine(self) -> str:
        """Which engine built this oracle (``"vectorized"`` or
        ``"python"``; ``"auto"`` resolves at construction)."""
        return self._engine

    @property
    def n(self) -> int:
        """Vertex count."""
        return self._g.n

    @property
    def d_matrix(self) -> np.ndarray:
        """The full one-way distance matrix (read-only view)."""
        return self._d

    @property
    def r_matrix(self) -> np.ndarray:
        """The full roundtrip distance matrix (read-only view)."""
        return self._r

    def d(self, u: int, v: int) -> float:
        """One-way distance ``d(u, v)``."""
        return float(self._d[u, v])

    def r(self, u: int, v: int) -> float:
        """Roundtrip distance ``r(u, v) = d(u, v) + d(v, u)``."""
        return float(self._r[u, v])

    def path(self, u: int, v: int) -> List[int]:
        """Canonical shortest path ``u -> v`` from the cached tree."""
        path = [v]
        parent = self._parent[u]
        while path[-1] != u:
            p = parent.item(path[-1])
            if p == -1:
                raise GraphError(f"no path {u} -> {v}")
            path.append(p)
        path.reverse()
        return path

    def next_hop(self, u: int, v: int) -> int:
        """First vertex after ``u`` on the canonical shortest ``u -> v``
        path (``v`` itself if adjacent on the tree)."""
        if u == v:
            raise GraphError("next_hop undefined for u == v")
        # Walk up from v until the parent is u.
        parent = self._parent[u]
        x = v
        while True:
            p = parent.item(x)
            if p == u:
                return x
            if p == -1:
                raise GraphError(f"no path {u} -> {v}")
            x = p

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """:meth:`next_hop` for every ``(sources[i], targets[i])`` pair
        at once (int64; ``sources[i] != targets[i]``): all pairs walk up
        their source's parent row together, one gather per step of the
        longest path.

        Raises:
            GraphError: if some target is unreachable from its source.
        """
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        x = dst.copy()
        up = self._parent[src, x].astype(np.int64)
        todo = np.flatnonzero(up != src)
        while todo.size:
            if (up[todo] < 0).any():
                bad = todo[up[todo] < 0][0]
                raise GraphError(f"no path {src[bad]} -> {dst[bad]}")
            x[todo] = up[todo]
            up[todo] = self._parent[src[todo], x[todo]]
            todo = todo[up[todo] != src[todo]]
        return x

    def forward_tree_parents(self, source: int) -> List[int]:
        """Parents of the canonical shortest-path out-tree rooted at
        ``source`` (``parent[v]`` precedes ``v`` on the path
        ``source -> v``)."""
        return self._parent[source].tolist()

    def parent_rows(self, sources) -> np.ndarray:
        """The canonical out-trees rooted at each of ``sources``: a
        fresh ``(len(sources), n)`` int32 array of parent rows (``-1``
        at the root)."""
        return self._parent[np.asarray(sources, dtype=np.int64).reshape(-1)]

    def in_tree_rows(self, roots) -> np.ndarray:
        """Canonical in-trees into each of ``roots``: a ``(len(roots),
        n)`` int64 array whose row ``i`` equals
        ``dijkstra(g, roots[i], reverse=True)[1]`` — the successor of
        every vertex on its canonical path into the root, ``-1`` at the
        root.

        One :func:`~repro.graph.apsp.apsp_rows` call over the reversed
        CSR snapshot (:meth:`CSRGraph.reversed_graph`).  Where the
        vectorized engine's tie-break is not exact for the graph's
        weights (:func:`vectorized_engine_supported`), the rows come
        from the python Dijkstras, as the oracle itself falls back.
        """
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        csr = CSRGraph.from_digraph(self._g)
        if vectorized_engine_supported(csr):
            return apsp_rows(csr.reversed_graph(), roots)[1]
        rows = np.empty((roots.shape[0], self.n), dtype=np.int64)
        for i, root in enumerate(roots.tolist()):
            rows[i] = dijkstra(self._g, root, reverse=True)[1]
        return rows

    def parent_matrix(self) -> np.ndarray:
        """The full ``(n, n)`` int64 canonical parent matrix (row ``s``
        is the out-tree rooted at ``s``; freshly allocated).  This is
        the array form the incremental repair protocol
        (:mod:`repro.graph.repair`) edits row-wise."""
        return self._parent.astype(np.int64)

    def diameter(self) -> float:
        """One-way diameter ``max d(u, v)``."""
        return float(self._d.max())

    def rt_diameter(self) -> float:
        """Roundtrip diameter ``max r(u, v)`` (``RTDiam`` in Section 4)."""
        return float(self._r.max())
