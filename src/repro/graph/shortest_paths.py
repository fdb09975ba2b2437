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
import time
import weakref
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, NotStronglyConnectedError
from repro.graph.apsp import (
    TIE_EPS,
    apsp_matrices,
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


class DistanceOracle:
    """All-pairs distances with the derived roundtrip metric.

    Computes the all-pairs solution once and caches:

    * ``d`` — the ``n x n`` one-way distance matrix (``d[u, v]`` is the
      shortest ``u -> v`` distance),
    * ``r`` — the roundtrip matrix ``r[u, v] = d[u, v] + d[v, u]``
      (Section 1.1: the minimum cost of a directed tour from ``u``
      through ``v`` back to ``u``),
    * forward shortest-path-tree parents from every source, used to
      extract canonical shortest paths without re-running Dijkstra.

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
            self._parent: List[List[int]] = pmat.tolist()
        else:
            self._d = np.empty((n, n), dtype=np.float64)
            self._parent = []
            for s in range(n):
                dist, parent = dijkstra(g, s)
                if any(x == INF for x in dist):
                    raise NotStronglyConnectedError(
                        f"vertex unreachable from {s}; graph must be strongly connected"
                    )
                self._d[s, :] = dist
                self._parent.append(parent)
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
        constructor uses, and ``parent`` rows are converted to the
        plain-list form the path walkers expect — a rehydrated oracle is
        bit-identical to a fresh build (asserted in
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
        self._parent = parent.tolist()
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
            p = parent[path[-1]]
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
        while parent[x] != u:
            x = parent[x]
            if x == -1:
                raise GraphError(f"no path {u} -> {v}")
        return x

    def forward_tree_parents(self, source: int) -> List[int]:
        """Parents of the canonical shortest-path out-tree rooted at
        ``source`` (``parent[v]`` precedes ``v`` on the path
        ``source -> v``)."""
        return list(self._parent[source])

    def parent_matrix(self) -> np.ndarray:
        """The full ``(n, n)`` int64 canonical parent matrix (row ``s``
        is the out-tree rooted at ``s``; freshly allocated).  This is
        the array form the incremental repair protocol
        (:mod:`repro.graph.repair`) edits row-wise."""
        return np.asarray(self._parent, dtype=np.int64)

    def cached_first_hops(self) -> "np.ndarray | None":
        """The memoized dense first-hop matrix, or ``None`` when
        :meth:`first_hop_matrix` has not run yet (repair uses this to
        decide whether there is a table worth patching)."""
        return getattr(self, "_first_hop", None)

    def seed_first_hops(self, first: np.ndarray) -> None:
        """Install a precomputed dense first-hop matrix.

        The incremental repair path builds the successor oracle's
        matrix by patching only the invalidated rows of the
        predecessor's; the result must equal what
        :meth:`first_hop_matrix` would compute from scratch (the churn
        differential suite asserts bit-identity).
        """
        first = np.asarray(first, dtype=np.int32)
        if first.shape != (self.n, self.n):
            raise GraphError(
                f"first-hop matrix has shape {first.shape}, "
                f"expected ({self.n}, {self.n})"
            )
        if first.flags.writeable:
            first = first.copy()
            first.flags.writeable = False
        self._first_hop = first

    def first_hop_matrix(self) -> np.ndarray:
        """``(n, n)`` int32 matrix of canonical first hops:
        ``F[u, v] == next_hop(u, v)`` for every ``u != v`` (``-1`` on
        the diagonal), computed by vectorized pointer doubling over the
        cached parent trees and memoized.

        This is the compiled form of full-table forwarding: the
        vectorized routing engine gathers ``F[at, dest]`` per frontier
        sweep instead of walking parent chains per packet.

        Raises :class:`~repro.exceptions.TableTooLargeError` above the
        configured dense-table threshold instead of OOMing; the blocked
        table family (:meth:`first_hop_block`) covers that regime.
        """
        from repro.graph.limits import check_dense_table

        check_dense_table(self.n, "first-hop matrix")
        cached = getattr(self, "_first_hop", None)
        if cached is not None:
            return cached
        store, store_key = self._first_hop_store_key()
        if store is not None:
            entry = store.get(store_key)
            if entry is not None and entry.arrays["first"].shape == (self.n, self.n):
                self._first_hop = entry.arrays["first"]
                return self._first_hop
        t0 = time.perf_counter()
        first = self.first_hop_block(0, self.n)
        first.flags.writeable = False
        self._first_hop = first
        if store is not None:
            store.put(
                store_key,
                {"first": first},
                meta={"engine": self._engine},
                build_seconds=time.perf_counter() - t0,
            )
        return first

    def first_hop_block(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` of :meth:`first_hop_matrix`, computed with
        ``O((hi - lo) * n)`` peak memory from the cached parent trees
        (each row is a pure function of its own tree, so the block is
        bit-identical to the corresponding dense slice)."""
        from repro.graph.blocked import first_hops_for_sources

        return first_hops_for_sources(self._parent[lo:hi], np.arange(lo, hi))

    def _first_hop_store_key(self):
        """``(store, key)`` for the persisted first-hop matrix, or
        ``(None, None)`` when persistence is off or the graph is not
        frozen.  The key is engine- and seed-free: the matrix is a pure
        function of the (content-hashed) graph."""
        if not self._g.frozen:
            return None, None
        from repro.store import StoreKey, default_store, graph_content_hash

        store = default_store()
        if store is None:
            return None, None
        key = StoreKey(
            "first-hop", 1, {"graph": graph_content_hash(self._g)}
        )
        return store, key

    def diameter(self) -> float:
        """One-way diameter ``max d(u, v)``."""
        return float(self._d.max())

    def rt_diameter(self) -> float:
        """Roundtrip diameter ``max r(u, v)`` (``RTDiam`` in Section 4)."""
        return float(self._r.max())
