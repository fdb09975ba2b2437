"""Immutable CSR (compressed-sparse-row) adjacency for a digraph.

The pure-Python :class:`~repro.graph.digraph.Digraph` stores adjacency
as per-vertex lists of ``(head, weight)`` tuples — convenient for
construction and for the fixed-port forwarding interface, but hostile
to the numpy-batched relaxation kernels in :mod:`repro.graph.apsp`.
:class:`CSRGraph` snapshots that topology once into flat arrays:

* the *out* representation (``out_indptr``/``out_heads``/``out_weights``)
  lists every edge grouped by tail, and
* the *in* representation (``in_indptr``/``in_tails``/``in_weights``)
  lists every edge grouped by head, with ``in_targets`` giving the head
  vertex of each slot (the segment id, materialized for vectorized
  gathers).

All arrays are marked read-only so a :class:`CSRGraph` can be shared
freely between oracles, benchmarks, and analysis code.  The snapshot is
taken at construction time: mutating an unfrozen :class:`Digraph`
afterwards does not update the CSR view (the same contract the
distance oracle has always had).
"""

from __future__ import annotations

import weakref
from itertools import chain
from typing import List, Tuple

import numpy as np

from repro.graph.digraph import Digraph

# One snapshot per frozen graph: a frozen Digraph's topology can never
# change, so its CSR form is built once and shared (the key is weak so
# snapshots die with their graphs).
_SNAPSHOT_CACHE: "weakref.WeakKeyDictionary[Digraph, CSRGraph]" = (
    weakref.WeakKeyDictionary()
)

# Edge weights as a PairTable, one per snapshot: the O(m) lookup the
# vectorized engine charges per-sweep hop costs through.
_PAIR_LOOKUP_CACHE: "weakref.WeakKeyDictionary[CSRGraph, PairTable]" = (
    weakref.WeakKeyDictionary()
)

# Fixed ports as PairTables, one pair per frozen graph: the vectorized
# Digraph.port_of and Digraph.head_of_port of the array-built tables.
_PORT_CACHE: "weakref.WeakKeyDictionary[Digraph, tuple]" = (
    weakref.WeakKeyDictionary()
)

# The edge-reversed snapshot, one per snapshot: the in-tree kernel
# (DistanceOracle.in_tree_rows) runs the forward APSP over it.
_REVERSED_CACHE: "weakref.WeakKeyDictionary[CSRGraph, CSRGraph]" = (
    weakref.WeakKeyDictionary()
)


class PairTable:
    """A sparse ``(n, n)`` table stored as sorted ``row * n + col``
    int64 keys with aligned ``values``.

    ``table[rows, cols]`` gathers like the dense matrix it stands in
    for — ``values`` where the pair is stored, ``missing`` elsewhere —
    by binary search, in O(entries) memory.  Keys are unique and
    sorted, so the form is canonical: store round-trips rehydrate the
    same bytes.
    """

    __slots__ = ("n", "keys", "values", "missing")

    def __init__(self, n: int, keys: np.ndarray, values: np.ndarray, missing=-1):
        self.n = int(n)
        self.keys = keys
        self.values = values
        self.missing = missing

    @classmethod
    def from_entries(
        cls, n: int, keys: np.ndarray, values: np.ndarray, missing=-1
    ) -> "PairTable":
        """Pack entries ``keys[i] -> values[i]`` given in any order.
        Repeated keys collapse to one entry (callers give them equal
        values)."""
        order = np.argsort(keys)
        keys = keys[order]
        first = np.ones(keys.shape[0], dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return cls(n, keys[first], values[order][first], missing)

    @property
    def nbytes(self) -> int:
        """Bytes held by the keys and values."""
        return int(self.keys.nbytes) + int(self.values.nbytes)

    def __getitem__(self, index) -> np.ndarray:
        rows, cols = index
        queries = (
            np.asarray(rows, dtype=np.int64) * np.int64(self.n)
            + np.asarray(cols, dtype=np.int64)
        )
        if self.keys.shape[0] == 0:
            return np.full(queries.shape[0], self.missing, self.values.dtype)
        pos = np.searchsorted(self.keys, queries)
        np.minimum(pos, self.keys.shape[0] - 1, out=pos)
        return np.where(self.keys[pos] == queries, self.values[pos], self.missing)

    def get(self, row: int, col: int):
        """``table[row, col]`` for one pair, as a Python scalar (one
        binary search; a column outside ``[0, n)`` is absent)."""
        if not 0 <= col < self.n:
            return self.missing
        key = row * self.n + col
        keys = self.keys
        pos = int(keys.searchsorted(key))
        if pos < keys.shape[0] and keys.item(pos) == key:
            return self.values.item(pos)
        return self.missing


def _port_lookups(g: Digraph) -> "tuple[PairTable, PairTable]":
    """``(port by tail * n + head, head by tail * stride + port)``,
    built once per frozen graph from :meth:`Digraph.edges`."""
    cached = _PORT_CACHE.get(g)
    if cached is None:
        edges = np.array(
            [(e.tail, e.head, e.port) for e in g.edges()], dtype=np.int64
        ).reshape(-1, 3)
        tails, heads, ports = edges.T
        stride = int(ports.max()) + 1 if ports.size else 1
        cached = _PORT_CACHE[g] = (
            PairTable.from_entries(g.n, tails * np.int64(g.n) + heads, ports),
            PairTable.from_entries(stride, tails * np.int64(stride) + ports, heads),
        )
    return cached


def _lookup(table: PairTable, n: int, rows, cols) -> np.ndarray:
    """``table[rows, cols]``, ``-1`` wherever a row is not one of the
    ``n`` vertices or a column is outside the key stride: there the
    key ``row * stride + col`` would alias another row's entry."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    ok = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < table.n)
    found = table[np.where(ok, rows, 0), np.where(ok, cols, 0)]
    return np.where(ok, found, -1)


def edge_ports(g: Digraph, tails, heads) -> np.ndarray:
    """:meth:`Digraph.port_of` for every ``(tails[i], heads[i])`` at
    once (int64, ``-1`` where ``g`` has no such edge), by binary search
    over one O(m) table per frozen graph."""
    return _lookup(_port_lookups(g)[0], g.n, tails, heads)


def port_heads(g: Digraph, tails, ports) -> np.ndarray:
    """:meth:`Digraph.head_of_port` for every ``(tails[i], ports[i])``
    at once (int64, ``-1`` where the tail has no such port)."""
    return _lookup(_port_lookups(g)[1], g.n, tails, ports)


def _adjacency_arrays(rows: List[List[Tuple[int, float]]]):
    """``(indptr, ends, weights)`` of per-vertex ``[(end, weight), ...]``
    lists, each vertex's entries in list order."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    flat = list(chain.from_iterable(rows))
    ends = np.array([end for end, _ in flat], dtype=np.int64)
    weights = np.array([w for _, w in flat], dtype=np.float64)
    return indptr, ends, weights


class CSRGraph:
    """Read-only CSR snapshot of a :class:`Digraph`.

    Build via :meth:`from_digraph`; the constructor takes the raw
    arrays (already validated) and freezes them.

    Attributes:
        n: vertex count.
        m: directed edge count.
        out_indptr: ``(n + 1,)`` int64; out-edges of ``u`` occupy slots
            ``out_indptr[u]:out_indptr[u + 1]``.
        out_heads: ``(m,)`` int64 edge heads, grouped by tail.
        out_weights: ``(m,)`` float64 edge weights, aligned with
            ``out_heads``.
        in_indptr: ``(n + 1,)`` int64; in-edges of ``v`` occupy slots
            ``in_indptr[v]:in_indptr[v + 1]``.
        in_tails: ``(m,)`` int64 edge tails, grouped by head.
        in_weights: ``(m,)`` float64 edge weights, aligned with
            ``in_tails``.
        in_targets: ``(m,)`` int64; ``in_targets[e]`` is the head
            vertex owning in-slot ``e`` (i.e. ``v`` for every slot in
            ``in_indptr[v]:in_indptr[v + 1]``).
    """

    __slots__ = (
        "n",
        "m",
        "out_indptr",
        "out_heads",
        "out_weights",
        "in_indptr",
        "in_tails",
        "in_weights",
        "in_targets",
        "_source",
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        out_indptr: np.ndarray,
        out_heads: np.ndarray,
        out_weights: np.ndarray,
        in_indptr: np.ndarray,
        in_tails: np.ndarray,
        in_weights: np.ndarray,
    ):
        self.n = n
        self.m = int(out_heads.shape[0])
        self.out_indptr = out_indptr
        self.out_heads = out_heads
        self.out_weights = out_weights
        self.in_indptr = in_indptr
        self.in_tails = in_tails
        self.in_weights = in_weights
        self.in_targets = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(in_indptr)
        )
        self._source: "weakref.ref[Digraph] | None" = None
        for name in (
            "out_indptr",
            "out_heads",
            "out_weights",
            "in_indptr",
            "in_tails",
            "in_weights",
            "in_targets",
        ):
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_digraph(cls, g: Digraph) -> "CSRGraph":
        """Snapshot ``g``'s topology into CSR form.

        Works on frozen and unfrozen graphs alike (only the adjacency
        is read, never ports).  Frozen graphs are immutable, so their
        snapshot is built once and cached; unfrozen graphs get a fresh
        snapshot per call.
        """
        if g.frozen:
            cached = _SNAPSHOT_CACHE.get(g)
            if cached is None:
                cached = _SNAPSHOT_CACHE[g] = cls._build(g)
                cached._source = weakref.ref(g)
            return cached
        snap = cls._build(g)
        snap._source = weakref.ref(g)
        return snap

    @classmethod
    def _build(cls, g: Digraph) -> "CSRGraph":
        n = g.n
        out_indptr, out_heads, out_weights = _adjacency_arrays(
            [g.out_neighbors(u) for u in range(n)]
        )
        in_indptr, in_tails, in_weights = _adjacency_arrays(
            [g.in_neighbors(u) for u in range(n)]
        )
        return cls(
            n, out_indptr, out_heads, out_weights,
            in_indptr, in_tails, in_weights,
        )

    # ------------------------------------------------------------------
    # topology mutation
    # ------------------------------------------------------------------
    @property
    def source(self) -> Digraph:
        """The :class:`Digraph` this snapshot was taken from.

        Raises:
            GraphError: when the snapshot was built directly from raw
                arrays, or its source graph has been garbage-collected.
        """
        from repro.exceptions import GraphError

        ref = self._source
        g = ref() if ref is not None else None
        if g is None:
            raise GraphError(
                "this CSRGraph has no live source Digraph; build the "
                "snapshot via CSRGraph.from_digraph and keep the graph "
                "alive to use apply_delta"
            )
        return g

    def apply_delta(self, delta) -> "CSRGraph":
        """Snapshot of the source graph with ``delta`` applied.

        Delegates to :meth:`Digraph.apply_delta` (ports live on the
        Digraph, and the delta's port-preservation rules are defined
        there) and returns the CSR snapshot of the resulting frozen
        graph.  Retrieve that graph via :attr:`source` on the result.
        """
        return CSRGraph.from_digraph(self.source.apply_delta(delta))

    def reversed_graph(self) -> "CSRGraph":
        """The snapshot with every edge reversed: the out and in arrays
        swapped, built once per snapshot.  A shortest path from ``v`` in
        the reversed graph is a shortest path into ``v`` here, with each
        vertex's in-edges in this snapshot's order."""
        rev = _REVERSED_CACHE.get(self)
        if rev is None:
            rev = _REVERSED_CACHE[self] = CSRGraph(
                self.n, self.in_indptr, self.in_tails, self.in_weights,
                self.out_indptr, self.out_heads, self.out_weights,
            )
        return rev

    # ------------------------------------------------------------------
    # convenience queries (primarily for tests and debugging)
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Per-vertex out-degree array (freshly allocated)."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Per-vertex in-degree array (freshly allocated)."""
        return np.diff(self.in_indptr)

    def out_edges(self, u: int):
        """``(heads, weights)`` views of ``u``'s out-edges."""
        lo, hi = int(self.out_indptr[u]), int(self.out_indptr[u + 1])
        return self.out_heads[lo:hi], self.out_weights[lo:hi]

    def in_edges(self, v: int):
        """``(tails, weights)`` views of ``v``'s in-edges."""
        lo, hi = int(self.in_indptr[v]), int(self.in_indptr[v + 1])
        return self.in_tails[lo:hi], self.in_weights[lo:hi]

    def min_weight(self) -> float:
        """Minimum edge weight (``inf`` for an edgeless graph)."""
        if self.m == 0:
            return float("inf")
        return float(self.out_weights.min())

    def pair_weights(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Weights of the ``(tails[i], heads[i])`` edges, ``nan`` where
        no such edge exists.

        Edges are held in a :class:`PairTable` built once per snapshot
        (O(m) memory) and queries resolve by binary search.  Values are
        the exact float64 weights :meth:`Digraph.weight` returns, so
        batched cost accumulation is bit-equal to the per-hop sums.
        """
        lookup = _PAIR_LOOKUP_CACHE.get(self)
        if lookup is None:
            edge_tails = np.repeat(
                np.arange(self.n, dtype=np.int64), self.out_degrees()
            )
            lookup = _PAIR_LOOKUP_CACHE[self] = PairTable.from_entries(
                self.n, edge_tails * np.int64(self.n) + self.out_heads,
                self.out_weights, missing=np.nan,
            )
        return lookup[tails, heads]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, m={self.m})"
