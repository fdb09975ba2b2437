"""Fixed-port tree routing — the Lemma 14 substrate.

Lemma 14 (Thorup-Zwick / Fraigniaud-Gavoille) promises: for any tree
``T`` with root ``r`` there is a routing scheme that routes along the
optimal root-to-node path in the fixed-port model, with ``~O(1)``
storage per node and ``O(log^2 n)`` addresses.

We implement the classical *DFS interval routing* variant:

* each tree node gets a DFS entry time; the address of ``x`` is its
  DFS number (``O(log n)`` bits — even smaller than the lemma needs);
* each node stores, for each child edge, the DFS interval covered by
  that subtree along with the fixed port of the edge.

Routes are identical to the lemma's (exact root-to-node tree paths).
The storage per node is ``O(deg_T(x))`` words rather than ``~O(1)``;
this substitution is documented in DESIGN.md and its cost is visible in
the measured table sizes (never hidden behind an asymptotic claim).

The tree edges live in the underlying digraph ``G``: an *out-tree* is a
shortest-path tree away from the root (used to route root -> node), and
the companion *in-structure* is simply a next-hop pointer per node
toward the root (used to route node -> root), built from shortest
paths into the root.

:class:`OutTreeRouter` and :class:`ToRootPointers` build one tree at a
time, with dicts; they are the scalar references the array builds are
tested against.  :func:`pruned_tree_intervals` numbers many out-trees
at once with array operations, exactly as :class:`OutTreeRouter`
numbers each one.  It numbers both the Lemma 2 landmarks' spanning
out-trees (:func:`tree_intervals`, for :mod:`repro.rtz.routing`) and
the double trees pruned to their clusters
(:class:`~repro.covers.double_tree.DoubleTreeTables`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.csr import edge_ports
from repro.graph.digraph import Digraph


def id_bits(n: int) -> int:
    """Bits needed for one identifier in a universe of size ``n``."""
    return max(1, (max(n, 2) - 1).bit_length())


@dataclass(frozen=True)
class TreeAddress:
    """The routing address of a node within one out-tree.

    Attributes:
        tree_id: identifier of the tree (unique within a scheme).
        dfs: the node's DFS entry number within the tree.
    """

    tree_id: int
    dfs: int

    def bit_size(self, n: int) -> int:
        """Approximate encoded size in bits (two log-sized fields)."""
        return 2 * id_bits(n)

    def header_bits(self, n: int) -> int:
        """Sizing-protocol alias for :meth:`bit_size`."""
        return self.bit_size(n)


@dataclass
class _NodeTable:
    """Per-node routing rows for one tree (interval routing)."""

    #: DFS entry time of this node.
    dfs: int
    #: exclusive end of this node's subtree interval
    dfs_end: int
    #: rows: (interval_lo, interval_hi_exclusive, port)
    child_rows: List[Tuple[int, int, int]]


class OutTreeRouter:
    """Interval routing over a rooted out-tree embedded in ``G``.

    Args:
        g: the underlying (frozen) digraph; tree edges must exist in it.
        root: root vertex.
        parents: ``parents[v]`` is the tree parent of ``v``; ``-1`` both
            for the root and for vertices *not* in this tree.
        tree_id: identifier baked into addresses.
        vertices: the vertices whose ``parents`` entries are read
            (default all of ``G``); a tree pruned to a member set passes
            the vertices it keeps, so building it costs O(tree), not
            O(n).

    Raises:
        ConstructionError: if a parent edge is missing from ``G`` or the
            parent structure has a cycle.
    """

    def __init__(
        self,
        g: Digraph,
        root: int,
        parents: Sequence[int],
        tree_id: int,
        vertices: Optional[Iterable[int]] = None,
    ):
        self._g = g
        self._root = root
        self._tree_id = tree_id
        children: Dict[int, List[int]] = {}
        members = [root]
        for v in range(g.n) if vertices is None else vertices:
            p = parents[v]
            if v == root or p == -1:
                continue
            if not g.has_edge(p, v):
                raise ConstructionError(
                    f"tree edge ({p}, {v}) not present in the digraph"
                )
            children.setdefault(p, []).append(v)
            members.append(v)
        # DFS numbering (iterative; children in ascending vertex order
        # for determinism).
        dfs_of: Dict[int, int] = {}
        dfs_end: Dict[int, int] = {}
        counter = 0
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            v, processed = stack.pop()
            if processed:
                dfs_end[v] = counter
                continue
            if v in dfs_of:
                raise ConstructionError("parent structure contains a cycle")
            dfs_of[v] = counter
            counter += 1
            stack.append((v, True))
            for c in sorted(children.get(v, []), reverse=True):
                stack.append((c, False))
        if len(dfs_of) != len(members):
            raise ConstructionError("parent structure is disconnected from root")
        self._dfs_of = dfs_of
        self._tables: Dict[int, _NodeTable] = {}
        for v in dfs_of:
            rows = []
            for c in sorted(children.get(v, [])):
                rows.append((dfs_of[c], dfs_end[c], g.port_of(v, c)))
            self._tables[v] = _NodeTable(dfs_of[v], dfs_end[v], rows)

    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        """The tree root vertex."""
        return self._root

    @property
    def tree_id(self) -> int:
        """The tree identifier."""
        return self._tree_id

    def members(self) -> List[int]:
        """All vertices spanned by the tree."""
        return sorted(self._dfs_of)

    def contains(self, v: int) -> bool:
        """Whether ``v`` is in the tree."""
        return v in self._dfs_of

    def address_of(self, v: int) -> TreeAddress:
        """The routing address of tree member ``v``."""
        try:
            return TreeAddress(self._tree_id, self._dfs_of[v])
        except KeyError as exc:
            raise TableLookupError(
                f"vertex {v} is not in tree {self._tree_id}"
            ) from exc

    def next_port(self, at: int, target: TreeAddress) -> Optional[int]:
        """Forwarding decision at ``at`` toward ``target``.

        Returns:
            The fixed port to forward on, or ``None`` when ``at`` is the
            target itself.

        Raises:
            TableLookupError: if ``at`` is not in the tree or the target
                is not in ``at``'s subtree (interval routing can only
                move *down* an out-tree).
        """
        if target.tree_id != self._tree_id:
            raise TableLookupError(
                f"address for tree {target.tree_id} used in tree {self._tree_id}"
            )
        table = self._tables.get(at)
        if table is None:
            raise TableLookupError(f"vertex {at} is not in tree {self._tree_id}")
        if target.dfs == table.dfs:
            return None
        for (lo, hi, port) in table.child_rows:
            if lo <= target.dfs < hi:
                return port
        raise TableLookupError(
            f"target dfs {target.dfs} not under vertex {at} in tree "
            f"{self._tree_id}"
        )

    def dfs_numbers(self) -> Dict[int, int]:
        """Every tree vertex's DFS number (its address), by vertex."""
        return dict(self._dfs_of)

    def interval_rows(self) -> Iterator[Tuple[int, int, int, int]]:
        """Every stored child row as ``(vertex, lo, hi, port)``: at
        ``vertex``, a target with DFS number in ``[lo, hi)`` leaves on
        ``port``."""
        for v, table in self._tables.items():
            for lo, hi, port in table.child_rows:
                yield v, lo, hi, port

    def route(self, source: int, target: int) -> List[int]:
        """Full vertex path from ``source`` down to ``target``
        (preprocessing-time helper; packet-time movement goes through
        the simulator)."""
        addr = self.address_of(target)
        path = [source]
        at = source
        while True:
            port = self.next_port(at, addr)
            if port is None:
                return path
            at = self._g.head_of_port(at, port)
            path.append(at)

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def table_entries_at(self, v: int) -> int:
        """Number of stored rows at ``v`` for this tree (2 scalars for
        the own-interval plus one row per child)."""
        table = self._tables.get(v)
        if table is None:
            return 0
        return 2 + 3 * len(table.child_rows)


def _root_path_sums(
    up: np.ndarray, child: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Sum of ``weight`` over each flat vertex and its ancestors below
    the root, by pointer jumping (``up`` maps a root, the one vertex
    that is not a ``child``, to itself; its weight is 0).

    Raises:
        ConstructionError: if some vertex never reaches a root, which
            means the parent structure has a cycle.
    """
    total = weight.copy()
    for _ in range(up.shape[0].bit_length() + 1):
        if not child[up].any():
            return total
        total += total[up]
        up = up[up]
    raise ConstructionError("parent structure contains a cycle")


def tree_intervals(
    g: Digraph, parent_rows, roots
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`pruned_tree_intervals` of ``T`` spanning out-trees: row
    ``t`` of ``parent_rows`` is an out-tree over every vertex of ``g``
    rooted at ``roots[t]``.  Returns ``(T, n)`` arrays."""
    parent = np.asarray(parent_rows, dtype=np.int64)
    trees, n = parent.shape
    dfs, end = pruned_tree_intervals(
        g, np.arange(trees * n, dtype=np.int64), parent.reshape(-1), roots
    )
    return dfs.reshape(trees, n), end.reshape(trees, n)


def pruned_tree_intervals(
    g: Digraph, keys, parent, roots
) -> Tuple[np.ndarray, np.ndarray]:
    """DFS intervals of ``T`` out-trees, each spanning some vertices of
    ``g``, all at once over flat ``(tree, vertex)`` nodes.

    ``keys`` holds ``tree * n + vertex`` of every tree vertex, sorted
    and unique, each tree's root ``roots[tree]`` among them; ``parent``
    holds each node's tree parent (``-1`` at the root).  Returns each
    node's int64 DFS entry number and exclusive subtree end, children
    visited in ascending vertex order: exactly
    :meth:`OutTreeRouter.dfs_numbers` and the ``[lo, hi)`` of its
    :meth:`~OutTreeRouter.interval_rows`.

    The trees are numbered together: depths by pointer jumping, subtree
    sizes by one ``np.add.at`` per depth level (deepest first), each
    child's offset among its siblings by an exclusive cumulative sum in
    ``(tree, parent, child)`` order, and entry numbers as sums of
    ``1 + offset`` along every root path.

    Raises:
        ConstructionError: if a parent edge is missing from ``g``, a
            vertex is cut off from its root, or the parents form a
            cycle (:class:`OutTreeRouter`'s checks).
    """
    n = g.n
    keys = np.asarray(keys, dtype=np.int64)
    par = np.asarray(parent, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64).reshape(-1)
    tree, vertex = np.divmod(keys, n)
    child = vertex != roots[tree]
    # flat index of each node's parent; a root points at itself
    up = np.arange(keys.shape[0])
    query = tree * n + par
    pos = np.minimum(np.searchsorted(keys, query), keys.shape[0] - 1)
    attached = child & (par >= 0) & (keys[pos] == query)
    up[attached] = pos[attached]
    cut = child & ~attached
    if cut.any():
        i = int(np.flatnonzero(cut)[0])
        raise ConstructionError(
            f"vertex {int(vertex[i])} is cut off from root {int(roots[tree[i]])}"
        )
    missing = edge_ports(g, par[child], vertex[child]) < 0
    if missing.any():
        i = int(np.flatnonzero(child)[np.flatnonzero(missing)[0]])
        raise ConstructionError(
            f"tree edge ({int(par[i])}, {int(vertex[i])}) not present in "
            "the digraph"
        )
    depth = _root_path_sums(up, child, child.astype(np.int64))
    # subtree sizes, deepest level first
    by_depth = np.argsort(depth, kind="stable")
    starts = np.searchsorted(depth[by_depth], np.arange(int(depth.max()) + 2))
    size = np.ones(keys.shape[0], dtype=np.int64)
    for level in range(starts.shape[0] - 2, 0, -1):
        idx = by_depth[starts[level]:starts[level + 1]]
        np.add.at(size, up[idx], size[idx])
    # siblings in ascending vertex order: the flat order is (tree,
    # vertex), so a stable sort by parent gives (tree, parent, child)
    kids = np.flatnonzero(child)
    kids = kids[np.argsort(up[kids], kind="stable")]
    sizes = size[kids]
    before = np.cumsum(sizes) - sizes
    first = np.ones(kids.shape[0], dtype=bool)
    first[1:] = up[kids[1:]] != up[kids[:-1]]
    group = np.maximum.accumulate(np.where(first, np.arange(kids.shape[0]), 0))
    step = np.zeros(keys.shape[0], dtype=np.int64)
    step[kids] = 1 + before - before[group]
    dfs = _root_path_sums(up, child, step)
    return dfs, dfs + size


class ToRootPointers:
    """The in-direction of a double tree: one next-hop port per node
    toward the root along shortest paths into the root.

    Args:
        g: the digraph.
        root: root vertex.
        parents_to_root: ``parents_to_root[v]`` is the *successor* of
            ``v`` on its path to the root (a row of
            :meth:`~repro.graph.shortest_paths.DistanceOracle.in_tree_rows`),
            or ``-1`` for vertices outside the structure.
        vertices: the vertices whose entries are read (default all of
            ``G``); a pruned in-tree passes the vertices it keeps.
    """

    def __init__(
        self,
        g: Digraph,
        root: int,
        parents_to_root: Sequence[int],
        vertices: Optional[Iterable[int]] = None,
    ):
        self._g = g
        self._root = root
        self._port: Dict[int, int] = {}
        for v in range(g.n) if vertices is None else vertices:
            succ = parents_to_root[v]
            if v == root or succ == -1:
                continue
            if not g.has_edge(v, succ):
                raise ConstructionError(
                    f"in-tree edge ({v}, {succ}) not present in the digraph"
                )
            self._port[v] = g.port_of(v, succ)

    @property
    def root(self) -> int:
        """The root vertex."""
        return self._root

    def contains(self, v: int) -> bool:
        """Whether ``v`` has a pointer (the root trivially counts)."""
        return v == self._root or v in self._port

    def ports(self) -> Dict[int, int]:
        """Each non-root vertex's port toward the root, by vertex."""
        return dict(self._port)

    def next_port(self, at: int) -> Optional[int]:
        """Port toward the root, or ``None`` at the root."""
        if at == self._root:
            return None
        try:
            return self._port[at]
        except KeyError as exc:
            raise TableLookupError(
                f"vertex {at} has no pointer toward root {self._root}"
            ) from exc

    def route(self, source: int) -> List[int]:
        """Vertex path from ``source`` up to the root."""
        path = [source]
        at = source
        while at != self._root:
            at = self._g.head_of_port(at, self.next_port(at))
            path.append(at)
        return path

    def table_entries_at(self, v: int) -> int:
        """Stored rows at ``v`` (one port, or none)."""
        return 1 if v in self._port else 0
