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

:func:`pruned_tree_intervals` numbers many out-trees at once with
array operations.  It numbers both the Lemma 2 landmarks' spanning
out-trees (:func:`tree_intervals`, for :mod:`repro.rtz.routing`) and
the double trees pruned to their clusters
(:class:`~repro.covers.double_tree.DoubleTreeTables`).  The tests
compare it with scalar per-tree references that build one tree at a
time, with dicts (``tests/tree_references.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ConstructionError
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
    visited in ascending vertex order: every node's address, and the
    ``[lo, hi)`` of the interval row its parent stores for it.

    The trees are numbered together: depths by pointer jumping, subtree
    sizes by one ``np.add.at`` per depth level (deepest first), each
    child's offset among its siblings by an exclusive cumulative sum in
    ``(tree, parent, child)`` order, and entry numbers as sums of
    ``1 + offset`` along every root path.

    Raises:
        ConstructionError: if a parent edge is missing from ``g``, a
            vertex is cut off from its root, or the parents form a
            cycle.
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
