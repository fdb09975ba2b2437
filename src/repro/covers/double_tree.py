"""Double trees (Section 3.2 / Section 4).

Given a cluster ``C`` with center ``v = RTCenter(C)``:

* ``OutTree(C)`` is a shortest-paths tree rooted at ``v`` spanning the
  cluster (routes ``v -> x`` optimally): the canonical out-tree of
  ``v`` pruned to the members' root paths;
* ``InTree(C)`` consists of a shortest path from every member to ``v``
  (routes ``x -> v`` optimally): the canonical in-tree row into ``v``
  (:meth:`~repro.graph.shortest_paths.DistanceOracle.in_tree_rows`)
  pruned to the members' paths;
* ``DoubleTree(C)`` is their union, and
  ``RTHeight(T) = max over members of r(root, x)``.

Routing between two arbitrary members ``x, y`` of a double tree always
goes through the root: up the in-tree (cost ``d(x, root)``) then down
the out-tree (cost ``d(root, y)``), for a total of at most
``r(x, root) + r(root, y) <= 2 * RTHeight``.

:class:`DoubleTree` is the cluster alone.  The routing state of many
trees is :class:`DoubleTreeTables`: one in-pointer per (tree, vertex),
one DFS number per out-tree (tree, vertex) and the Lemma 14 child
rows, built with array operations and held once, as the arrays both
routing engines read.  Intermediate (Steiner) vertices on root paths
are retained and carry routing state, which the size accounting
charges to them (see DESIGN.md, modeling decisions).  The build walks
only the members' root paths, so a tree costs time proportional to its
size, not to ``n``.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.csr import edge_ports
from repro.graph.shortest_paths import DistanceOracle
from repro.tree_routing.fixed_port import TreeAddress, pruned_tree_intervals


class DoubleTree:
    """A double tree's cluster: its members and root.

    Args:
        oracle: the graph's distance oracle.
        members: cluster vertex set (must be non-empty).
        tree_id: identifier used in addresses.
        center: the root; computed as ``RTCenter(members)`` when
            omitted.

    Attributes:
        members: sorted cluster members.
        root: the center vertex.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        members: Sequence[int],
        tree_id: int,
        center: Optional[int] = None,
    ):
        if len(members) == 0:
            raise ConstructionError("double tree over empty member set")
        self._oracle = oracle
        self.members: List[int] = sorted(set(members))
        self._member_set: Set[int] = set(self.members)
        self._tree_id = tree_id
        if center is None:
            # RTCenter over the members, by the global roundtrip metric.
            idx = np.fromiter(self.members, dtype=np.int64)
            sub = oracle.r_matrix[np.ix_(idx, idx)]
            center = int(idx[int(np.argmin(sub.max(axis=1)))])
        if center not in self._member_set:
            raise ConstructionError(f"center {center} not a cluster member")
        self.root: int = center

    # ------------------------------------------------------------------
    @property
    def tree_id(self) -> int:
        """The tree identifier."""
        return self._tree_id

    def contains(self, v: int) -> bool:
        """Whether ``v`` is a cluster *member* (Steiner vertices are
        infrastructure, not members)."""
        return v in self._member_set

    def rt_height(self) -> float:
        """``RTHeight``: max roundtrip distance root <-> member."""
        return max(self._oracle.r(self.root, v) for v in self.members)

    def route_cost(self, x: int, y: int) -> float:
        """Cost of the via-root route: ``d(x, root) + d(root, y)``
        (both legs are optimal by construction)."""
        return self._oracle.d(x, self.root) + self._oracle.d(self.root, y)

    def roundtrip_cost(self, x: int, y: int) -> float:
        """Cost of the full via-root roundtrip ``x -> y -> x``:
        ``r(x, root) + r(root, y)``."""
        return self._oracle.r(x, self.root) + self._oracle.r(self.root, y)


def _root_paths(rows, row, tree, start, root) -> np.ndarray:
    """Sorted unique ``tree * n + x`` of every vertex ``x`` on the
    paths from each ``start[i]`` up ``rows[row[tree[i]]]`` to
    ``root[tree[i]]``, the root excluded.  Walkers that meet at one
    step walk on as one; a walker stops at a ``-1`` entry.

    Raises:
        ConstructionError: if a walk outlasts ``n`` steps (a cycle).
    """
    n = rows.shape[1]
    keys = [np.zeros(0, dtype=np.int64)]
    for _ in range(n):
        live = (start != root[tree]) & (start >= 0)
        if not live.any():
            break
        key = np.unique(tree[live] * n + start[live])
        keys.append(key)
        tree, x = np.divmod(key, n)
        start = rows[row[tree], x]
    else:
        raise ConstructionError("parent structure contains a cycle")
    return np.unique(np.concatenate(keys))


def _find(keys: np.ndarray, key: int) -> int:
    """Position of ``key`` in the sorted ``keys``, or ``-1``."""
    pos = int(keys.searchsorted(key))
    return pos if pos < keys.shape[0] and keys.item(pos) == key else -1


class DoubleTreeTables:
    """The routing state of a list of double trees (ascending
    ``tree_id``), held once as the arrays both routing engines read.

    Tree ``t`` is ``trees[t]``; node ``(t, vertex)`` is keyed
    ``t * n + vertex``, and every key array is sorted.  The python
    engine reads the arrays with scalar lookups (:meth:`next_port`,
    :meth:`address_of`), the compiled engine with array lookups
    (:class:`~repro.runtime.engine.DoubleTreeStepTables`), so an entry
    removed here is gone for both.

    Attributes:
        tree_ids, root: each tree's global id and root.
        up_keys, up_next, up_port: one in-pointer per member or Steiner
            vertex on a member's path into the root: its node, next
            vertex and port.
        dfs_keys, dfs: every out-tree node (the root, the members and
            the Steiner vertices on the root's paths to them) and its
            DFS number, its tree address.
        row_keys, row_hi, row_next, row_port: one child row per
            non-root out-tree node, keyed ``(t * n + parent) * n + lo``:
            the child's interval ``[lo, hi)``, the child and the port.

    Raises:
        ConstructionError: on a tree edge missing from the graph, a
            vertex cut off from its root, or a cycle.
    """

    def __init__(self, oracle: DistanceOracle, trees: Sequence[DoubleTree]):
        g = oracle.graph
        n = self.n = g.n
        self.tree_ids = np.array([t.tree_id for t in trees], dtype=np.int64)
        self.root = np.array([t.root for t in trees], dtype=np.int64)
        sizes = [len(t.members) for t in trees]
        tree = np.repeat(np.arange(len(trees), dtype=np.int64), sizes)
        member = np.fromiter(
            chain.from_iterable(t.members for t in trees), np.int64, sum(sizes)
        )
        # only trees with a non-root member have paths to walk
        walk = member != self.root[tree]
        tree, member = tree[walk], member[walk]
        busy = np.unique(self.root[tree])
        row = np.searchsorted(busy, self.root)

        # in-trees: the successor of every vertex on a member's path
        succ = oracle.in_tree_rows(busy)
        keys = _root_paths(succ, row, tree, member, self.root)
        t, x = np.divmod(keys, n)
        nxt = succ[row[t], x]
        ptr = nxt >= 0
        keys, x, nxt = keys[ptr], x[ptr], nxt[ptr]
        port = edge_ports(g, x, nxt)
        if (port < 0).any():
            i = int(np.flatnonzero(port < 0)[0])
            raise ConstructionError(
                f"in-tree edge ({x[i]}, {nxt[i]}) not present in the digraph"
            )
        self.up_keys, self.up_next, self.up_port = keys, nxt, port

        # out-trees: the root's canonical out-tree pruned to the
        # members' root paths, numbered together
        par = oracle.parent_rows(busy)
        keys = np.union1d(
            _root_paths(par, row, tree, member, self.root),
            np.arange(len(trees), dtype=np.int64) * n + self.root,
        )
        t, x = np.divmod(keys, n)
        child = x != self.root[t]
        parent = np.full(keys.shape[0], -1, dtype=np.int64)
        parent[child] = par[row[t[child]], x[child]]
        dfs, end = pruned_tree_intervals(g, keys, parent, self.root)
        self.dfs_keys, self.dfs = keys, dfs
        p, c = parent[child], x[child]
        row_keys = (t[child] * n + p) * n + dfs[child]
        order = np.argsort(row_keys)
        self.row_keys = row_keys[order]
        self.row_hi = end[child][order]
        self.row_next = c[order]
        self.row_port = edge_ports(g, p, c)[order]

        # rows per node: 2 per out-tree vertex, 3 per child row at its
        # parent, 1 per in-pointer
        self._entries = (
            2 * np.bincount(self.dfs_keys % n, minlength=n)
            + 3 * np.bincount(self.row_keys // n % n, minlength=n)
            + np.bincount(self.up_keys % n, minlength=n)
        )
        self._entries.flags.writeable = False

    # ------------------------------------------------------------------
    def _index(self, tree_id: int) -> int:
        """The tree index of one global tree id."""
        t = _find(self.tree_ids, tree_id)
        if t < 0:
            raise TableLookupError(f"tree {tree_id} is not in the hierarchy")
        return t

    def address_of(self, tree_id: int, v: int) -> TreeAddress:
        """``v``'s out-tree address in tree ``tree_id`` (a member or a
        Steiner vertex)."""
        node = self._index(tree_id) * self.n + v
        pos = _find(self.dfs_keys, node) if 0 <= v < self.n else -1
        if pos < 0:
            raise TableLookupError(f"vertex {v} is not in tree {tree_id}")
        return TreeAddress(tree_id, self.dfs.item(pos))

    def next_port(
        self, at: int, tree_id: int, target: TreeAddress, up: bool
    ) -> Tuple[Optional[int], bool]:
        """One forwarding decision inside tree ``tree_id`` toward
        ``target``: up the in-pointers while ``up``, flipping at the
        root, then down by the child row whose interval holds the
        target's DFS number.  Returns ``(port, up)``, ``port`` ``None``
        at arrival (checked by address).

        Raises:
            TableLookupError: on a missing pointer or row, or a target
                outside ``at``'s subtree.
        """
        n = self.n
        node = self._index(tree_id) * n + at
        pos = _find(self.dfs_keys, node)
        if up:
            if (
                pos >= 0
                and target.tree_id == tree_id
                and target.dfs == self.dfs.item(pos)
            ):
                return None, True
            root = self.root.item(node // n)
            if at != root:
                ptr = _find(self.up_keys, node)
                if ptr < 0:
                    raise TableLookupError(
                        f"vertex {at} has no pointer toward root {root}"
                    )
                return self.up_port.item(ptr), True
        if target.tree_id != tree_id:
            raise TableLookupError(
                f"address for tree {target.tree_id} used in tree {tree_id}"
            )
        if pos < 0:
            raise TableLookupError(f"vertex {at} is not in tree {tree_id}")
        if target.dfs == self.dfs.item(pos):
            return None, False
        row = int(self.row_keys.searchsorted(node * n + target.dfs, side="right")) - 1
        if (
            row < 0
            or self.row_keys.item(row) // n != node
            or target.dfs >= self.row_hi.item(row)
        ):
            raise TableLookupError(
                f"target dfs {target.dfs} not under vertex {at} in tree "
                f"{tree_id}"
            )
        return self.row_port.item(row), False

    def table_entry_counts(self) -> np.ndarray:
        """Every vertex's tree-state rows across all trees, as a
        read-only ``(n,)`` int64 array: 2 per out-tree vertex, 3 per
        child row at its parent and 1 per in-pointer."""
        return self._entries
