"""Double trees (Section 3.2 / Section 4).

Given a cluster ``C`` with center ``v = RTCenter(C)``:

* ``OutTree(C)`` is a shortest-paths tree rooted at ``v`` spanning the
  cluster (routes ``v -> x`` optimally);
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

Trees are built from the *global* shortest-path trees of ``G`` pruned
to the cluster; intermediate (Steiner) vertices on root paths are
retained and carry routing state, which the size accounting charges to
them (see DESIGN.md, modeling decisions).  Pruning walks only the
members' root paths, so a tree costs time proportional to its size, not
to ``n``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import ConstructionError
from repro.graph.shortest_paths import DistanceOracle
from repro.tree_routing.fixed_port import (
    OutTreeRouter,
    ToRootPointers,
    TreeAddress,
    build_out_tree,
)


def in_tree_lists(
    oracle: DistanceOracle, roots: Iterable[int]
) -> Dict[int, List[int]]:
    """The in-tree row into each distinct root, as a list, from one
    :meth:`~repro.graph.shortest_paths.DistanceOracle.in_tree_rows`
    call."""
    distinct = sorted(set(roots))
    return dict(zip(distinct, oracle.in_tree_rows(distinct).tolist()))


class DoubleTree:
    """A double tree over a cluster of vertices.

    Args:
        oracle: the graph's distance oracle.
        members: cluster vertex set (must be non-empty).
        tree_id: identifier used in addresses.
        center: the root; computed as ``RTCenter(members)`` when
            omitted.
        in_tree: the in-tree row into ``center`` as a list (a row of
            :meth:`~repro.graph.shortest_paths.DistanceOracle.in_tree_rows`);
            computed when omitted.  A cover passes rows it computed for
            all its roots at once.

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
        in_tree: Optional[Sequence[int]] = None,
    ):
        if len(members) == 0:
            raise ConstructionError("double tree over empty member set")
        self._oracle = oracle
        self.members: List[int] = sorted(set(members))
        self._member_set: Set[int] = set(self.members)
        self._tree_id = tree_id
        g = oracle.graph
        if center is None:
            # RTCenter over the members, by the global roundtrip metric.
            idx = np.fromiter(self.members, dtype=np.int64)
            sub = oracle.r_matrix[np.ix_(idx, idx)]
            center = int(idx[int(np.argmin(sub.max(axis=1)))])
        if center not in self._member_set:
            raise ConstructionError(f"center {center} not a cluster member")
        self.root: int = center

        # OutTree: canonical forward SP tree from the root, pruned to
        # the members (Steiner vertices retained).
        parents = oracle.forward_tree_parents(self.root)
        self._out = build_out_tree(
            g, self.root, parents, tree_id=tree_id, restrict_to=self.members
        )
        # InTree: each vertex's successor toward the root, pruned to
        # the members' paths.
        if in_tree is None:
            in_tree = oracle.in_tree_rows([self.root])[0].tolist()
        keep: Set[int] = set()
        for v in self.members:
            x = v
            while x != self.root and x not in keep:
                keep.add(x)
                x = in_tree[x]
        self._in = ToRootPointers(g, self.root, in_tree, vertices=sorted(keep))

    # ------------------------------------------------------------------
    @property
    def tree_id(self) -> int:
        """The tree identifier."""
        return self._tree_id

    @property
    def out_tree(self) -> OutTreeRouter:
        """The root-outward interval router."""
        return self._out

    @property
    def in_pointers(self) -> ToRootPointers:
        """The toward-root pointer structure."""
        return self._in

    def contains(self, v: int) -> bool:
        """Whether ``v`` is a cluster *member* (Steiner vertices are
        infrastructure, not members)."""
        return v in self._member_set

    def involves(self, v: int) -> bool:
        """Whether ``v`` carries any state for this tree (member or
        Steiner)."""
        return self._out.contains(v) or self._in.contains(v)

    def address_of(self, v: int) -> TreeAddress:
        """Out-tree address of a member (or Steiner vertex)."""
        return self._out.address_of(v)

    def rt_height(self) -> float:
        """``RTHeight``: max roundtrip distance root <-> member."""
        return max(self._oracle.r(self.root, v) for v in self.members)

    # ------------------------------------------------------------------
    # path helpers (preprocessing-time / analysis)
    # ------------------------------------------------------------------
    def route_via_root(self, x: int, y: int) -> List[int]:
        """Vertex path ``x -> root -> y`` using only tree state."""
        up = self._in.route(x)
        down = self._out.route(self.root, y)
        return up + down[1:]

    def route_cost(self, x: int, y: int) -> float:
        """Cost of the via-root route: ``d(x, root) + d(root, y)``
        (both legs are optimal by construction)."""
        return self._oracle.d(x, self.root) + self._oracle.d(self.root, y)

    def roundtrip_cost(self, x: int, y: int) -> float:
        """Cost of the full via-root roundtrip ``x -> y -> x``:
        ``r(x, root) + r(root, y)``."""
        return self._oracle.r(x, self.root) + self._oracle.r(self.root, y)

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def table_entries_at(self, v: int) -> int:
        """Rows of tree state charged to ``v`` (out-tree intervals plus
        the in-pointer)."""
        return self._out.table_entries_at(v) + self._in.table_entries_at(v)

    def add_table_entries(self, counts: List[int]) -> None:
        """Add every vertex's :meth:`table_entries_at` into ``counts``
        (indexed by vertex), in one pass over the tree's stored rows."""
        self._out.add_table_entries(counts)
        self._in.add_table_entries(counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DoubleTree(id={self._tree_id}, root={self.root}, "
            f"|members|={len(self.members)})"
        )
