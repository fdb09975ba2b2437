"""Scalar per-tree references for the array-built tree routing.

:class:`OutTreeRouter` and :class:`ToRootPointers` build one tree at a
time, with dicts: the DFS interval routing of one out-tree, and the
next-hop pointers of one in-tree.  Nothing in the library routes with
them; the tests compare the array builds against them
(:func:`repro.tree_routing.fixed_port.pruned_tree_intervals`,
:class:`repro.covers.double_tree.DoubleTreeTables` and the Lemma 2
substrate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.digraph import Digraph
from repro.tree_routing.fixed_port import TreeAddress


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
