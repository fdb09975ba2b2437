"""The hierarchical double-tree cover (Section 4's sketch).

For every level ``i = 0, 1, ..., ceil(log2(RTDiam(G)))`` build the
Theorem 13 cover at scale ``2^i``; every vertex designates its *home
double-tree* per level (the tree containing its entire ``2^i``-ball).
The PolynomialStretch scheme searches levels bottom-up; the
HandshakeSpanner (``repro.rtz.spanner``) picks the globally cheapest
tree containing a pair, read from one ``(n, n)`` best-tree matrix
(:meth:`TreeHierarchy.best_tree_indices`).

Every level's cover is computed first; then the routing state of all
trees of all levels is built at once, as one
:class:`~repro.covers.double_tree.DoubleTreeTables` (:attr:`TreeHierarchy.tables`)
that both routing engines read.  Its in-trees come from one
:meth:`~repro.graph.shortest_paths.DistanceOracle.in_tree_rows` call
over the distinct roots, shared across levels.

Tree identifiers are globally unique across levels: level ``i`` uses
ids ``i * LEVEL_STRIDE + j``.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

import numpy as np

from repro.covers.double_tree import DoubleTree, DoubleTreeTables
from repro.covers.sparse_cover import DoubleTreeCover
from repro.exceptions import ConstructionError
from repro.graph.roundtrip import RoundtripMetric

#: Id space reserved per level; far above any realistic cluster count.
LEVEL_STRIDE = 1 << 20


class TreeHierarchy:
    """All levels of double-tree covers for one graph.

    Args:
        metric: roundtrip metric.
        k: tradeoff parameter (``k >= 2``).

    Attributes:
        levels: ``levels[i]`` is the scale-``2^i`` cover.
        tables: every tree's routing state, trees indexed in
            :meth:`all_trees` order.
    """

    def __init__(self, metric: RoundtripMetric, k: int):
        if k < 2:
            raise ConstructionError(f"hierarchy requires k >= 2, got {k}")
        self._metric = metric
        self._k = k
        rt_diam = metric.oracle.rt_diameter()
        self.num_levels = max(1, int(math.ceil(math.log2(max(rt_diam, 2.0)))) + 1)
        self.levels: List[DoubleTreeCover] = [
            DoubleTreeCover(metric, k, float(2 ** i), tree_id_base=i * LEVEL_STRIDE)
            for i in range(self.num_levels)
        ]
        self._trees: List[DoubleTree] = [t for cov in self.levels for t in cov.trees]
        self.tables = DoubleTreeTables(metric.oracle, self._trees)
        self._best: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """The tradeoff parameter."""
        return self._k

    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric."""
        return self._metric

    def level_of_tree_id(self, tree_id: int) -> int:
        """Recover the level index from a global tree id."""
        return tree_id // LEVEL_STRIDE

    def tree_by_id(self, tree_id: int) -> DoubleTree:
        """Lookup any tree by its global id."""
        level = self.level_of_tree_id(tree_id)
        if not (0 <= level < self.num_levels):
            raise ConstructionError(f"tree id {tree_id} has invalid level")
        return self.levels[level].tree_by_id(tree_id)

    def home_tree(self, v: int, level: int) -> DoubleTree:
        """Vertex ``v``'s home tree at ``level``."""
        if not (0 <= level < self.num_levels):
            raise ConstructionError(
                f"level {level} out of range [0, {self.num_levels})"
            )
        return self.levels[level].home_tree(v)

    def all_trees(self) -> Iterator[DoubleTree]:
        """Iterate every tree across all levels (in tree-id order)."""
        return iter(self._trees)

    # ------------------------------------------------------------------
    # pair queries (used by the handshake spanner)
    # ------------------------------------------------------------------
    def first_common_home_level(self, u: int, v: int) -> int:
        """The smallest level at which ``u``'s home tree contains ``v``.

        Exists because the top-level scale is at least ``RTDiam``, whose
        cover has a tree containing the whole graph ball of ``u``.
        """
        for level in range(self.num_levels):
            if self.home_tree(u, level).contains(v):
                return level
        raise ConstructionError(
            f"no level's home tree of {u} contains {v}; hierarchy is broken"
        )

    def best_tree_indices(self) -> np.ndarray:
        """The read-only ``(n, n)`` int32 best-tree matrix: entry
        ``[u, v]`` is the position in :meth:`all_trees` of the tree
        containing both ``u`` and ``v`` (as members) whose via-root
        roundtrip ``r(u, root) + r(root, v)`` is cheapest, ``-1`` where
        no tree contains both.  Built on first use and cached.

        The matrix is an exact fold over the trees in tree-id order:
        per tree, the costs ``r[m, root][:, None] + r[root, m][None, :]``
        over its members ``m`` replace the current best wherever
        ``cost < best - 1e-12``.  Per pair that is the same float64
        arithmetic, visiting order and rule as a scan of the trees
        containing both vertices, so ties resolve to the same tree.
        """
        if self._best is None:
            r = self._metric.oracle.r_matrix
            n = r.shape[0]
            best_cost = np.full(n * n, np.inf)
            best = np.full(n * n, -1, dtype=np.int32)
            for i, t in enumerate(self._trees):
                m = np.asarray(t.members, dtype=np.int64)
                cost = (r[m, t.root][:, None] + r[t.root, m][None, :]).ravel()
                cells = (m[:, None] * n + m[None, :]).ravel()
                better = cost < best_cost[cells] - 1e-12
                cells = cells[better]
                best_cost[cells] = cost[better]
                best[cells] = i
            self._best = best.reshape(n, n)
            self._best.flags.writeable = False
        return self._best

    def best_tree_for_pair(self, u: int, v: int) -> DoubleTree:
        """The tree containing both ``u`` and ``v`` (as members) whose
        via-root roundtrip ``r(u, root) + r(root, v)`` is cheapest
        (:meth:`best_tree_indices`).

        This is the "most convenient double tree" of the paper's
        ``R2(u, v)`` handshake (Section 3.3).
        """
        index = int(self.best_tree_indices()[u, v])
        if index < 0:
            raise ConstructionError(
                f"no double tree contains both {u} and {v}; hierarchy is broken"
            )
        return self._trees[index]

    # ------------------------------------------------------------------
    # guarantees / accounting
    # ------------------------------------------------------------------
    def spanner_hop_bound(self, u: int, v: int) -> float:
        """Upper bound on ``best_tree_for_pair``'s roundtrip cost implied
        by Theorem 13: using the first common home level ``i`` (whose
        scale is less than ``2 r(u,v)`` or the minimum scale),
        the cost is at most ``RTHeight + (RTHeight + r(u,v))``.
        """
        r_uv = self._metric.r(u, v)
        level = min(
            self.num_levels - 1,
            max(0, int(math.ceil(math.log2(max(r_uv, 1.0))))),
        )
        height = (2 * self._k - 1) * (2.0 ** level)
        return 2 * height + r_uv

    def table_entry_counts(self) -> np.ndarray:
        """Every vertex's tree-state rows across all levels, as a
        read-only ``(n,)`` int64 array
        (:meth:`DoubleTreeTables.table_entry_counts`)."""
        return self.tables.table_entry_counts()

    def table_entries_at(self, v: int) -> int:
        """Total tree-state rows charged to ``v`` across all levels."""
        return int(self.table_entry_counts()[v])

    def verify(self) -> None:
        """Verify every level's Theorem 13 properties."""
        for cov in self.levels:
            cov.verify()
