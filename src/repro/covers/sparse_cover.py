"""``Cover(G, k, d)`` and the Theorem 13 double-tree cover.

Fig. 8's driver repeatedly calls ``PartialCover`` on the remaining
balls until every ball ``N^d(v)`` is covered by some merged region.
Theorem 10 guarantees, for the resulting cover ``T``:

1. every ball ``N^d(v)`` is contained in a single cluster of ``T``;
2. ``RTRad(T) <= (2k - 1) d``;
3. every vertex appears in at most ``2 k n^{1/k}`` clusters.

:class:`DoubleTreeCover` materializes the cover at a given scale with a
:class:`~repro.covers.double_tree.DoubleTree` per cluster, and records
each vertex's *home tree* — the tree whose cluster swallowed that
vertex's ball, which Section 4's scheme routes in first.  A cover holds
no routing state; :class:`~repro.covers.hierarchy.TreeHierarchy` builds
that for all its levels' trees at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, List

import numpy as np

from repro.covers.double_tree import DoubleTree
from repro.covers.partial_cover import partial_cover
from repro.exceptions import ConstructionError
from repro.graph.roundtrip import RoundtripMetric, level_size


def cover_load_bound(n: int, k: int) -> int:
    """Theorem 10(3)'s per-vertex load bound ``2 k n^{1/k}``, with
    ``ceil(n^{1/k})`` in exact integers
    (:func:`~repro.graph.roundtrip.level_size`)."""
    return 2 * k * level_size(n, 1, k)


@dataclass(frozen=True)
class CoverResult:
    """Raw output of ``Cover(G, k, d)``.

    Attributes:
        clusters: the cover ``T`` (merged regions, order of creation).
        home_cluster: vertex -> index into ``clusters`` of the region
            that covered the vertex's ball ``N^d(v)``.
        rounds: number of ``PartialCover`` invocations used.
        centers: ``centers[i]`` is ``RTCenter(clusters[i])``.
    """

    clusters: List[FrozenSet[int]]
    home_cluster: Dict[int, int]
    rounds: int
    centers: List[int]


def cover(metric: RoundtripMetric, k: int, d: float) -> CoverResult:
    """Run the Fig. 8 cover construction at scale ``d``.

    Args:
        metric: roundtrip metric of the graph.
        k: tradeoff parameter, ``k > 1``.
        d: ball radius, ``1 <= d`` (the paper allows up to
            ``RTDiam(G)``; larger values are harmless).

    Returns:
        A :class:`CoverResult` whose clusters satisfy Theorem 10, with
        each cluster's center.
    """
    if k < 2:
        raise ConstructionError(f"cover construction requires k >= 2, got {k}")
    if d <= 0:
        raise ConstructionError(f"scale d must be positive, got {d}")
    n = metric.n
    # every ball N^d(v) as row v, by RoundtripMetric.ball's rule
    balls = metric.oracle.r_matrix <= d + 1e-12
    remaining = list(range(n))  # ball i is owned by vertex i
    clusters: List[FrozenSet[int]] = []
    home_cluster: Dict[int, int] = {}
    rounds = 0
    while remaining:
        rounds += 1
        result = partial_cover(balls[remaining], k)
        for i in result.covered:
            home_cluster[remaining[i]] = len(clusters) + result.covering_region[i]
        clusters.extend(result.merged_regions)
        remaining = np.delete(remaining, result.covered).tolist()
        if rounds > 4 * k * level_size(n, 1, k) + 8:
            raise ConstructionError(
                "cover construction exceeded its iteration bound; "
                "this indicates a PartialCover bug"
            )
    centers = [metric.rt_center(members) for members in clusters]
    return CoverResult(clusters, home_cluster, rounds, centers)


class DoubleTreeCover:
    """Theorem 13: the scale-``d`` cover materialized as double trees.

    Args:
        metric: roundtrip metric.
        k: tradeoff parameter.
        d: scale (ball radius).
        tree_id_base: starting tree identifier (levels in a hierarchy
            use disjoint id ranges).
    """

    def __init__(
        self,
        metric: RoundtripMetric,
        k: int,
        d: float,
        tree_id_base: int = 0,
    ):
        self._metric = metric
        self._k = k
        self._d = d
        raw = cover(metric, k, d)
        self.rounds = raw.rounds
        self.trees: List[DoubleTree] = [
            DoubleTree(metric.oracle, members, tree_id_base + i, center=c)
            for i, (members, c) in enumerate(zip(raw.clusters, raw.centers))
        ]
        self._by_id: Dict[int, DoubleTree] = {t.tree_id: t for t in self.trees}
        self._home: Dict[int, DoubleTree] = {
            v: self.trees[ci] for v, ci in raw.home_cluster.items()
        }

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """The tradeoff parameter."""
        return self._k

    @property
    def d(self) -> float:
        """The scale (input ball radius)."""
        return self._d

    def home_tree(self, v: int) -> DoubleTree:
        """The double tree containing all of ``N^d(v)`` (Thm 13(1))."""
        return self._home[v]

    def tree_by_id(self, tree_id: int) -> DoubleTree:
        """Lookup a tree by identifier."""
        try:
            return self._by_id[tree_id]
        except KeyError as exc:
            raise ConstructionError(f"no tree with id {tree_id}") from exc

    def trees_containing(self, v: int) -> List[DoubleTree]:
        """All trees whose cluster includes member ``v``."""
        return [t for t in self.trees if t.contains(v)]

    def max_vertex_load(self) -> int:
        """Observed max number of clusters a vertex belongs to."""
        members = chain.from_iterable(t.members for t in self.trees)
        return int(np.bincount(np.fromiter(members, np.int64)).max())

    def load_bound(self) -> int:
        """Theorem 13(3)'s bound ``2 k n^{1/k}`` (:func:`cover_load_bound`)."""
        return cover_load_bound(self._metric.n, self._k)

    def height_bound(self) -> float:
        """Theorem 13(2)'s bound ``(2k - 1) d``."""
        return (2 * self._k - 1) * self._d

    def verify(self) -> None:
        """Check all three Theorem 13 properties on the built trees.

        Raises:
            ConstructionError: on the first violated property.
        """
        for v in range(self._metric.n):
            ball = set(self._metric.ball(v, self._d))
            home = self.home_tree(v)
            if not ball <= set(home.members):
                raise ConstructionError(
                    f"home tree of {v} misses part of its ball"
                )
        bound = self.height_bound() + 1e-9
        for t in self.trees:
            if not t.rt_height() <= bound:
                raise ConstructionError(
                    f"tree {t.tree_id} height {t.rt_height()} > {bound}"
                )
        if not self.max_vertex_load() <= self.load_bound():
            raise ConstructionError(
                f"vertex load {self.max_vertex_load()} exceeds "
                f"2k n^(1/k) = {self.load_bound()}"
            )
