"""``PartialCover(R, k)`` — Fig. 7, after Awerbuch-Peleg [8].

Given a collection ``R`` of clusters (vertex sets), the procedure
repeatedly grabs an arbitrary remaining cluster and grows a merged
region ``Y`` by absorbing every cluster that intersects it, stopping
when one more growth round would not multiply the region's cluster
count by at least ``|R|^{1/k}``.  The merged regions ``DT`` are
pairwise disjoint, and the clusters fully recorded as covered (``DR``)
are at least ``|R|^{1-1/k}`` many, with radius blow-up at most
``2k - 1`` (Lemma 11).

The growth threshold compares *cluster counts* (``|Z|`` and ``|Y|`` as
collections), matching the counting argument of Lemma 11 properties
3-4.

The procedure runs on bitsets: every cluster's vertex set and every
vertex's cluster set is one Python int, packed once with numpy.  The
lowest set bit of the alive mask is the smallest alive cluster, the
deterministic "arbitrary" choice, and each growth round visits only the
vertices and clusters new to the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, FrozenSet, Iterator, List, Set

import numpy as np

from repro.exceptions import ConstructionError


@dataclass(frozen=True)
class PartialCoverResult:
    """Output of one ``PartialCover`` run.

    Attributes:
        merged_regions: the collection ``DT`` of pairwise-disjoint
            merged vertex sets.
        covered: indices (into the input ``R``) of clusters recorded in
            ``DR`` — each is fully contained in one merged region.
        covering_region: for each covered cluster index, the index in
            ``merged_regions`` of the region containing it.
        removed: indices of *all* clusters removed from ``U`` (the
            final absorbed set ``Z`` of each round; a superset of
            ``covered``).  The caller keeps ``R \\ DR`` for the next
            round, per Fig. 8.
    """

    merged_regions: List[FrozenSet[int]]
    covered: List[int]
    covering_region: Dict[int, int]
    removed: Set[int]


def _bit_rows(matrix: np.ndarray) -> List[int]:
    """Each row of a 2-D bool array as an int with bit ``j`` set where
    column ``j`` is."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return list(map(int.from_bytes, packed, repeat("little")))


def _bits(x: int) -> Iterator[int]:
    """The set bits of ``x >= 0``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def partial_cover(member: np.ndarray, k: int) -> PartialCoverResult:
    """Run ``PartialCover(R, k)`` (Fig. 7).

    Args:
        member: the collection ``R`` as an ``(|R|, n)`` bool matrix
            whose row ``i`` marks cluster ``i``'s vertices; every row
            must be non-empty.
        k: the tradeoff parameter (``k > 1`` for meaningful growth, but
            ``k = 1`` is accepted and simply absorbs greedily).

    Returns:
        A :class:`PartialCoverResult`.

    Raises:
        ConstructionError: for an empty cluster.
    """
    num = member.shape[0]
    if num == 0:
        return PartialCoverResult([], [], {}, set())
    if not member.any(axis=1).all():
        raise ConstructionError("PartialCover clusters must be non-empty")
    growth = num ** (1.0 / k)
    vertices = _bit_rows(member)  # cluster -> its vertices
    # vertex -> clusters holding it; a C-ordered copy packs ~3x faster
    clusters_of = _bit_rows(member.T.copy())

    alive = (1 << num) - 1
    merged_regions: List[FrozenSet[int]] = []
    covered: List[int] = []
    covering_region: Dict[int, int] = {}
    while alive:
        z = alive & -alive  # the smallest alive cluster
        z_union = vertices[z.bit_length() - 1]
        expanded = touching = 0  # vertices seen, clusters holding them
        while True:
            y, y_union = z, z_union
            # Z <- every alive cluster intersecting the Y region; Y only
            # grows, so only its new vertices add clusters.
            for v in _bits(y_union & ~expanded):
                touching |= clusters_of[v]
            expanded = y_union
            z = touching & alive
            for ci in _bits(z & ~y):
                z_union |= vertices[ci]
            if z.bit_count() <= growth * y.bit_count():
                break
        # Commit: Y's clusters are covered by the merged region Y.
        region_index = len(merged_regions)
        merged_regions.append(frozenset(_bits(y_union)))
        for ci in _bits(y):
            covered.append(ci)
            covering_region[ci] = region_index
        # Remove all of Z (absorbed, possibly without coverage credit).
        alive &= ~z
    return PartialCoverResult(
        merged_regions, covered, covering_region, set(range(num))
    )
