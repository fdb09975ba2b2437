"""Randomized block distribution — Lemma 1 (k=2) and Lemma 4 (general k).

Lemma 4 asserts an assignment of block sets ``S_v`` to nodes such that

* for every node ``v``, every level ``0 <= i < k``, and every prefix
  ``tau`` of length ``i``, some node ``w`` in the roundtrip
  neighborhood ``N_i(v)`` stores a block ``B_alpha`` whose prefix
  extends ``tau`` (``sigma^i(B_alpha) = tau``), and
* every node stores ``O(log n)`` blocks.

The paper proves this by the probabilistic method, yielding "a simple
randomized procedure": give every node ``c * ln(n)`` uniformly random
blocks and take a union bound over the polynomially many (node, level,
prefix) coverage events.

:class:`BlockDistribution` implements that procedure plus a
*deterministic patching* pass: after sampling, any still-uncovered
``(v, i, tau)`` triple is repaired by handing a block with prefix
``tau`` to the least-loaded node of ``N_i(v)``.  Patching converts the
with-high-probability guarantee into a certainty while adding at most a
few blocks (tests and benchmarks record how many), so the
``O(log n)``-blocks-per-node shape is preserved and *verified* rather
than assumed.

Note on levels: coverage at level ``i`` concerns prefixes of length
``i``; level 0 is trivial for nonempty ``S_v`` (the empty prefix) but is
still checked, and the top level ``i = k-1`` concerns whole blocks
inside ``N_{k-1}(v)``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ConstructionError
from repro.graph.blocked import default_block_rows
from repro.graph.roundtrip import RoundtripMetric, level_size
from repro.naming.blocks import BlockSpace


def first_holders(order: np.ndarray, stored: np.ndarray, span: int) -> np.ndarray:
    """``(n, P)`` int32: entry ``[v, p]`` is the first node of
    ``order[v]`` storing a block with prefix ``p`` (blocks ``p * span``
    to ``p * span + span - 1``), ``-1`` where none does.

    ``order`` is an ``(n, size)`` array of node prefixes (a
    :meth:`~repro.graph.roundtrip.RoundtripMetric.neighborhoods`
    result) and ``stored`` an ``(n, blocks)`` bool matrix; each entry
    is an ``argmax`` over the rows of ``order[v]``.  Rows are processed
    in blocks of :func:`~repro.graph.blocked.default_block_rows`, so
    the ``(block, size, P)`` transient stays near the block budget.
    """
    # held[w, p]: w stores a block whose prefix is p
    held = np.logical_or.reduceat(
        stored, np.arange(0, stored.shape[1], span), axis=1
    )
    n = order.shape[0]
    out = np.empty((n, held.shape[1]), dtype=np.int32)
    step = default_block_rows(n, order.shape[1] * held.shape[1])
    for lo in range(0, n, step):
        rows = order[lo:lo + step]
        inside = held[rows]
        first = np.take_along_axis(rows, inside.argmax(axis=1), axis=1)
        out[lo:lo + step] = np.where(inside.any(axis=1), first, -1)
    return out


class BlockDistribution:
    """Assignment of dictionary blocks to nodes satisfying Lemma 4.

    Args:
        metric: roundtrip metric of the graph (provides ``N_i(v)``).
        blocks: the block/prefix structure over the name space.
        rng: randomness for the sampling phase.
        blocks_per_node: how many random blocks each node draws; the
            default ``3 * ln(n) + 1`` mirrors the lemma's constant.

    Attributes:
        sets: ``sets[v]`` is the set ``S_v`` of block indices stored at
            vertex ``v``.
        patches_applied: number of deterministic repairs performed
            after sampling (0 for most seeds — recorded for E3).
    """

    def __init__(
        self,
        metric: RoundtripMetric,
        blocks: BlockSpace,
        rng: Optional[random.Random] = None,
        blocks_per_node: Optional[int] = None,
    ):
        if blocks.n != metric.n:
            raise ConstructionError(
                f"block space covers {blocks.n} names but graph has "
                f"{metric.n} nodes"
            )
        self._metric = metric
        self._blocks = blocks
        rng = rng or random.Random(0)
        n = metric.n
        num_blocks = blocks.num_blocks()
        if blocks_per_node is None:
            blocks_per_node = min(num_blocks, int(3 * math.log(max(n, 2))) + 1)
        if blocks_per_node < 1:
            raise ConstructionError("blocks_per_node must be >= 1")
        self._sample_size = blocks_per_node

        self.sets: List[Set[int]] = [
            set(rng.sample(range(num_blocks), min(blocks_per_node, num_blocks)))
            for _ in range(n)
        ]
        # level -> holders(level) matrix, derived from ``sets``
        self._holder_cache: Dict[int, np.ndarray] = {}
        self.patches_applied = self._patch_uncovered()

    # ------------------------------------------------------------------
    # Lemma 4 guarantee
    # ------------------------------------------------------------------
    def _iter_requirements(self):
        """Yield every (v, i, tau) coverage requirement of Lemma 4."""
        k = self._blocks.k
        prefixes_by_level: List[List[Tuple[int, ...]]] = []
        for i in range(k):
            seen = []
            seen_set = set()
            for b in range(self._blocks.num_blocks()):
                tau = self._blocks.block_prefix(b)[:i]
                if tau not in seen_set:
                    seen_set.add(tau)
                    seen.append(tau)
            prefixes_by_level.append(seen)
        for v in range(self._metric.n):
            for i in range(k):
                for tau in prefixes_by_level[i]:
                    yield v, i, tau

    def _neighborhood(self, v: int, i: int) -> List[int]:
        return self._metric.level_neighborhood(v, i, self._blocks.k)

    def _covers(self, holder: int, tau: Tuple[int, ...]) -> bool:
        return any(
            self._blocks.block_has_prefix(b, tau) for b in self.sets[holder]
        )

    def _prefix_span(self, i: int) -> int:
        """Blocks per level-``i`` prefix: block ``b`` has the ``i``-prefix
        numbered ``b // span`` (its first ``i`` base-``q`` digits)."""
        return self._blocks.q ** (self._blocks.k - 1 - i)

    def _first_holders(self, i: int) -> np.ndarray:
        """``(n, P_i)`` int32: entry ``[v, p]`` is the first node of
        ``N_i(v)`` holding a block with ``i``-prefix ``p``, ``-1`` where
        none does, computed from the current ``sets``."""
        n = self._metric.n
        stored = np.zeros((n, self._blocks.num_blocks()), dtype=bool)
        for v, blocks in enumerate(self.sets):
            stored[v, list(blocks)] = True
        return first_holders(
            self._metric.neighborhoods(level_size(n, i, self._blocks.k)),
            stored, self._prefix_span(i),
        )

    def _patch_uncovered(self) -> int:
        """Deterministically repair any uncovered requirement.

        Requirements are checked in ``(v, i, tau)`` order against the
        sets as patched so far.  Patches only add blocks, so one covered
        before any patch stays covered: only the ones the sampled sets
        leave uncovered are replayed.
        """
        uncovered = sorted(
            (int(v), i, int(p))
            for i in range(self._blocks.k)
            for v, p in zip(*np.nonzero(self.holders(i) < 0))
        )
        patches = 0
        for v, i, p in uncovered:
            first_block = p * self._prefix_span(i)
            tau = self._blocks.block_prefix(first_block)[:i]
            nbhd = self._neighborhood(v, i)
            if any(self._covers(w, tau) for w in nbhd):
                continue
            # Give a block with prefix tau to the least-loaded neighbor.
            target = min(nbhd, key=lambda w: (len(self.sets[w]), w))
            self.sets[target].add(first_block)
            patches += 1
        if patches:
            self._holder_cache.clear()
        return patches

    # ------------------------------------------------------------------
    # queries used by the schemes
    # ------------------------------------------------------------------
    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric the neighborhoods come from."""
        return self._metric

    @property
    def block_space(self) -> BlockSpace:
        """The underlying block structure."""
        return self._blocks

    def augmented_blocks_of(self, v: int, own_name: int) -> Set[int]:
        """``S'_v = S_v + {own block}`` (Section 3.3: every node also
        stores the block containing its own name)."""
        return self.sets[v] | {self._blocks.block_of(own_name)}

    def holders_of_block(self, block: int) -> List[int]:
        """All vertices storing ``block``."""
        return [v for v in range(self._metric.n) if block in self.sets[v]]

    def holders(self, i: int) -> np.ndarray:
        """The level-``i`` first-holder matrix, read-only ``(n, P_i)``
        int32: entry ``[v, p]`` is the first node of ``N_i(v)`` (in
        ``Init_v`` order, i.e. the closest) holding a block whose
        ``i``-prefix is ``p`` (prefixes numbered as base-``q``
        integers), ``-1`` where the requirement is uncovered."""
        cached = self._holder_cache.get(i)
        if cached is None:
            cached = self._first_holders(i)
            cached.flags.writeable = False
            self._holder_cache[i] = cached
        return cached

    def holder_in_neighborhood(
        self, v: int, i: int, tau: Tuple[int, ...]
    ) -> int:
        """The first node of ``N_i(v)`` (in ``Init_v`` order, i.e. the
        closest) holding a block with the length-``i`` prefix ``tau``.

        This is the lookup the routing schemes perform; Lemma 4
        guarantees existence.

        Raises:
            ConstructionError: if coverage is violated (cannot happen
                after patching; kept as an invariant check).
        """
        q = self._blocks.q
        if len(tau) != i or not all(0 <= digit < q for digit in tau):
            raise ConstructionError(
                f"prefix {tau} is not a level-{i} prefix over base {q}"
            )
        p = 0
        for digit in tau:
            p = p * q + digit
        holders = self.holders(i)
        holder = int(holders[v, p]) if p < holders.shape[1] else -1
        if holder < 0:
            raise ConstructionError(
                f"coverage violated: no holder of prefix {tau} in N_{i}({v})"
            )
        return holder

    def nearest_holder(self, v: int, tau: Tuple[int, ...]) -> int:
        """The globally closest node to ``v`` (by ``Init_v``) holding a
        block with prefix ``tau``, by a walk along the whole ``Init_v``.
        A scalar reference for tests; the schemes read first-holder
        matrices (:meth:`holders`, :func:`first_holders`)."""
        for w in self._metric.init_order(v):
            if self._covers(w, tau):
                return w
        raise ConstructionError(f"no node stores any block with prefix {tau}")

    # ------------------------------------------------------------------
    # verification / statistics
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check both Lemma 4 properties against the current ``sets``
        by their scalar definitions (``repro report``, tests and
        benchmarks).

        Raises:
            ConstructionError: for an uncovered ``(v, i, tau)``
                requirement or a node over :meth:`per_node_bound`.
        """
        for v, i, tau in self._iter_requirements():
            if not any(
                self._covers(w, tau) for w in self._neighborhood(v, i)
            ):
                raise ConstructionError(
                    f"(v={v}, i={i}, tau={tau}) uncovered"
                )
        bound = self.per_node_bound()
        for v in range(self._metric.n):
            if len(self.sets[v]) > bound:
                raise ConstructionError(
                    f"node {v} stores {len(self.sets[v])} blocks, "
                    f"bound {bound}"
                )

    def per_node_bound(self) -> int:
        """The ``O(log n)`` bound we hold ourselves to: the sampling
        budget plus a slack constant for patches."""
        return self._sample_size + max(4, self._sample_size)

    def max_blocks_per_node(self) -> int:
        """Observed maximum ``|S_v|``."""
        return max(len(s) for s in self.sets)

    def mean_blocks_per_node(self) -> float:
        """Observed mean ``|S_v|``."""
        return sum(len(s) for s in self.sets) / self._metric.n

    def total_entries(self) -> int:
        """Total dictionary entries implied: sum over nodes of block
        sizes (each block stores one entry per member name)."""
        return sum(
            len(self._blocks.block_members(b))
            for s in self.sets
            for b in s
        )
