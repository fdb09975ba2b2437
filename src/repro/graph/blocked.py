"""First-hop rows, folded from canonical parent trees.

The compiled routing engine's shortest-path tables answer "from ``s``,
which neighbor starts the canonical shortest path to ``v``?".
:func:`first_hops_for_sources` is the one fold behind every such
table: the dense :meth:`DistanceOracle.first_hop_matrix`, the per-block
rows of the blocked table family
(:meth:`DistanceOracle.first_hop_block`), and the rows incremental
repair refreshes.  :func:`iter_first_hop_blocks` streams the same rows
from source-blocked APSP (:func:`repro.graph.apsp.apsp_blocks`)
without an oracle, so peak memory is ``O(block_rows · n)``.

Row ``s`` is a pure function of source ``s``'s parent tree, so
concatenating blocks of *any* size — 1, ``n``, or anything that does
not divide ``n`` — reproduces the monolithic matrix bit-for-bit; the
hypothesis suite in ``tests/test_blocked_tables.py`` asserts this.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.graph.apsp import apsp_blocks
from repro.graph.csr import CSRGraph

#: Target entries per first-hop block: 1 << 22 int32 entries is 16 MiB,
#: small enough to stream on a laptop at n = 10^5 yet big enough that
#: per-block overhead (the per-block fold and gather dispatch) stays noise.
_BLOCK_ELEMS = 1 << 22


def default_block_rows(n: int, width: Optional[int] = None) -> int:
    """Rows per block of an ``n``-row table with ``width`` entries per
    row (default ``n``) so one block holds ~:data:`_BLOCK_ELEMS` entries
    (always at least 1, at most ``n``)."""
    width = n if width is None else width
    return max(1, min(max(n, 1), _BLOCK_ELEMS // max(width, 1)))


def first_hops_for_sources(
    parent_rows: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """First-hop rows for an ordered source set, folded from their
    canonical parent trees.

    Row ``i`` of the ``(b, n)`` int32 result is the first hop on the
    canonical path ``sources[i] -> v`` for every ``v`` (``-1`` at the
    source itself and for unreachable targets), folded from
    ``parent_rows[i]`` by pointer doubling.  Each row is a pure
    function of its own tree, so any source set — the whole vertex
    range (:meth:`DistanceOracle.first_hop_matrix`), one block
    (:meth:`DistanceOracle.first_hop_block`), or the scattered rows a
    delta invalidated (:mod:`repro.graph.repair`) — yields the same
    rows bit for bit.
    """
    parent = np.asarray(parent_rows, dtype=np.int32)
    b, n = parent.shape
    src = np.asarray(sources, dtype=np.int32).reshape(-1)
    cols = np.broadcast_to(np.arange(n, dtype=np.int32), (b, n))
    # a vertex whose parent is the source is its own first hop; others
    # inherit their parent's answer by pointer doubling
    first = np.where(parent == src[:, None], cols, -1).astype(np.int32)
    jump = np.where(parent >= 0, parent, cols)
    while True:
        hop = np.take_along_axis(first, jump, axis=1)
        progressed = (first < 0) & (hop >= 0)
        if not progressed.any():
            break
        first = np.where(progressed, hop, first)
        jump = np.take_along_axis(jump, jump, axis=1)
    first[np.arange(b), src] = -1
    return first


def iter_first_hop_blocks(
    csr: CSRGraph, block_rows: Optional[int] = None
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Stream ``(lo, hi, first_hop_rows)`` blocks for every source.

    Runs the source-blocked APSP and folds each block's parents into
    first-hop rows without ever holding an ``(n, n)`` matrix; peak
    memory is proportional to ``block_rows * n``.  Concatenating the
    yielded blocks equals ``DistanceOracle.first_hop_matrix()``
    bit-for-bit for any ``block_rows``.
    """
    for lo, hi, _d, parent in apsp_blocks(csr, block_rows=block_rows):
        yield lo, hi, first_hops_for_sources(parent, np.arange(lo, hi))
