"""Row blocks, and first hops folded from canonical parent trees.

:func:`default_block_rows` sizes the row blocks that every per-source
table build streams through, so transient memory stays about one
block's worth of entries whatever ``n`` is.

:func:`next_hop_slots` is the full-table baseline's one next-hop
table: ``slots[s, v]`` is the CSR out-edge slot of the first hop on
the canonical shortest path ``s -> v``.  Each row block is seeded with
the slots of its sources' tree-child edges and filled down the
oracle's parent rows by pointer doubling (:func:`fold_first_hops`).
Row ``s`` is a pure function of source ``s``'s parent tree, so blocks
of *any* size — 1, ``n``, or anything that does not divide ``n`` —
yield the same matrix bit for bit; the hypothesis suite in
``tests/test_row_blocks.py`` asserts this.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConstructionError
from repro.graph.csr import CSRGraph

#: Target entries per row block: 1 << 22 int32 entries is 16 MiB,
#: small enough to stream on a laptop at n = 10^5 yet big enough that
#: per-block overhead (the per-block fold and gather dispatch) stays noise.
_BLOCK_ELEMS = 1 << 22


def default_block_rows(n: int, width: Optional[int] = None) -> int:
    """Rows per block of an ``n``-row table with ``width`` entries per
    row (default ``n``) so one block holds ~:data:`_BLOCK_ELEMS` entries
    (always at least 1, at most ``n``)."""
    width = n if width is None else width
    return max(1, min(max(n, 1), _BLOCK_ELEMS // max(width, 1)))


def fold_first_hops(parent_rows: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Carry each tree child's value down its subtree, in place.

    Row ``i`` of the ``(b, n)`` int32 ``first`` holds a value (``>= 0``)
    at every child of its tree's root — the vertices whose
    ``parent_rows[i]`` entry is the root — and ``-1`` elsewhere.  Every
    other vertex of the tree takes the value of the child whose subtree
    holds it, the first hop on the root's canonical path to it, by
    pointer doubling.  The root and vertices outside the tree keep
    ``-1``.  ``parent_rows`` is only read.  Returns ``first``.
    """
    parent = np.asarray(parent_rows)
    n = parent.shape[1]
    jump = np.where(parent >= 0, parent, np.arange(n, dtype=parent.dtype))
    todo = first < 0
    while True:
        hop = np.take_along_axis(first, jump, axis=1)
        found = hop >= 0
        found &= todo
        if not found.any():
            return first
        np.copyto(first, hop, where=found)
        todo ^= found
        del hop, found  # free both before the doubled jump is built
        jump = np.take_along_axis(jump, jump, axis=1)


def next_hop_slots(oracle) -> np.ndarray:
    """The read-only ``(n, n)`` int32 matrix whose ``[s, v]`` entry is
    the CSR out-edge slot of the first hop on the oracle's canonical
    path ``s -> v`` (``-1`` on the diagonal and where ``v`` is
    unreachable), built one :func:`default_block_rows` block of sources
    at a time.

    Raises:
        ConstructionError: when a parent row names a tree child that no
            out-edge of its source reaches.
    """
    g = oracle.graph
    n = oracle.n
    csr = CSRGraph.from_digraph(g)
    indptr = csr.out_indptr
    slots = np.full((n, n), -1, dtype=np.int32)
    step = default_block_rows(n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        sources = np.arange(lo, hi)
        parent = oracle.parent_rows(slice(lo, hi))
        block = slots[lo:hi]
        # every out-edge of the block's sources, and which of them are
        # tree-child edges: those seed their head's entry with the slot
        edge = np.arange(indptr[lo], indptr[hi])
        row = np.repeat(sources - lo, np.diff(indptr[lo:hi + 1]))
        head = csr.out_heads[edge]
        child = parent[row, head] == row + lo
        block[row[child], head[child]] = edge[child]
        orphan = (parent == sources[:, None]) & (block < 0)
        if orphan.any():
            i, v = np.argwhere(orphan)[0]
            raise ConstructionError(
                f"compiled entry names no edge: ({lo + int(i)}, {int(v)}) "
                f"is not in the digraph"
            )
        fold_first_hops(parent, block)
    slots.flags.writeable = False
    return slots
