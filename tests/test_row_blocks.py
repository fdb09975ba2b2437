"""Row blocks, edge slots and compiled lookup errors.

Per-source table builds stream through row blocks
(:func:`repro.graph.blocked.default_block_rows`) so their transient
memory stays about one block's worth of entries.  Row blocks are not a
storage: whatever the block size, the result is the one-block matrix.
This suite locks that down and the building blocks beside it:

* property (hypothesis): for *any* block size — 1, ``n``, non-dividing —
  blocked APSP block concatenation equals the monolithic matrices
  bit-for-bit, and so does the full-table baseline's next-hop slot
  matrix folded block by block;
* every pair's CSR edge slot against dense head and weight matrices,
  and the block-size bounds;
* a missing compiled entry raises one message per table kind.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Network
from repro.exceptions import TableLookupError
from repro.graph.apsp import apsp_matrices, apsp_rows
from repro.graph.blocked import default_block_rows, next_hop_slots
from repro.graph.csr import CSRGraph, edge_slots
from repro.graph.digraph import Digraph
from repro.graph.generators import random_strongly_connected
from repro.graph.shortest_paths import DistanceOracle
from repro.runtime.engine import (
    PHASE_DIRECT,
    PHASE_DOWN,
    NextHopTable,
    compile_substrate_tables,
)

N = 32
FAMILIES = ("random", "torus")


@pytest.fixture(scope="module", params=FAMILIES)
def net(request) -> Network:
    return Network.from_family(request.param, N, seed=3)


def test_missing_entry_lookup_errors():
    """A missing entry raises the message that names the vertex, the
    target and, for the substrate, the leg phase."""
    step = NextHopTable(np.full((3, 3), -1, dtype=np.int32))
    at = np.array([2], dtype=np.int64)
    target = np.array([0], dtype=np.int64)
    with pytest.raises(TableLookupError, match="no compiled next hop at vertex 2"):
        step.step(at, target, step.begin_phase(at, target))
    # substrate legs: a missing direct entry and a missing down-tree entry
    step = compile_substrate_tables(
        Network.from_family("random", 16, seed=5).rtz()
    )
    off_diagonal = ~np.eye(16, dtype=bool)
    missing = {
        PHASE_DIRECT: np.argwhere((step.direct_slot < 0) & off_diagonal)[0],
        PHASE_DOWN: np.argwhere((step.down_slot < 0) & off_diagonal)[0],
    }
    for leg_phase, (at, target) in missing.items():
        with pytest.raises(TableLookupError) as exc:
            step.step(
                np.array([at]), np.array([target]),
                np.array([leg_phase], dtype=np.int8),
            )
        assert str(exc.value) == (
            f"no compiled substrate entry at vertex {at} toward {target} "
            f"(phase {leg_phase})"
        )


# ----------------------------------------------------------------------
# hypothesis: any block size is exact
# ----------------------------------------------------------------------


def _graph(n: int, seed: int) -> Digraph:
    return random_strongly_connected(n, rng=random.Random(seed))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    chunk_elems=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=5),
)
def test_apsp_rows_any_chunking_equals_monolithic(n, chunk_elems, seed):
    """Source blocks of any size — one row (the smallest chunk),
    non-dividing sizes, the whole range — reproduce the monolithic APSP
    matrices bit-for-bit, and so do scattered, repeated rows."""
    graph = _graph(n, seed)
    csr = CSRGraph.from_digraph(graph)
    d, parent = apsp_matrices(csr)
    for chunk in (1, chunk_elems):
        d_rows, p_rows = apsp_rows(csr, np.arange(n), chunk_elems=chunk)
        assert d_rows.dtype == d.dtype and p_rows.dtype == parent.dtype
        assert np.array_equal(d_rows, d)  # bit-identical floats (no inf here)
        assert np.array_equal(p_rows, parent)
    # ... and so do scattered rows: shuffled, with repeats
    rng = random.Random(seed * 100 + chunk_elems)
    sources = [rng.randrange(n) for _ in range(n + 3)]
    d_rows, p_rows = apsp_rows(csr, sources, chunk_elems=chunk_elems)
    assert np.array_equal(d_rows, d[sources])
    assert np.array_equal(p_rows, parent[sources])


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    block_rows=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=5),
)
def test_first_hop_blocks_equal_matrix(n, block_rows, seed):
    """The full-table baseline's slot matrix folded one block of
    sources at a time, for any block size — one row, non-dividing
    sizes, the whole range — is the one-block matrix, and each entry is
    the slot of the edge to the oracle's next hop."""
    graph = _graph(n, seed)
    oracle = DistanceOracle(graph)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.graph.blocked._BLOCK_ELEMS", block_rows * n)
        assert default_block_rows(n) == min(block_rows, n)
        split = next_hop_slots(oracle)
    whole = next_hop_slots(oracle)
    assert default_block_rows(n) == n
    assert split.dtype == whole.dtype == np.int32
    assert np.array_equal(split, whole)
    csr = CSRGraph.from_digraph(graph)
    u, t = np.nonzero(~np.eye(n, dtype=bool))
    slot = whole[u, t]
    assert ((csr.out_indptr[u] <= slot) & (slot < csr.out_indptr[u + 1])).all()
    assert np.array_equal(csr.out_heads[slot], oracle.next_hops(u, t))
    assert (np.diag(whole) == -1).all()


# ----------------------------------------------------------------------
# sparse building blocks
# ----------------------------------------------------------------------


def test_edge_slots_match_dense(net):
    """Every pair's slot, against dense head and weight matrices: an
    edge's slot reads back its head and its exact weight, a non-edge
    reads ``-1``."""
    csr = CSRGraph.from_digraph(net.graph)
    dense = np.full((net.n, net.n), np.nan)
    for u in range(net.n):
        for v, w in net.graph.out_neighbors(u):
            dense[u, v] = w
    tails, heads = np.divmod(np.arange(net.n * net.n), net.n)
    slots = edge_slots(net.graph, tails, heads)
    edge = ~np.isnan(dense[tails, heads])
    assert (slots[edge] >= 0).all() and (slots[~edge] == -1).all()
    assert np.array_equal(csr.out_heads[slots[edge]], heads[edge])
    assert np.array_equal(
        csr.out_weights[slots[edge]], dense[tails, heads][edge]
    )


def test_default_block_rows_bounds():
    assert default_block_rows(1) == 1
    assert default_block_rows(100) == 100  # tiny graphs: one block
    huge = default_block_rows(10**6)
    assert 1 <= huge < 10**6  # bounded per-block footprint
