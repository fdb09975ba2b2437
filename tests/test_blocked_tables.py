"""The blocked-tables lockdown suite: memory + bit-identity differential.

Above ``REPRO_DENSE_MAX_N`` vertices the compiled engine stores the
Lemma 2 substrate's tables blocked (sorted pair tables, the landmark
factorization) instead of dense ``(n, n)`` matrices
(:func:`repro.graph.limits.table_storage`).  The blocked storage claims
**bit identity** with the dense one and the hop-by-hop Python
simulator — same paths, same float costs, same hop counts, same header
bits, same ``HopLimitExceeded`` ordering — while never materializing an
``(n, n)`` matrix it does not strictly need.  This suite locks both
halves down, forcing either storage by moving the threshold:

* differential: every compiled scheme x random+torus x all three
  execution paths (python / dense / blocked) produce identical traces;
* property (hypothesis): for *any* block size — 1, ``n``, non-dividing —
  blocked APSP block concatenation equals the monolithic matrices
  bit-for-bit, and so does the full-table baseline's next-hop slot
  matrix folded block by block;
* the size rule: dense up to the threshold, blocked above it, and a
  malformed threshold is an error, not a silent default;
* memory: landmark-factored substrate tables stay o(n²).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Network
from repro.cli import main
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.apsp import apsp_matrices, apsp_rows
from repro.graph.blocked import default_block_rows, next_hop_slots
from repro.graph.csr import CSRGraph, PairTable, edge_slots
from repro.graph.digraph import Digraph
from repro.graph.generators import random_strongly_connected
from repro.graph.limits import (
    DEFAULT_DENSE_MAX_N,
    dense_table_max_n,
    table_storage,
)
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import identity_naming
from repro.runtime.engine import (
    PHASE_DIRECT,
    PHASE_DOWN,
    NextHopTable,
    SubstrateStepTables,
    compile_substrate_tables,
)
from repro.runtime.simulator import Simulator
from repro.runtime.traffic import generate_workload, run_workload
from repro.schemes.shortest_path import ShortestPathScheme
from table_storage import forced

N = 32
PAIRS = 48
FAMILIES = ("random", "torus")

#: every scheme that compiles must serve identically from both storages
COMPILED = (
    "rtz",
    "shortest_path",
    "stretch6",
    "stretch6_via_source",
    "wild_names",
)


@pytest.fixture(scope="module", params=FAMILIES)
def net(request) -> Network:
    return Network.from_family(request.param, N, seed=3)


def assert_stored_as(scheme, storage: str) -> None:
    """The scheme's compile under the current threshold really uses
    ``storage`` (the full-table baseline's one matrix serves both)."""
    step = scheme.compiled_routes().tables
    if isinstance(step, SubstrateStepTables):
        assert isinstance(step.direct_slot, PairTable) == (storage == "blocked")
        assert isinstance(step.down_slot, PairTable) == (storage == "blocked")


def assert_traces_equal(a_traces, b_traces):
    assert len(a_traces) == len(b_traces)
    for a, b in zip(a_traces, b_traces):
        for leg_a, leg_b in (
            (a.outbound, b.outbound),
            (a.inbound, b.inbound),
        ):
            assert leg_a.path == leg_b.path
            assert leg_a.cost == leg_b.cost  # bit-identical floats
            assert leg_a.hops == leg_b.hops
            assert leg_a.max_header_bits == leg_b.max_header_bits


# ----------------------------------------------------------------------
# differential: python vs dense vs blocked, every compiled scheme
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme_name", COMPILED)
def test_blocked_traces_bit_identical(net, scheme_name):
    scheme = net.build_scheme(scheme_name)
    workload = generate_workload(
        "mixed", net.n, PAIRS, rng=random.Random(7), oracle=net.oracle()
    )
    py = Simulator(scheme).roundtrip_many(workload.pairs, engine="python")
    vec = {}
    for storage in ("dense", "blocked"):
        with forced(storage):
            assert_stored_as(scheme, storage)
            vec[storage] = Simulator(scheme).roundtrip_many(
                workload.pairs, engine="vectorized"
            )
    assert_traces_equal(py, vec["dense"])
    assert_traces_equal(vec["dense"], vec["blocked"])


@pytest.mark.parametrize("scheme_name", COMPILED)
def test_blocked_summaries_bit_identical(net, scheme_name):
    scheme = net.build_scheme(scheme_name)
    workload = generate_workload(
        "uniform", net.n, PAIRS, rng=random.Random(19), oracle=net.oracle()
    )
    with forced("dense"):
        dense = run_workload(
            scheme, workload, oracle=net.oracle(), engine="vectorized"
        )
    with forced("blocked"):
        assert_stored_as(scheme, "blocked")
        blocked = run_workload(
            scheme, workload, oracle=net.oracle(), engine="vectorized"
        )
    assert dense.total_cost == blocked.total_cost
    assert dense.total_hops == blocked.total_hops
    assert dense.max_hops == blocked.max_hops
    assert dense.max_header_bits == blocked.max_header_bits
    assert dense.mean_stretch == blocked.mean_stretch
    assert dense.max_stretch == blocked.max_stretch
    assert dense.worst_pair == blocked.worst_pair


def test_table_storage_rule(monkeypatch):
    """Dense up to the threshold, blocked above it, whatever moves it."""
    monkeypatch.delenv("REPRO_DENSE_MAX_N", raising=False)
    assert table_storage(DEFAULT_DENSE_MAX_N) == "dense"
    assert table_storage(DEFAULT_DENSE_MAX_N + 1) == "blocked"
    assert table_storage(1) == "dense"
    monkeypatch.setenv("REPRO_DENSE_MAX_N", "10")
    assert [table_storage(n) for n in (9, 10, 11)] == ["dense", "dense", "blocked"]
    with forced("blocked"):
        assert table_storage(2) == "blocked"
    with forced("dense"):
        assert table_storage(DEFAULT_DENSE_MAX_N) == "dense"


def test_auto_flips_to_blocked_above_threshold(monkeypatch):
    monkeypatch.setenv("REPRO_DENSE_MAX_N", "16")
    net = Network.from_family("random", 24, seed=9)
    router = net.router("stretch6")
    assert router.resolve_engine() == "vectorized"
    assert_stored_as(router.scheme, "blocked")
    # ... and still serves bit-identically to the python reference.
    py = net.router("stretch6", engine="python").route_many([(0, 7), (3, 20)])
    vec = router.route_many([(0, 7), (3, 20)])
    assert [(r.cost, r.hops, r.max_header_bits) for r in py] == [
        (r.cost, r.hops, r.max_header_bits) for r in vec
    ]


def test_blocked_lookup_error_matches_dense():
    """A missing entry raises the same message from either storage."""
    # next hops: both storages read one matrix
    step = NextHopTable(np.full((3, 3), -1, dtype=np.int32))
    at = np.array([2], dtype=np.int64)
    target = np.array([0], dtype=np.int64)
    with pytest.raises(TableLookupError, match="no compiled next hop at vertex 2"):
        step.step(at, target, step.begin_phase(at, target))
    # substrate legs: a missing direct entry and a missing down-tree
    # entry, looked up in both storages
    substrate = Network.from_family("random", 16, seed=5).rtz()
    with forced("dense"):
        dense = compile_substrate_tables(substrate)
    off_diagonal = ~np.eye(16, dtype=bool)
    missing = {
        PHASE_DIRECT: np.argwhere((dense.direct_slot < 0) & off_diagonal)[0],
        PHASE_DOWN: np.argwhere((dense.down_slot < 0) & off_diagonal)[0],
    }
    for leg_phase, (at, target) in missing.items():
        expected = (
            f"no compiled substrate entry at vertex {at} toward {target} "
            f"(phase {leg_phase})"
        )
        for storage in ("dense", "blocked"):
            with forced(storage):
                step = compile_substrate_tables(substrate)
            with pytest.raises(TableLookupError) as exc:
                step.step(
                    np.array([at]), np.array([target]),
                    np.array([leg_phase], dtype=np.int8),
                )
            assert str(exc.value) == expected


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
# the threshold: REPRO_DENSE_MAX_N
# ----------------------------------------------------------------------


def _baseline(n: int) -> ShortestPathScheme:
    return ShortestPathScheme(DistanceOracle(_graph(n, seed=2)), identity_naming(n))


class TestDenseTableLimit:
    def test_threshold_default_and_malformed_values(self, monkeypatch):
        """Unset or empty is the default; anything but a positive
        integer is an error naming the variable and the value, not a
        silent fallback to the default."""
        monkeypatch.delenv("REPRO_DENSE_MAX_N", raising=False)
        assert dense_table_max_n() == DEFAULT_DENSE_MAX_N
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "")
        assert dense_table_max_n() == DEFAULT_DENSE_MAX_N
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "77")
        assert dense_table_max_n() == 77
        for raw in ("not-a-number", "1e1", "10k", "-5", "0", "2.5"):
            monkeypatch.setenv("REPRO_DENSE_MAX_N", raw)
            with pytest.raises(ConstructionError) as err:
                dense_table_max_n()
            assert str(err.value) == (
                f"REPRO_DENSE_MAX_N must be a positive integer, got {raw!r}"
            )
            with pytest.raises(ConstructionError):
                _baseline(8).compiled_routes()

    def test_malformed_threshold_exits_the_cli_with_one_line(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "10k")
        with pytest.raises(SystemExit) as exc:
            main(["traffic", "--n", "12", "--pairs", "8", "--no-store"])
        assert str(exc.value) == (
            "REPRO_DENSE_MAX_N must be a positive integer, got '10k'"
        )

    def test_within_threshold_still_builds(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "12")
        compiled = _baseline(12).compiled_routes()
        assert compiled.tables.slots.shape == (12, 12)
        stretch6 = Network.from_family(
            "random", 12, seed=2, store=None
        ).build_scheme("stretch6")
        assert_stored_as(stretch6, "dense")


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


def test_landmark_tables_are_subquadratic(net):
    """The o(n²) claim, asserted at an affordable n: the landmark
    factorization must undercut even one dense int32 ``(n, n)`` matrix
    (the dense substrate family holds two of those)."""
    big = Network.from_family("random", 128, seed=7)
    scheme = big.build_scheme("stretch6")
    with forced("blocked"):
        tables = compile_substrate_tables(scheme.rtz)
    assert isinstance(tables.direct_slot, PairTable)
    assert isinstance(tables.down_slot, PairTable)
    n = big.n
    assert tables.nbytes() < 4 * n * n
    with forced("dense"):
        dense = compile_substrate_tables(scheme.rtz)
    assert tables.nbytes() < dense.nbytes() / 2
