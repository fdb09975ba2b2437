"""Tests for the Fig. 1 baseline schemes (RTZ-3 name-dependent)."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from repro.api import Network
from repro.api.router import Router
from repro.exceptions import ConstructionError
from repro.graph.generators import (
    FAMILY_NAMES,
    directed_cycle,
    random_strongly_connected,
    standard_family,
)
from repro.graph.csr import CSRGraph
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import identity_naming, random_naming
from repro.runtime.simulator import Simulator
from repro.runtime.stats import measure_stretch, measure_tables
from repro.schemes.rtz_baseline import RTZBaselineScheme
from repro.schemes.shortest_path import ShortestPathScheme
from table_storage import forced


def build(g, naming_seed=0, rng_seed=1):
    oracle = DistanceOracle(g)
    naming = random_naming(g.n, random.Random(naming_seed))
    metric = RoundtripMetric(oracle, ids=naming.all_names())
    scheme = RTZBaselineScheme(metric, naming, rng=random.Random(rng_seed))
    return oracle, naming, scheme


class TestRTZBaseline:
    @pytest.mark.parametrize("seed", range(3))
    def test_stretch_three_all_pairs(self, seed: int):
        g = random_strongly_connected(24, rng=random.Random(seed))
        oracle, _naming, scheme = build(g, seed, seed + 1)
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= 3.0 + 1e-9

    def test_cycle_stretch_three(self):
        g = directed_cycle(17, rng=random.Random(4))
        oracle, _naming, scheme = build(g)
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= 3.0 + 1e-9

    def test_one_way_leg_bound(self):
        # Lemma 2: p(u, v) <= r(u, v) + d(u, v) on the forward leg.
        g = random_strongly_connected(20, rng=random.Random(5))
        oracle, naming, scheme = build(g)
        sim = Simulator(scheme)
        for s in range(0, 20, 2):
            for t in range(0, 20, 3):
                if s == t:
                    continue
                leg = sim.one_way(s, naming.name_of(t))
                assert leg.cost <= oracle.r(s, t) + oracle.d(s, t) + 1e-9

    def test_tables_sublinear_vs_shortest_path(self):
        g = random_strongly_connected(64, rng=random.Random(6))
        oracle = DistanceOracle(g)
        naming = identity_naming(64)
        metric = RoundtripMetric(oracle)
        compact = RTZBaselineScheme(metric, naming, rng=random.Random(0))
        full = ShortestPathScheme(oracle, naming)
        assert (
            measure_tables(compact).mean_entries
            < measure_tables(full).mean_entries
        )

    def test_roundtrip_headers_small(self):
        g = random_strongly_connected(32, rng=random.Random(7))
        oracle, _naming, scheme = build(g)
        report = measure_stretch(Router(scheme, oracle), sample=80, rng=random.Random(1))
        from repro.runtime.sizing import log2_squared

        assert report.max_header_bits <= 6 * log2_squared(32)

    def test_substrate_shared(self):
        from repro.rtz.routing import RTZStretch3

        g = random_strongly_connected(12, rng=random.Random(8))
        oracle = DistanceOracle(g)
        metric = RoundtripMetric(oracle)
        rtz = RTZStretch3(metric, random.Random(0))
        scheme = RTZBaselineScheme(metric, identity_naming(12), substrate=rtz)
        assert scheme.rtz is rtz


class TestShortestPathTables:
    """The one slot matrix against the scalar reference: entry
    ``[u, t]`` is the slot of the edge from ``u`` to
    ``oracle.next_hop(u, t)``, and ``forward`` takes that edge's port."""

    @staticmethod
    def assert_matches_next_hop(oracle, naming):
        g = oracle.graph
        scheme = ShortestPathScheme(oracle, naming)
        with forced("blocked"):
            slots = scheme.compiled_routes().tables.slots
        assert slots.dtype == np.int32 and not slots.flags.writeable
        assert slots.shape == (g.n, g.n)
        edges = list(g.edges())  # edge i is CSR out-slot i
        out_heads = CSRGraph.from_digraph(g).out_heads
        for u in range(g.n):
            assert slots[u, u] == -1
            assert scheme.table_entries(u) == g.n - 1
            for t in range(g.n):
                if t == u:
                    continue
                nxt = oracle.next_hop(u, t)
                edge = edges[slots[u, t]]
                assert (edge.tail, edge.head) == (u, nxt)
                assert out_heads[slots[u, t]] == nxt
                assert edge.port == g.port_of(u, nxt)
                header = {"mode": "out", "dest": naming.name_of(t), "src": 0}
                assert scheme.forward(u, header).port == g.port_of(u, nxt)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_table_equals_next_hop_loop(self, family: str):
        g = standard_family(family, 30, seed=1)
        oracle = DistanceOracle(g)
        naming = random_naming(g.n, random.Random(3))
        self.assert_matches_next_hop(oracle, naming)

    def test_split_row_blocks(self, monkeypatch):
        import repro.graph.blocked as blocked

        g = random_strongly_connected(29, rng=random.Random(2))
        oracle = DistanceOracle(g)
        naming = random_naming(g.n, random.Random(4))
        monkeypatch.setattr(blocked, "_BLOCK_ELEMS", 4 * g.n)
        assert blocked.default_block_rows(g.n) == 4  # 8 blocks, the last 1 row
        self.assert_matches_next_hop(oracle, naming)

    def test_tree_child_without_edge_is_a_construction_error(self):
        g = random_strongly_connected(12, rng=random.Random(5))
        oracle = DistanceOracle(g)
        u, v = next(
            (u, v) for u in range(g.n) for v in range(g.n)
            if u != v and not g.has_edge(u, v)
        )
        parent = oracle.parent_matrix()
        parent[u, v] = u  # v hangs off u in u's tree, with no edge u -> v
        broken = DistanceOracle.from_arrays(g, oracle.d_matrix, parent)
        with pytest.raises(ConstructionError, match=rf"\({u}, {v}\) is not in"):
            ShortestPathScheme(broken, identity_naming(g.n))

    def test_one_table_held_once(self):
        """Both storages compile to the table ``forward`` reads, and
        the scheme plus both compiles hold at most two ``(n, n)`` int32
        matrices' worth of memory (the matrix itself is one)."""
        net = Network.from_family("random", 256, seed=1, store=None)
        oracle, naming = net.oracle(), net.naming()
        warm = ShortestPathScheme(oracle, naming)  # caches and imports
        for storage in ("dense", "blocked"):
            with forced(storage):
                warm.compiled_routes()
        del warm
        tracemalloc.start()
        try:
            scheme = ShortestPathScheme(oracle, naming)
            with forced("dense"):
                dense = scheme.compiled_routes()
            with forced("blocked"):
                blocked = scheme.compiled_routes()
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dense.tables is blocked.tables is scheme._next_hop
        assert held <= 2 * 4 * net.n ** 2
