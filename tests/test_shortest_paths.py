"""Tests for Dijkstra and the distance oracle."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.exceptions import GraphError, NotStronglyConnectedError
from repro.graph.blocked import next_hop_slots
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Digraph
from repro.graph.generators import (
    FAMILY_NAMES,
    directed_cycle,
    random_strongly_connected,
    standard_family,
)
from repro.graph.shortest_paths import (
    DistanceOracle,
    dijkstra,
    path_length,
    shortest_path,
)


class TestDijkstra:
    def test_triangle_distances(self, triangle: Digraph):
        dist, parent = dijkstra(triangle, 0)
        assert dist == [0.0, 1.0, 3.0]
        assert parent[1] == 0
        assert parent[2] == 1

    def test_reverse_distances(self, triangle: Digraph):
        # distances INTO vertex 0
        dist, _ = dijkstra(triangle, 0, reverse=True)
        assert dist[1] == 5.0  # 1->2->0
        assert dist[2] == 3.0

    def test_unreachable_is_inf(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.freeze()
        dist, _ = dijkstra(g, 0)
        assert dist[2] == math.inf

    def test_shortest_path_extraction(self, triangle: Digraph):
        assert shortest_path(triangle, 0, 2) == [0, 1, 2]

    def test_shortest_path_unreachable_raises(self):
        g = Digraph(2)
        g.add_edge(0, 1, 1.0)
        g.freeze()
        with pytest.raises(GraphError):
            shortest_path(g, 1, 0)

    def test_path_length(self, triangle: Digraph):
        assert path_length(triangle, [0, 1, 2]) == 3.0

    def test_matches_bruteforce_on_random_graphs(self):
        # Compare against Bellman-Ford-style DP on small graphs.
        for seed in range(5):
            g = random_strongly_connected(14, rng=random.Random(seed))
            n = g.n
            for s in range(0, n, 5):
                dist, _ = dijkstra(g, s)
                bf = [math.inf] * n
                bf[s] = 0.0
                for _ in range(n):
                    for u in range(n):
                        for (v, w) in g.out_neighbors(u):
                            if bf[u] + w < bf[v]:
                                bf[v] = bf[u] + w
                assert all(
                    abs(a - b) < 1e-9 for a, b in zip(dist, bf)
                ), f"seed={seed} source={s}"

    def test_parent_pointers_form_shortest_paths(self):
        g = random_strongly_connected(20, rng=random.Random(3))
        dist, parent = dijkstra(g, 0)
        for v in range(1, g.n):
            # walk back to source accumulating weight
            total, x = 0.0, v
            while x != 0:
                p = parent[x]
                total += g.weight(p, x)
                x = p
            assert abs(total - dist[v]) < 1e-9


class TestShortestPathCaching:
    def test_one_dijkstra_per_source_on_frozen_graphs(self, monkeypatch):
        import repro.graph.shortest_paths as sp

        g = random_strongly_connected(18, rng=random.Random(2))
        calls = []
        real = sp.dijkstra
        monkeypatch.setattr(
            sp, "dijkstra", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        expected = {}
        for t in range(1, g.n):
            expected[t] = sp.shortest_path(g, 0, t)
        assert len(calls) == 1  # one tree serves every target
        # cached answers match a fresh computation
        for t, path in expected.items():
            d, par = real(g, 0)
            fresh = [t]
            while fresh[-1] != 0:
                fresh.append(par[fresh[-1]])
            fresh.reverse()
            assert path == fresh

    def test_unfrozen_graphs_not_cached(self, monkeypatch):
        import repro.graph.shortest_paths as sp

        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        calls = []
        real = sp.dijkstra
        monkeypatch.setattr(
            sp, "dijkstra", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        sp.shortest_path(g, 0, 2)
        sp.shortest_path(g, 0, 2)
        assert len(calls) == 2  # mutable graph: no caching

    def test_live_oracle_serves_shortest_path(self, monkeypatch):
        import repro.graph.shortest_paths as sp

        g = random_strongly_connected(16, rng=random.Random(4))
        oracle = DistanceOracle(g)
        calls = []
        real = sp.dijkstra
        monkeypatch.setattr(
            sp, "dijkstra", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        for u in range(0, g.n, 3):
            for v in range(g.n):
                if u != v:
                    assert sp.shortest_path(g, u, v) == oracle.path(u, v)
        assert calls == []  # served entirely from the oracle's trees

    def test_identity_path(self):
        g = random_strongly_connected(8, rng=random.Random(5))
        assert shortest_path(g, 3, 3) == [3]
        DistanceOracle(g)
        assert shortest_path(g, 3, 3) == [3]


class TestDistanceOracle:
    def test_rejects_non_strongly_connected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.freeze()
        with pytest.raises(NotStronglyConnectedError):
            DistanceOracle(g)

    def test_matrix_against_dijkstra(self, small_random: Digraph):
        oracle = DistanceOracle(small_random)
        for s in range(0, small_random.n, 7):
            dist, _ = dijkstra(small_random, s)
            assert np.allclose(oracle.d_matrix[s], dist)

    def test_roundtrip_symmetry(self, small_oracle: DistanceOracle):
        r = small_oracle.r_matrix
        assert np.allclose(r, r.T)

    def test_roundtrip_definition(self, small_oracle: DistanceOracle):
        n = small_oracle.n
        for u in range(0, n, 5):
            for v in range(0, n, 3):
                assert small_oracle.r(u, v) == pytest.approx(
                    small_oracle.d(u, v) + small_oracle.d(v, u)
                )

    def test_cycle_distances(self):
        g = directed_cycle(10)
        oracle = DistanceOracle(g)
        assert oracle.d(0, 1) == 1.0
        assert oracle.d(1, 0) == 9.0
        assert oracle.r(0, 1) == 10.0
        # every pair on a unit cycle has roundtrip exactly n
        assert np.allclose(
            oracle.r_matrix + 10 * np.eye(10), np.full((10, 10), 10.0)
        )

    def test_path_is_shortest(self, small_oracle: DistanceOracle):
        g = small_oracle.graph
        for u in range(0, g.n, 6):
            for v in range(0, g.n, 4):
                if u == v:
                    continue
                p = small_oracle.path(u, v)
                assert p[0] == u and p[-1] == v
                assert path_length(g, p) == pytest.approx(small_oracle.d(u, v))

    def test_next_hop_consistent_with_path(self, small_oracle: DistanceOracle):
        for u in range(0, small_oracle.n, 5):
            for v in range(small_oracle.n):
                if u == v:
                    continue
                p = small_oracle.path(u, v)
                assert small_oracle.next_hop(u, v) == p[1]

    def test_next_hop_self_raises(self, small_oracle: DistanceOracle):
        with pytest.raises(GraphError):
            small_oracle.next_hop(3, 3)

    def test_diameters(self):
        g = directed_cycle(8)
        oracle = DistanceOracle(g)
        assert oracle.diameter() == 7.0
        assert oracle.rt_diameter() == 8.0

    def test_forward_tree_parents(self, small_oracle: DistanceOracle):
        parents = small_oracle.forward_tree_parents(0)
        assert parents[0] == -1
        g = small_oracle.graph
        for v in range(1, small_oracle.n):
            p = parents[v]
            assert g.has_edge(p, v)
            assert small_oracle.d(0, p) + g.weight(p, v) == pytest.approx(
                small_oracle.d(0, v)
            )

    def test_first_hop_matrix_matches_next_hop(
        self, small_oracle: DistanceOracle
    ):
        """The first hops folded from the parent trees (as CSR out-edge
        slots, the full-table baseline's one table) lead to
        ``next_hop`` for every pair, ``-1`` on the diagonal."""
        slots = next_hop_slots(small_oracle)
        heads = CSRGraph.from_digraph(small_oracle.graph).out_heads
        n = small_oracle.n
        assert slots.shape == (n, n)
        assert not slots.flags.writeable
        for u in range(n):
            assert slots[u, u] == -1
            for v in range(n):
                if u != v:
                    assert heads[slots[u, v]] == small_oracle.next_hop(u, v)

    def test_first_hop_matrix_cycle(self):
        g = directed_cycle(6)
        slots = next_hop_slots(DistanceOracle(g))
        heads = CSRGraph.from_digraph(g).out_heads
        for u in range(6):
            for v in range(6):
                if u != v:
                    assert heads[slots[u, v]] == (u + 1) % 6


class TestParentMatrix:
    """The oracle's canonical out-trees are one read-only ``(n, n)``
    int32 matrix, whichever constructor made it."""

    @staticmethod
    def assert_read_only_int32(oracle: DistanceOracle) -> None:
        parent = oracle._parent
        assert parent.dtype == np.int32
        assert parent.shape == (oracle.n, oracle.n)
        assert not parent.flags.writeable
        with pytest.raises(ValueError):
            parent[0, 0] = 0

    def test_every_constructor(self, small_random: Digraph):
        vec = DistanceOracle(small_random, engine="vectorized")
        ref = DistanceOracle(small_random, engine="python")
        int64 = DistanceOracle.from_arrays(
            small_random, vec.d_matrix, vec.parent_matrix()
        )
        for oracle in (vec, ref, int64):
            self.assert_read_only_int32(oracle)
            assert np.array_equal(oracle._parent, vec._parent)
        assert vec.parent_matrix().dtype == np.int64
        assert vec.forward_tree_parents(3) == vec.parent_matrix()[3].tolist()

    def test_from_arrays_leaves_caller_array_writeable(
        self, small_random: Digraph
    ):
        vec = DistanceOracle(small_random)
        mine = vec.parent_matrix().astype(np.int32)
        oracle = DistanceOracle.from_arrays(small_random, vec.d_matrix, mine)
        assert np.shares_memory(oracle._parent, mine)
        assert mine.flags.writeable
        self.assert_read_only_int32(oracle)

    def test_store_blob_is_not_copied(self, tmp_path, small_random: Digraph):
        from repro.api.artifacts import get_artifact_spec
        from repro.api.network import Network
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        Network(small_random, store=store).oracle()
        net = Network(small_random, store=store)
        entry = store.get(get_artifact_spec("oracle").store_key(net, {}))
        assert isinstance(entry.arrays["parent"], np.memmap)
        oracle = get_artifact_spec("oracle").load(net, entry)
        assert np.shares_memory(oracle._parent, entry.arrays["parent"])
        self.assert_read_only_int32(oracle)


def list_walk_path(parents, u: int, v: int) -> list:
    """Today's path walk over one tree's parents as a Python list."""
    path = [v]
    while path[-1] != u:
        path.append(parents[path[-1]])
    path.reverse()
    return path


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_path_and_next_hop_equal_list_walk(family: str):
    oracle = DistanceOracle(standard_family(family, 24, seed=2))
    n = oracle.n
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for u, v in pairs:
        path = list_walk_path(oracle.forward_tree_parents(u), u, v)
        assert oracle.path(u, v) == path
        assert oracle.next_hop(u, v) == path[1]
        assert all(type(x) is int for x in oracle.path(u, v))
    u, v = np.array(pairs).T
    hops = oracle.next_hops(u, v)
    assert hops.tolist() == [oracle.next_hop(a, b) for a, b in pairs]
    assert oracle.next_hops(u[:0], v[:0]).shape == (0,)
