"""Differential tests: the vectorized APSP engine vs the legacy
Python engine, plus CSR snapshot invariants.

The vectorized engine must be *bit-identical* to the sequential
Dijkstra — distances, roundtrips, and canonical tree parents — on
every standard graph family, across seeds, weighted and unweighted,
including the error path for non-strongly-connected inputs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import GraphError, NotStronglyConnectedError
from repro.graph import apsp
from repro.graph.apsp import (
    apsp_matrices,
    min_distances,
    vectorized_engine_supported,
)
from repro.graph.csr import CSRGraph, edge_ports, port_heads
from repro.graph.digraph import Digraph
from repro.graph.generators import (
    bidirected_torus,
    random_strongly_connected,
    standard_families,
)
from repro.graph.shortest_paths import DistanceOracle, dijkstra

FAMILIES = sorted(standard_families(8))
SEEDS = (0, 1, 2)


def _huge_weight_graph() -> Digraph:
    """At distance scales where the float ulp exceeds small edge
    weights, the batched tie window and the sequential fold can
    disagree; the vectorized engine must decline this graph."""
    g = Digraph(6)
    g.add_edge(0, 4, 0.5e16)
    g.add_edge(4, 3, 0.5e16)
    g.add_edge(0, 5, 0.9e16)
    g.add_edge(5, 2, 0.1e16)
    g.add_edge(2, 3, 1.0)
    g.add_edge(0, 1, 1.0)
    # close into one SCC with heavy return edges
    g.add_edge(1, 0, 1.0)
    g.add_edge(3, 0, 1.0)
    return g.freeze()


def _drift_prone_graphs(seed: int):
    """Sums of weights like 0.1 + 0.2 round differently per path
    order, exercising the tie-window logic."""
    yield random_strongly_connected(
        24, rng=random.Random(seed + 40), w_lo=0.1, w_hi=0.3
    )
    yield bidirected_torus(5, 5, rng=random.Random(seed + 50),
                           w_lo=0.5, w_hi=2.0)


def _assert_in_trees_match_dijkstra(g: Digraph) -> None:
    roots = list(range(g.n))[::-1]
    rows = DistanceOracle(g).in_tree_rows(roots)
    assert rows.shape == (g.n, g.n)
    for root, row in zip(roots, rows.tolist()):
        assert row == dijkstra(g, root, reverse=True)[1], (
            f"in-tree into {root} differs"
        )


def _assert_engines_identical(g: Digraph) -> None:
    ref = DistanceOracle(g, engine="python")
    vec = DistanceOracle(g, engine="vectorized")
    assert vec.engine == "vectorized" and ref.engine == "python"
    assert np.array_equal(ref.d_matrix, vec.d_matrix), "d matrices differ"
    assert np.array_equal(ref.r_matrix, vec.r_matrix), "r matrices differ"
    for s in range(g.n):
        assert ref.forward_tree_parents(s) == vec.forward_tree_parents(s), (
            f"parent tree from source {s} differs"
        )


class TestDifferential:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_standard_families_bit_identical(self, family: str, seed: int):
        g = standard_families(26, seed=seed)[family]
        _assert_engines_identical(g)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_weighted_drift_prone_graphs(self, seed: int):
        for g in _drift_prone_graphs(seed):
            _assert_engines_identical(g)

    def test_matches_raw_dijkstra(self):
        g = random_strongly_connected(30, rng=random.Random(3))
        d, parent = apsp_matrices(CSRGraph.from_digraph(g))
        for s in range(0, g.n, 5):
            dist, par = dijkstra(g, s)
            assert d[s].tolist() == dist
            assert parent[s].tolist() == par

    def test_non_strongly_connected_raises_identically(self):
        g = Digraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        g.add_edge(1, 2, 1.0)
        g.freeze()
        msgs = []
        for engine in ("python", "vectorized"):
            with pytest.raises(NotStronglyConnectedError) as exc:
                DistanceOracle(g, engine=engine)
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]

    def test_single_vertex_graph(self):
        g = Digraph(1).freeze()
        _assert_engines_identical(g)
        vec = DistanceOracle(g, engine="vectorized")
        assert vec.d(0, 0) == 0.0
        assert vec.forward_tree_parents(0) == [-1]

    def test_unknown_engine_rejected(self, triangle: Digraph):
        with pytest.raises(GraphError):
            DistanceOracle(triangle, engine="fortran")

    def test_huge_weight_scale_falls_back_to_python(self):
        # the auto engine must detect the graph and fall back
        g = _huge_weight_graph()
        oracle = DistanceOracle(g)
        assert oracle.engine == "python"
        ref = DistanceOracle(g, engine="python")
        assert np.array_equal(oracle.d_matrix, ref.d_matrix)
        for s in range(g.n):
            assert oracle.forward_tree_parents(s) == ref.forward_tree_parents(s)

    def test_tiny_weights_rejected_by_vectorized_engine(self):
        g = Digraph(2)
        g.add_edge(0, 1, 1e-13)
        g.add_edge(1, 0, 1.0)
        g.freeze()
        with pytest.raises(GraphError):
            DistanceOracle(g, engine="vectorized")
        # ... while "auto" transparently falls back to the python engine
        oracle = DistanceOracle(g)
        assert oracle.engine == "python"
        assert oracle.d(0, 1) == 1e-13

    def test_without_dense_weight_lookup(self, monkeypatch):
        # Force the large-n code path that skips the per-class dense
        # weight lookup.
        monkeypatch.setattr(apsp, "_DENSE_W_MAX_N", 0)
        g = random_strongly_connected(20, rng=random.Random(8))
        _assert_engines_identical(g)

    def test_without_scipy_warm_start(self, monkeypatch):
        # The numpy-only fallback (batched Bellman-Ford warm start)
        # must stay bit-identical too, through every APSP entry point.
        monkeypatch.setattr(apsp, "_sp_dijkstra", None)
        for family in ("random", "cycle", "layered"):
            g = standard_families(20, seed=4)[family]
            _assert_engines_identical(g)
            csr = CSRGraph.from_digraph(g)
            d, parent = apsp_matrices(csr)
            sources = [7, 0, 7, g.n - 1, 3]
            d_rows, p_rows = apsp.apsp_rows(csr, sources)
            assert np.array_equal(d_rows, d[sources])
            assert np.array_equal(p_rows, parent[sources])
            blocks = list(apsp.apsp_blocks(csr, block_rows=6))
            assert np.array_equal(np.concatenate([b[2] for b in blocks]), d)
            assert np.array_equal(np.concatenate([b[3] for b in blocks]), parent)

    def test_min_distances_matches_oracle(self):
        g = random_strongly_connected(24, rng=random.Random(5))
        oracle = DistanceOracle(g, engine="vectorized")
        m = min_distances(CSRGraph.from_digraph(g))
        assert np.allclose(m, oracle.d_matrix, rtol=0, atol=1e-9)

    def test_oracle_api_parity_for_paths(self):
        g = random_strongly_connected(22, rng=random.Random(6))
        ref = DistanceOracle(g, engine="python")
        vec = DistanceOracle(g, engine="vectorized")
        for u in range(0, g.n, 3):
            for v in range(g.n):
                if u == v:
                    continue
                assert ref.path(u, v) == vec.path(u, v)
                assert ref.next_hop(u, v) == vec.next_hop(u, v)
        assert ref.diameter() == vec.diameter()
        assert ref.rt_diameter() == vec.rt_diameter()



class TestInTreeRows:
    """``DistanceOracle.in_tree_rows`` against the reverse Dijkstra it
    replaces, row for row."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_standard_families_match_reverse_dijkstra(
        self, family: str, seed: int
    ):
        _assert_in_trees_match_dijkstra(standard_families(26, seed=seed)[family])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_weighted_drift_prone_graphs(self, seed: int):
        for g in _drift_prone_graphs(seed):
            _assert_in_trees_match_dijkstra(g)

    def test_huge_weight_scale_falls_back_to_python(self):
        g = _huge_weight_graph()
        assert not vectorized_engine_supported(CSRGraph.from_digraph(g))
        _assert_in_trees_match_dijkstra(g)

    def test_scattered_and_repeated_roots(self):
        g = random_strongly_connected(20, rng=random.Random(6))
        oracle = DistanceOracle(g)
        full = oracle.in_tree_rows(range(g.n))
        roots = [7, 0, 7, 19, 3]
        assert np.array_equal(oracle.in_tree_rows(roots), full[roots])
        assert oracle.in_tree_rows([]).shape == (0, g.n)

    def test_reversed_snapshot(self, small_random: Digraph):
        csr = CSRGraph.from_digraph(small_random)
        rev = csr.reversed_graph()
        assert rev is csr.reversed_graph()
        assert np.array_equal(rev.out_indptr, csr.in_indptr)
        assert np.array_equal(rev.out_heads, csr.in_tails)
        assert np.array_equal(rev.in_indptr, csr.out_indptr)
        assert np.array_equal(rev.in_tails, csr.out_heads)
        assert np.array_equal(rev.in_targets,
                              np.repeat(np.arange(csr.n), csr.out_degrees()))

class TestCSRGraph:
    def test_roundtrips_adjacency(self, small_random: Digraph):
        csr = CSRGraph.from_digraph(small_random)
        assert csr.n == small_random.n
        assert csr.m == small_random.m
        for u in range(small_random.n):
            heads, weights = csr.out_edges(u)
            assert sorted(zip(heads.tolist(), weights.tolist())) == sorted(
                small_random.out_neighbors(u)
            )
            tails, weights = csr.in_edges(u)
            assert sorted(zip(tails.tolist(), weights.tolist())) == sorted(
                small_random.in_neighbors(u)
            )

    def test_degree_arrays(self, small_random: Digraph):
        csr = CSRGraph.from_digraph(small_random)
        for u in range(small_random.n):
            assert csr.out_degrees()[u] == small_random.out_degree(u)
            assert csr.in_degrees()[u] == small_random.in_degree(u)

    def test_arrays_immutable(self, triangle: Digraph):
        csr = CSRGraph.from_digraph(triangle)
        for name in ("out_indptr", "out_heads", "out_weights",
                     "in_indptr", "in_tails", "in_weights", "in_targets"):
            with pytest.raises(ValueError):
                getattr(csr, name)[0] = 0

    def test_in_targets_segments(self, small_random: Digraph):
        csr = CSRGraph.from_digraph(small_random)
        assert np.array_equal(
            csr.in_targets,
            np.repeat(np.arange(csr.n), np.diff(csr.in_indptr)),
        )

    def test_min_weight_empty_graph(self):
        csr = CSRGraph.from_digraph(Digraph(1).freeze())
        assert csr.min_weight() == float("inf")


def test_pair_weights_match_digraph():
    g = random_strongly_connected(24, rng=random.Random(5))
    csr = CSRGraph.from_digraph(g)
    tails, heads = np.divmod(np.arange(g.n * g.n), g.n)
    w = csr.pair_weights(tails, heads).reshape(g.n, g.n)
    edges = 0
    for u in range(g.n):
        for (v, wt) in g.out_neighbors(u):
            assert w[u, v] == wt  # exact float identity
            edges += 1
    assert np.isnan(w).sum() == g.n * g.n - edges


class TestPortLookups:
    """``edge_ports`` / ``port_heads`` against ``Digraph.port_of`` /
    ``head_of_port`` (adversarial port numbers, every pair)."""

    def test_match_scalar_lookups(self):
        g = Digraph(6)
        rng = random.Random(3)
        for tail in range(6):
            for head in rng.sample([h for h in range(6) if h != tail], 3):
                g.add_edge(tail, head, 1.0)
        g.freeze(port_rng=random.Random(4))
        tails, heads = np.divmod(np.arange(-6, 48), 6)
        want = [
            g.port_of(t, h) if 0 <= t < 6 and g.has_edge(t, h) else -1
            for t, h in zip(tails.tolist(), heads.tolist())
        ]
        assert edge_ports(g, tails, heads).tolist() == want
        top = max(max(g.ports(u)) for u in range(6)) + 3
        tails, ports = np.divmod(np.arange(-top, 7 * top), top)
        ports -= 1
        want = [
            g.head_of_port(t, p) if 0 <= t < 6 and p in g.ports(t) else -1
            for t, p in zip(tails.tolist(), ports.tolist())
        ]
        assert port_heads(g, tails, ports).tolist() == want

    def test_edgeless_graph(self):
        g = Digraph(1).freeze()
        assert edge_ports(g, [0], [0]).tolist() == [-1]
        assert port_heads(g, [0], [0]).tolist() == [-1]
