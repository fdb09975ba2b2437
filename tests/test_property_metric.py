"""Hypothesis property tests for the graph substrate and metric.

These generate random strongly connected weighted digraphs (via a
random backbone cycle plus chords, the same construction the library's
generator uses but driven by hypothesis-chosen parameters) and check
the invariants every scheme's correctness rests on.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    bidirected_torus,
    directed_cycle,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric, level_size
from repro.graph.scc import is_strongly_connected
from repro.graph.shortest_paths import DistanceOracle, dijkstra, path_length
from repro.naming.permutation import random_naming

graph_params = st.tuples(
    st.integers(min_value=3, max_value=28),     # n
    st.floats(min_value=1.0, max_value=4.0),    # avg out-degree
    st.integers(),                              # seed
)


#: unit-weight graphs, where roundtrip distances tie everywhere
tie_heavy_graphs = st.one_of(
    st.integers(min_value=2, max_value=30).map(directed_cycle),
    st.tuples(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=3, max_value=6),
    ).map(lambda shape: bidirected_torus(*shape)),
)


def make_graph(params):
    n, deg, seed = params
    return random_strongly_connected(n, avg_out_degree=deg, rng=random.Random(seed))


def named_metric(g, name_seed) -> RoundtripMetric:
    naming = random_naming(g.n, random.Random(name_seed))
    return RoundtripMetric(DistanceOracle(g), ids=naming.all_names())


def assert_neighborhoods_match_order_key(metric: RoundtripMetric) -> None:
    """Every row of the array kernel equals the scalar definition: the
    first ``size`` vertices sorted by :meth:`RoundtripMetric.order_key`."""
    n = metric.n
    orders = [
        sorted(range(n), key=lambda u: metric.order_key(v, u))
        for v in range(n)
    ]
    for size in (0, 1, level_size(n, 1, 2), n):
        rows = metric.neighborhoods(size)
        assert rows.shape == (n, size)
        assert not rows.flags.writeable
        for v in range(n):
            assert rows[v].tolist() == orders[v][:size]


class TestGraphProperties:
    @given(graph_params)
    @settings(max_examples=40, deadline=None)
    def test_generator_strongly_connected(self, params):
        assert is_strongly_connected(make_graph(params))

    @given(graph_params)
    @settings(max_examples=25, deadline=None)
    def test_dijkstra_tree_paths_match_distances(self, params):
        g = make_graph(params)
        dist, parent = dijkstra(g, 0)
        for v in range(1, g.n):
            path = [v]
            while path[-1] != 0:
                path.append(parent[path[-1]])
            path.reverse()
            assert abs(path_length(g, path) - dist[v]) < 1e-9

    @given(graph_params)
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_metric_axioms(self, params):
        g = make_graph(params)
        oracle = DistanceOracle(g)
        r = oracle.r_matrix
        n = g.n
        assert np.allclose(r, r.T)
        assert np.all(np.diag(r) == 0)
        for v in range(n):
            via = r[:, v][:, None] + r[v, :][None, :]
            assert np.all(r <= via + 1e-9)

    @given(graph_params, st.integers())
    @settings(max_examples=20, deadline=None)
    def test_init_order_total_and_self_first(self, params, name_seed):
        g = make_graph(params)
        naming = random_naming(g.n, random.Random(name_seed))
        metric = RoundtripMetric(DistanceOracle(g), ids=naming.all_names())
        for v in range(0, g.n, max(1, g.n // 4)):
            order = metric.init_order(v)
            assert order[0] == v
            assert sorted(order) == list(range(g.n))
            keys = [metric.order_key(v, u) for u in order]
            assert keys == sorted(keys)

    @given(graph_params, st.integers())
    @settings(max_examples=20, deadline=None)
    def test_neighborhoods_match_order_key(self, params, name_seed):
        assert_neighborhoods_match_order_key(
            named_metric(make_graph(params), name_seed)
        )

    @given(tie_heavy_graphs, st.integers())
    @settings(max_examples=20, deadline=None)
    def test_neighborhoods_match_order_key_under_ties(self, g, name_seed):
        assert_neighborhoods_match_order_key(named_metric(g, name_seed))

    def test_neighborhoods_match_order_key_across_row_blocks(self, monkeypatch):
        """Row blocks of two or three rows, none dividing ``n``."""
        import repro.graph.blocked as blocked

        monkeypatch.setattr(blocked, "_BLOCK_ELEMS", 64)
        for seed, g in enumerate((
            directed_cycle(23),
            bidirected_torus(4, 5),
            random_strongly_connected(29, rng=random.Random(3)),
        )):
            assert blocked.default_block_rows(g.n) < g.n
            assert_neighborhoods_match_order_key(named_metric(g, seed))

    @given(graph_params)
    @settings(max_examples=20, deadline=None)
    def test_ball_closure_under_shortest_cycles(self, params):
        # The property Theorem 13's clusters rely on: shortest cycles
        # through ball members stay within the ball radius.
        g = make_graph(params)
        oracle = DistanceOracle(g)
        metric = RoundtripMetric(oracle)
        v = 0
        for w in range(1, g.n):
            radius = metric.r(v, w)
            ball = set(metric.ball(v, radius))
            cycle = oracle.path(v, w)[:-1] + oracle.path(w, v)
            assert set(cycle) <= ball

    @given(graph_params)
    @settings(max_examples=15, deadline=None)
    def test_cluster_closure_property(self, params):
        # The RTZ direct-route closure: x on a shortest u->v path has
        # r(x, v) <= r(u, v).
        g = make_graph(params)
        oracle = DistanceOracle(g)
        for u in range(0, g.n, max(1, g.n // 3)):
            for v in range(g.n):
                if u == v:
                    continue
                for x in oracle.path(u, v)[1:-1]:
                    assert oracle.r(x, v) <= oracle.r(u, v) + 1e-9
