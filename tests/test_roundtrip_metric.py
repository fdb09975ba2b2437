"""Tests for the roundtrip metric, Init_v order, and neighborhoods."""

from __future__ import annotations

import math
import random

import pytest

from repro.exceptions import GraphError
from repro.graph.digraph import Digraph
from repro.graph.generators import (
    asymmetric_torus,
    directed_cycle,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric, verify_metric_axioms
from repro.graph.shortest_paths import DistanceOracle


class TestMetricAxioms:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_satisfy_axioms(self, seed: int):
        g = random_strongly_connected(18, rng=random.Random(seed))
        verify_metric_axioms(RoundtripMetric(DistanceOracle(g)))

    def test_cycle_satisfies_axioms(self):
        verify_metric_axioms(RoundtripMetric(DistanceOracle(directed_cycle(9))))

    def test_asymmetric_torus_satisfies_axioms(self):
        g = asymmetric_torus(3, 4)
        verify_metric_axioms(RoundtripMetric(DistanceOracle(g)))


class TestInitOrder:
    def test_starts_with_self(self, small_metric: RoundtripMetric):
        for v in range(small_metric.n):
            assert small_metric.init_order(v)[0] == v

    def test_is_permutation(self, small_metric: RoundtripMetric):
        for v in range(0, small_metric.n, 5):
            order = small_metric.init_order(v)
            assert sorted(order) == list(range(small_metric.n))

    def test_sorted_by_roundtrip(self, small_metric: RoundtripMetric):
        for v in range(0, small_metric.n, 4):
            order = small_metric.init_order(v)
            rts = [small_metric.r(v, u) for u in order]
            assert rts == sorted(rts)

    def test_tiebreak_by_one_way_distance_then_id(self):
        # Build a graph where two nodes have equal roundtrip to 0 but
        # different one-way distance into 0.
        g = Digraph(4)
        # cycle 0->1->0 length 4 (2+2); 0->2->0 length 4 (1+3)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 0, 2.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(2, 0, 3.0)
        g.add_edge(0, 3, 10.0)
        g.add_edge(3, 0, 10.0)
        g.freeze()
        m = RoundtripMetric(DistanceOracle(g))
        # r(0,1) == r(0,2) == 4; d(1,0)=2 < d(2,0)=3 so 1 precedes 2
        assert m.r(0, 1) == m.r(0, 2) == 4.0
        assert m.precedes(0, 1, 2)
        assert m.init_order(0)[:3] == [0, 1, 2]

    def test_tiebreak_uses_adversarial_ids(self):
        # Symmetric triangle: with equal r and d the ID decides; flip
        # the naming and the order must flip too.
        g = Digraph(3)
        for u in range(3):
            for v in range(3):
                if u != v:
                    g.add_edge(u, v, 1.0)
        g.freeze()
        oracle = DistanceOracle(g)
        m_identity = RoundtripMetric(oracle, ids=[0, 1, 2])
        m_flipped = RoundtripMetric(oracle, ids=[2, 1, 0])
        assert m_identity.init_order(0) == [0, 1, 2]
        assert m_flipped.init_order(0) == [0, 2, 1]

    def test_order_is_total(self, small_metric: RoundtripMetric):
        # No two distinct nodes compare equal under the order key.
        for v in range(0, small_metric.n, 8):
            keys = [small_metric.order_key(v, u) for u in range(small_metric.n)]
            assert len(set(keys)) == small_metric.n

    def test_bad_ids_length_rejected(self, small_oracle: DistanceOracle):
        with pytest.raises(GraphError):
            RoundtripMetric(small_oracle, ids=[0, 1])


class TestNeighborhoods:
    def test_sqrt_neighborhood_size(self, small_metric: RoundtripMetric):
        expected = int(math.ceil(math.sqrt(small_metric.n)))
        for v in range(small_metric.n):
            assert len(small_metric.sqrt_neighborhood(v)) == expected

    def test_neighborhood_prefix_property(self, small_metric: RoundtripMetric):
        for v in range(0, small_metric.n, 6):
            n5 = small_metric.neighborhood(v, 5)
            n9 = small_metric.neighborhood(v, 9)
            assert n9[:5] == n5

    def test_neighborhood_clamped_to_n(self, small_metric: RoundtripMetric):
        assert len(small_metric.neighborhood(0, 10 ** 6)) == small_metric.n

    def test_negative_size_rejected(self, small_metric: RoundtripMetric):
        with pytest.raises(GraphError):
            small_metric.neighborhood(0, -1)

    def test_level_neighborhood_sizes(self, small_metric: RoundtripMetric):
        n, k = small_metric.n, 3
        assert small_metric.level_neighborhood(0, 0, k) == [0]
        assert len(small_metric.level_neighborhood(0, k, k)) == n
        size1 = len(small_metric.level_neighborhood(0, 1, k))
        assert size1 == int(math.ceil(n ** (1 / 3)))
        # ceil(32^{4/5}) is exactly 16 (the float power reads 16.000...04)
        cycle = RoundtripMetric(DistanceOracle(directed_cycle(32)))
        assert len(cycle.level_neighborhood(0, 4, 5)) == 16

    def test_level_out_of_range(self, small_metric: RoundtripMetric):
        with pytest.raises(GraphError):
            small_metric.level_neighborhood(0, 4, 3)
        with pytest.raises(GraphError):
            small_metric.level_neighborhood(0, -1, 3)

    def test_ball_contents(self, small_metric: RoundtripMetric):
        for v in range(0, small_metric.n, 7):
            radius = small_metric.radius_of_kth(v, 6)
            ball = small_metric.ball(v, radius)
            assert v in ball
            for w in ball:
                assert small_metric.r(v, w) <= radius + 1e-9
            for w in range(small_metric.n):
                if w not in ball:
                    assert small_metric.r(v, w) > radius

    def test_ball_contains_shortest_cycle_vertices(self, small_metric):
        # Every vertex on a shortest cycle v->w->v lies in the ball of
        # radius r(v, w) — the closure property the covers rely on.
        oracle = small_metric.oracle
        for v in range(0, small_metric.n, 9):
            for w in range(small_metric.n):
                if v == w:
                    continue
                ball = set(small_metric.ball(v, small_metric.r(v, w)))
                cycle = oracle.path(v, w)[:-1] + oracle.path(w, v)
                for x in cycle:
                    assert x in ball


class TestClusterGeometry:
    def test_rt_center_minimizes_eccentricity(self, small_metric):
        members = list(range(0, small_metric.n, 3))
        c = small_metric.rt_center(members)
        ecc_c = max(small_metric.r(c, w) for w in members)
        for cand in members:
            ecc = max(small_metric.r(cand, w) for w in members)
            assert ecc_c <= ecc

    def test_rt_radius_definition(self, small_metric):
        members = list(range(0, small_metric.n, 4))
        c = small_metric.rt_center(members)
        assert small_metric.rt_radius(members) == pytest.approx(
            max(small_metric.r(c, w) for w in members)
        )

    def test_rt_diameter_bounds_radius(self, small_metric):
        members = list(range(0, small_metric.n, 2))
        rad = small_metric.rt_radius(members)
        diam = small_metric.rt_diameter(members)
        assert rad <= diam <= 2 * rad + 1e-9

    def test_empty_cluster_raises(self, small_metric):
        with pytest.raises(GraphError):
            small_metric.rt_center([])

    def test_nearest_respects_order(self, small_metric):
        order = small_metric.init_order(0)
        assert small_metric.nearest(0, order[5:]) == order[5]

    def test_nearest_empty_raises(self, small_metric):
        with pytest.raises(GraphError):
            small_metric.nearest(0, [])
