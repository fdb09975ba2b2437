"""Tests for the runtime layer: sizing, simulator, stats, baseline."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.api.router import Router
from repro.exceptions import GraphError, HopLimitExceeded, RoutingError
from repro.graph.generators import (
    directed_cycle,
    random_strongly_connected,
)
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import identity_naming, random_naming
from repro.runtime.scheme import (
    Deliver,
    Forward,
    NEW_PACKET,
    RETURN_PACKET,
    RoutingScheme,
)
from repro.runtime.simulator import Simulator
from repro.runtime.sizing import (
    bit_size,
    entries_to_bits,
    header_bits,
    id_bits,
    log2_squared,
)
from repro.runtime.stats import (
    measure_stretch,
    measure_tables,
    measurement_pairs,
)
from repro.schemes.shortest_path import ShortestPathScheme
from repro.tree_routing.fixed_port import TreeAddress


class TestSizing:
    def test_id_bits(self):
        assert id_bits(2) == 1
        assert id_bits(1024) == 10
        assert id_bits(1025) == 11

    def test_bit_size_scalars(self):
        assert bit_size(None, 64) == 1
        assert bit_size(True, 64) == 1
        assert bit_size(5, 64) == 6
        assert bit_size(1.5, 64) == 32
        assert bit_size("out", 64) == 3

    def test_bit_size_containers(self):
        n = 64
        assert bit_size([1, 2, 3], n) == id_bits(n) + 3 * id_bits(n)
        assert bit_size((1,), n) == id_bits(n) * 2
        assert bit_size({1: 2}, n) == id_bits(n) * 3

    def test_bit_size_custom_protocol(self):
        addr = TreeAddress(tree_id=3, dfs=9)

        class Wrapper:
            def header_bits(self, n: int) -> int:
                return 42

        assert bit_size(Wrapper(), 64) == 42
        # TreeAddress itself has no header_bits; bit_size via its helper
        assert addr.bit_size(1024) == 20

    def test_bit_size_unknown_type(self):
        with pytest.raises(TypeError):
            bit_size(object(), 8)

    def test_header_bits_counts_tags(self):
        n = 64
        h = {"mode": "out", "dest": 5}
        assert header_bits(h, n) == (3 + 3) + (3 + id_bits(n))

    def test_entries_to_bits(self):
        assert entries_to_bits(10, 1024) == 10 * 2 * 10

    def test_log2_squared(self):
        assert log2_squared(16) == pytest.approx(16.0)


class _LoopScheme(RoutingScheme):
    """Deliberately broken scheme: bounces between two vertices."""

    name = "loop"

    def __init__(self, g, naming):
        self._g = g
        self._naming = naming

    @property
    def graph(self):
        return self._g

    def name_of(self, vertex):
        return self._naming.name_of(vertex)

    def vertex_of(self, name):
        return self._naming.vertex_of(name)

    def forward(self, at, header):
        # always forward on the first port
        return Forward(self._g.ports(at)[0], header)

    def table_entries(self, vertex):
        return 0


class _WrongDeliveryScheme(_LoopScheme):
    name = "wrong-delivery"

    def forward(self, at, header):
        return Deliver(header)  # delivers wherever it stands


class TestSimulator:
    def test_loop_detection(self):
        g = directed_cycle(6)
        scheme = _LoopScheme(g, identity_naming(6))
        sim = Simulator(scheme, hop_limit=30)
        with pytest.raises(HopLimitExceeded):
            sim.one_way(0, 3)

    def test_wrong_delivery_detected(self):
        g = directed_cycle(6)
        scheme = _WrongDeliveryScheme(g, identity_naming(6))
        sim = Simulator(scheme)
        with pytest.raises(RoutingError):
            sim.one_way(0, 3)

    def test_baseline_roundtrip_cycle(self):
        g = directed_cycle(8)
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(8))
        sim = Simulator(scheme)
        trace = sim.roundtrip(0, 3)
        assert trace.outbound.path[0] == 0
        assert trace.outbound.path[-1] == 3
        assert trace.inbound.path[0] == 3
        assert trace.inbound.path[-1] == 0
        assert trace.total_cost == pytest.approx(oracle.r(0, 3))
        assert trace.total_hops == 8

    def test_baseline_optimal_everywhere(self):
        g = random_strongly_connected(20, rng=random.Random(1))
        oracle = DistanceOracle(g)
        naming = random_naming(20, random.Random(2))
        scheme = ShortestPathScheme(oracle, naming)
        sim = Simulator(scheme)
        for s in range(0, 20, 3):
            for t in range(0, 20, 4):
                if s == t:
                    continue
                trace = sim.roundtrip(s, naming.name_of(t))
                assert trace.total_cost == pytest.approx(oracle.r(s, t))

    def test_headers_start_topology_free(self):
        g = directed_cycle(5)
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(5))
        h = scheme.new_packet_header(3)
        assert set(h) == {"mode", "dest"}
        assert h["mode"] == NEW_PACKET

    def test_return_header_mode(self):
        g = directed_cycle(5)
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(5))
        back = scheme.make_return_header({"mode": "out", "dest": 3, "src": 0})
        assert back["mode"] == RETURN_PACKET
        assert back["dest"] == 3  # learned fields retained

    def test_one_way_leg(self):
        g = directed_cycle(7)
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(7))
        trace = Simulator(scheme).one_way(2, 5)
        assert trace.path == [2, 3, 4, 5]
        assert trace.cost == pytest.approx(oracle.d(2, 5))
        assert trace.max_header_bits > 0


class TestStats:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_measurement_pairs_order_and_sample(self, n):
        """All pairs come in row-major order, and a sample is the pairs
        ``rng.sample(all_pairs, k)`` draws from the same seed."""
        every = [[s, t] for s in range(n) for t in range(n) if s != t]
        pairs = measurement_pairs(n)
        assert (pairs.dtype, pairs.shape) == (np.int64, (n * (n - 1), 2))
        assert pairs.tolist() == every
        for k in (0, 1, len(every) - 1):
            got = measurement_pairs(n, k, random.Random(k + n))
            assert got.shape == (k, 2)
            assert got.tolist() == random.Random(k + n).sample(every, k)
        assert measurement_pairs(n, len(every)).tolist() == every

    def test_measure_stretch_baseline_is_one(self):
        g = random_strongly_connected(16, rng=random.Random(3))
        oracle = DistanceOracle(g)
        naming = random_naming(16, random.Random(4))
        scheme = ShortestPathScheme(oracle, naming)
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch == pytest.approx(1.0)
        assert report.mean_stretch == pytest.approx(1.0)
        assert report.pairs == 16 * 15

    def test_measure_stretch_sampling(self):
        g = random_strongly_connected(16, rng=random.Random(5))
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(16))
        report = measure_stretch(Router(scheme, oracle), sample=30, rng=random.Random(0))
        assert report.pairs == 30

    def test_measure_stretch_explicit_pairs(self):
        g = directed_cycle(9)
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(9))
        report = measure_stretch(Router(scheme, oracle), pairs=[(0, 4), (2, 7)])
        assert report.pairs == 2
        assert report.worst_pair in {(0, 4), (2, 7)}

    def test_measure_stretch_rejects_self_pair(self):
        g = directed_cycle(5)
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(5))
        with pytest.raises(GraphError):
            measure_stretch(Router(scheme, oracle), pairs=[(1, 1)])

    @pytest.mark.parametrize("kw", [{"pairs": []}, {"sample": 0}])
    def test_measure_stretch_of_no_pairs_is_empty(self, kw):
        g = directed_cycle(5)
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(5))
        report = measure_stretch(Router(scheme, oracle), **kw)
        assert report.pairs == 0
        assert math.isnan(report.max_stretch)
        assert math.isnan(report.mean_stretch)
        assert report.worst_pair == (-1, -1)

    def test_measure_tables_baseline_linear(self):
        g = random_strongly_connected(12, rng=random.Random(6))
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(12))
        report = measure_tables(scheme)
        assert report.max_entries == 11
        assert report.mean_entries == pytest.approx(11.0)
        assert report.total_entries == 12 * 11
        assert report.max_bits == entries_to_bits(11, 12)

    def test_scheme_table_helpers(self):
        g = random_strongly_connected(10, rng=random.Random(7))
        oracle = DistanceOracle(g)
        scheme = ShortestPathScheme(oracle, identity_naming(10))
        assert scheme.max_table_entries() == 9
        assert scheme.mean_table_entries() == pytest.approx(9.0)


class TestBaselineNamingIndependence:
    def test_same_routes_under_any_naming(self):
        # the baseline's *routes* are naming-independent even though its
        # tables are keyed by names
        g = random_strongly_connected(14, rng=random.Random(8))
        oracle = DistanceOracle(g)
        for seed in range(3):
            naming = random_naming(14, random.Random(seed))
            scheme = ShortestPathScheme(oracle, naming)
            sim = Simulator(scheme)
            trace = sim.roundtrip(0, naming.name_of(7))
            assert trace.total_cost == pytest.approx(oracle.r(0, 7))
