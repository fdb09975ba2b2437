"""Edge cases: the smallest legal networks through every scheme.

n = 2 and n = 3 exercise every degenerate branch at once: blocks of
size 1, landmark sets containing everyone, neighborhoods equal to V,
hierarchies with a single level, and prefix ladders of length 1.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Network, Router
from repro.covers.hierarchy import TreeHierarchy
from repro.covers.sparse_cover import DoubleTreeCover
from repro.dictionary.distribution import BlockDistribution
from repro.graph.digraph import Digraph
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.blocks import BlockSpace
from repro.naming.permutation import Naming, identity_naming
from repro.runtime.simulator import Simulator
from repro.runtime.stats import measure_stretch
from repro.rtz.routing import RTZStretch3
from repro.schemes.exstretch import ExStretchScheme
from repro.schemes.polystretch import PolynomialStretchScheme
from repro.schemes.rtz_baseline import RTZBaselineScheme
from repro.schemes.shortest_path import ShortestPathScheme
from repro.schemes.stretch6 import StretchSixScheme


def two_cycle() -> Digraph:
    g = Digraph(2)
    g.add_edge(0, 1, 1.5)
    g.add_edge(1, 0, 2.5)
    return g.freeze()


def three_asym() -> Digraph:
    g = Digraph(3)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 5.0)
    g.add_edge(2, 0, 1.0)
    g.add_edge(2, 1, 2.0)
    return g.freeze()


def four_mixed() -> Digraph:
    g = Digraph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(2, 3, 1.0)
    g.add_edge(3, 0, 1.0)
    g.add_edge(0, 2, 3.0)
    g.add_edge(2, 0, 3.0)
    return g.freeze()


GRAPHS = [two_cycle, three_asym, four_mixed]


@pytest.mark.parametrize("make", GRAPHS)
class TestAllSchemesOnTinyGraphs:
    def _instance(self, make):
        g = make()
        oracle = DistanceOracle(g)
        naming = Naming(list(reversed(range(g.n))))  # adversarial flip
        metric = RoundtripMetric(oracle, ids=naming.all_names())
        return g, oracle, naming, metric

    def test_shortest_path(self, make):
        g, oracle, naming, _metric = self._instance(make)
        scheme = ShortestPathScheme(oracle, naming)
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch == pytest.approx(1.0)

    def test_rtz_baseline(self, make):
        g, oracle, naming, metric = self._instance(make)
        scheme = RTZBaselineScheme(metric, naming, rng=random.Random(0))
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= 3.0 + 1e-9

    def test_stretch6(self, make):
        g, oracle, naming, metric = self._instance(make)
        scheme = StretchSixScheme(metric, naming, rng=random.Random(1))
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= 6.0 + 1e-9

    def test_exstretch(self, make):
        g, oracle, naming, metric = self._instance(make)
        scheme = ExStretchScheme(metric, naming, k=2, rng=random.Random(2))
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_polystretch(self, make):
        g, oracle, naming, metric = self._instance(make)
        scheme = PolynomialStretchScheme(metric, naming, k=2)
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9


class TestTinySubstrates:
    def test_rtz_on_two_nodes(self):
        g = two_cycle()
        metric = RoundtripMetric(DistanceOracle(g))
        rtz = RTZStretch3(metric, random.Random(3))
        assert rtz.route_leg(0, 1) == [0, 1]
        assert rtz.route_leg(1, 0) == [1, 0]

    def test_blocks_n2(self):
        bs = BlockSpace(2, 2)
        assert bs.q == 2
        assert sorted(
            x for b in range(bs.num_blocks()) for x in bs.block_members(b)
        ) == [0, 1]

    def test_distribution_n2(self):
        g = two_cycle()
        metric = RoundtripMetric(DistanceOracle(g))
        dist = BlockDistribution(metric, BlockSpace(2, 2), random.Random(4))
        dist.verify()

    def test_cover_n2(self):
        g = two_cycle()
        metric = RoundtripMetric(DistanceOracle(g))
        dtc = DoubleTreeCover(metric, 2, 4.0)
        dtc.verify()

    def test_hierarchy_n2(self):
        g = two_cycle()
        metric = RoundtripMetric(DistanceOracle(g))
        h = TreeHierarchy(metric, 2)
        h.verify()
        assert h.best_tree_for_pair(0, 1).contains(0)

    def test_single_pair_roundtrip_cost_exact_cases(self):
        # On the 2-cycle all schemes must achieve stretch exactly 1:
        # there is only one simple roundtrip.
        g = two_cycle()
        oracle = DistanceOracle(g)
        naming = identity_naming(2)
        metric = RoundtripMetric(oracle)
        for scheme in (
            StretchSixScheme(metric, naming, rng=random.Random(5)),
            ExStretchScheme(metric, naming, k=2, rng=random.Random(6)),
            PolynomialStretchScheme(metric, naming, k=2),
        ):
            trace = Simulator(scheme).roundtrip(0, 1)
            assert trace.total_cost == pytest.approx(oracle.r(0, 1))

    def test_network_artifacts_tiny(self):
        net = Network(three_asym(), seed=7, store=None)
        assert net.metric().n == 3
