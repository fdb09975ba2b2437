"""Tests for the Fig. 1 baseline schemes (RTZ-3 name-dependent)."""

from __future__ import annotations

import random

import pytest

from repro.api.router import Router
from repro.graph.generators import (
    FAMILY_NAMES,
    directed_cycle,
    random_strongly_connected,
    standard_family,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import identity_naming, random_naming
from repro.runtime.simulator import Simulator
from repro.runtime.stats import measure_stretch, measure_tables
from repro.schemes.rtz_baseline import RTZBaselineScheme
from repro.schemes.shortest_path import ShortestPathScheme


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
    """The first-hop-row build against the per-pair loop it replaces."""

    @staticmethod
    def scalar_tables(oracle, naming):
        g = oracle.graph
        return [
            {
                naming.name_of(t): g.port_of(u, oracle.next_hop(u, t))
                for t in range(g.n)
                if t != u
            }
            for u in range(g.n)
        ]

    @staticmethod
    def assert_same(got, want):
        assert got == want
        assert [list(row) for row in got] == [list(row) for row in want]

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_table_equals_next_hop_loop(self, family: str):
        g = standard_family(family, 30, seed=1)
        oracle = DistanceOracle(g)
        naming = random_naming(g.n, random.Random(3))
        self.assert_same(
            ShortestPathScheme(oracle, naming)._table,
            self.scalar_tables(oracle, naming),
        )

    def test_split_row_blocks(self, monkeypatch):
        import repro.graph.blocked as blocked

        g = random_strongly_connected(29, rng=random.Random(2))
        oracle = DistanceOracle(g)
        naming = random_naming(g.n, random.Random(4))
        want = self.scalar_tables(oracle, naming)
        monkeypatch.setattr(blocked, "_BLOCK_ELEMS", 4 * g.n)
        self.assert_same(ShortestPathScheme(oracle, naming)._table, want)
