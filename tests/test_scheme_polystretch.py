"""Tests for the Section 4 PolynomialStretch TINN scheme."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.api import Network
from repro.exceptions import ConstructionError
from repro.graph.generators import (
    bidirected_torus,
    directed_cycle,
    random_dht_overlay,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import identity_naming, random_naming
from repro.runtime.simulator import Simulator
from repro.runtime.stats import measure_stretch, measure_tables
from repro.schemes.polystretch import PolynomialStretchScheme


def table_rows(scheme):
    """Every dictionary row as ``(tree_id, u, j, tau, v)``, decoded from
    the scheme's one sorted-key table."""
    n, q = scheme.metric.n, scheme.blocks.q
    node, col = np.divmod(scheme._rows.keys, scheme._rows.n)
    return list(zip(
        (node // n).tolist(), (node % n).tolist(),
        (col // q).tolist(), (col % q).tolist(),
        scheme._rows.values.tolist(),
    ))


def scalar_rows(scheme):
    """``_index_tree`` as the scheme ran it before it held one table:
    per (tree, member), ``(j, tau) -> (v, address of v)`` with ``v`` the
    nearest other member whose name shares ``u``'s first ``j`` digits
    and has digit ``tau`` next.  The reference the table is checked
    against."""
    naming, metric, blocks, k = scheme._naming, scheme.metric, scheme.blocks, scheme.k
    rows = {}
    for cov in scheme.hierarchy.levels:
        for tree in cov.trees:
            digits = {v: blocks.digits(naming.name_of(v)) for v in tree.members}
            for u in tree.members:
                found = {}
                for j in range(k):
                    for tau in range(blocks.q):
                        candidates = [
                            v for v in tree.members
                            if v != u and digits[v][:j] == digits[u][:j]
                            and digits[v][j] == tau
                        ]
                        if candidates:
                            v = metric.nearest(u, candidates)
                            found[(j, tau)] = (v, tree.address_of(v))
                rows[(tree.tree_id, u)] = found
    return rows


def build(g, k=2, naming_seed=0):
    oracle = DistanceOracle(g)
    naming = random_naming(g.n, random.Random(naming_seed))
    metric = RoundtripMetric(oracle, ids=naming.all_names())
    scheme = PolynomialStretchScheme(metric, naming, k=k)
    return oracle, naming, scheme


class TestDeliveryAndStretch:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graph_all_pairs(self, seed: int):
        g = random_strongly_connected(20, rng=random.Random(seed))
        oracle, _naming, scheme = build(g, 2, seed)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_k3(self):
        g = random_strongly_connected(27, rng=random.Random(3))
        oracle, _naming, scheme = build(g, 3)
        report = measure_stretch(scheme, oracle, sample=150, rng=random.Random(0))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_cycle(self):
        g = directed_cycle(14, rng=random.Random(4))
        oracle, _naming, scheme = build(g, 2)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_torus(self):
        g = bidirected_torus(4, 4, rng=random.Random(5))
        oracle, _naming, scheme = build(g, 2)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_dht(self):
        g = random_dht_overlay(20, rng=random.Random(6))
        oracle, _naming, scheme = build(g, 2)
        report = measure_stretch(scheme, oracle, sample=120, rng=random.Random(1))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_paths_wellformed(self):
        g = random_strongly_connected(16, rng=random.Random(7))
        oracle, naming, scheme = build(g)
        sim = Simulator(scheme)
        for s in range(0, 16, 3):
            for t in range(0, 16, 5):
                if s == t:
                    continue
                trace = sim.roundtrip(s, naming.name_of(t))
                assert trace.outbound.path[0] == s
                assert trace.outbound.path[-1] == t
                assert trace.inbound.path[-1] == s


class TestLevelSearch:
    def test_succeeds_at_containing_level(self):
        """The search must succeed no later than the first level whose
        home tree of s contains t."""
        g = random_strongly_connected(18, rng=random.Random(8))
        oracle, naming, scheme = build(g)
        h = scheme.hierarchy
        sim = Simulator(scheme)
        for s in range(0, 18, 4):
            for t in range(18):
                if s == t:
                    continue
                level = h.first_common_home_level(s, t)
                # route and check the cost is bounded by the level's
                # geometry: failed levels + success level, each at most
                # (k+1) roundtrips through the center, doubled heights
                trace = sim.roundtrip(s, naming.name_of(t))
                k = scheme.k
                bound = 0.0
                for i in range(level + 1):
                    height = (2 * k - 1) * (2.0 ** i)
                    bound += 2 * (k + 1) * height
                assert trace.total_cost <= bound + 1e-9

    def test_prefix_match_monotone_within_tree(self):
        # Waypoint rows always strictly increase the match length.
        g = random_strongly_connected(16, rng=random.Random(9))
        _oracle, naming, scheme = build(g)
        bs = scheme.blocks
        for _tree_id, u, j, tau, v in table_rows(scheme):
            name_u = naming.name_of(u)
            name_v = naming.name_of(v)
            assert bs.match_length(name_u, name_v) >= j
            assert bs.digits(name_v)[j] == tau

    def test_row_targets_are_members(self):
        g = random_strongly_connected(14, rng=random.Random(10))
        _oracle, _naming, scheme = build(g)
        for tree_id, u, _j, _tau, v in table_rows(scheme):
            tree = scheme.hierarchy.tree_by_id(tree_id)
            assert tree.contains(u)
            assert tree.contains(v)

    def test_row_is_nearest_candidate(self):
        g = random_strongly_connected(14, rng=random.Random(11))
        _oracle, naming, scheme = build(g)
        metric = scheme.metric
        bs = scheme.blocks
        # spot-check a handful of rows for nearest-ness
        checked = 0
        per_node = {}
        for tree_id, u, j, tau, v in table_rows(scheme):
            rows = per_node.setdefault((tree_id, u), [])
            if len(rows) < 2:
                rows.append((j, tau, v))
        for (tree_id, u), rows in per_node.items():
            for j, tau, v in rows:
                tree = scheme.hierarchy.tree_by_id(tree_id)
                cands = [
                    w
                    for w in tree.members
                    if w != u
                    and bs.digits(naming.name_of(w))[:j]
                    == bs.digits(naming.name_of(u))[:j]
                    and bs.digits(naming.name_of(w))[j] == tau
                ]
                assert metric.nearest(u, cands) == v
                checked += 1
            if checked > 40:
                break
        assert checked > 0


class TestArrayRows:
    """The one dictionary-row table equals the scalar ``_index_tree``
    reference, entry for entry."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", ["random", "cycle", "torus", "dht"])
    def test_matches_scalar_index_tree(self, family, seed, k):
        net = Network.from_family(family, 24, seed=seed, store=None)
        scheme = net.build_scheme("polystretch", k=k)
        n, bs = net.n, scheme.blocks
        reference = scalar_rows(scheme)
        for (tree_id, u), found in reference.items():
            tree = scheme.hierarchy.tree_by_id(tree_id)
            for (j, tau), (v, addr) in found.items():
                got = scheme._rows.get(tree_id * n + u, j * bs.q + tau)
                assert got == v
                assert tree.address_of(got) == addr
            # the python engine's lookup, toward every other name
            name_u = scheme.name_of(u)
            for name in range(n):
                if name == name_u:
                    continue
                h = bs.match_length(name_u, name)
                want = found.get((h, bs.digits(name)[h]))
                assert scheme._next_node(u, tree_id, name) == want
        assert scheme._rows.keys.shape[0] == sum(map(len, reference.values()))
        per_node = [0] * n
        for (_tree_id, u), found in reference.items():
            per_node[u] += len(found)
        assert scheme.table_items()["(2c) dictionary rows"].tolist() == per_node


class TestConstructionAndSizes:
    def test_k1_rejected(self):
        g = random_strongly_connected(9, rng=random.Random(12))
        oracle = DistanceOracle(g)
        with pytest.raises(ConstructionError):
            PolynomialStretchScheme(
                RoundtripMetric(oracle), identity_naming(9), k=1
            )

    def test_hierarchy_sharing(self):
        from repro.covers.hierarchy import TreeHierarchy

        g = random_strongly_connected(12, rng=random.Random(13))
        oracle = DistanceOracle(g)
        metric = RoundtripMetric(oracle)
        h = TreeHierarchy(metric, 2)
        scheme = PolynomialStretchScheme(
            metric, identity_naming(12), k=2, hierarchy=h
        )
        assert scheme.hierarchy is h
        report = measure_stretch(scheme, oracle, sample=40, rng=random.Random(3))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_tables_nonempty(self):
        g = random_strongly_connected(12, rng=random.Random(14))
        _oracle, _naming, scheme = build(g)
        report = measure_tables(scheme)
        assert report.max_entries > 0

    def test_works_under_many_namings(self):
        g = random_strongly_connected(14, rng=random.Random(15))
        oracle = DistanceOracle(g)
        for seed in range(3):
            naming = random_naming(14, random.Random(seed))
            metric = RoundtripMetric(oracle, ids=naming.all_names())
            scheme = PolynomialStretchScheme(metric, naming, k=2)
            report = measure_stretch(
                scheme, oracle, sample=40, rng=random.Random(seed)
            )
            assert report.max_stretch <= scheme.stretch_bound() + 1e-9
