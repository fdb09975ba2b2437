"""Tests for the Section 2 stretch-6 TINN scheme."""

from __future__ import annotations

import random

import pytest

from repro.api import Network
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.generators import (
    FAMILY_NAMES,
    asymmetric_torus,
    bidirected_torus,
    directed_cycle,
    random_dht_overlay,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import identity_naming, random_naming
from repro.runtime.simulator import Simulator
from repro.runtime.sizing import log2_squared
from repro.runtime.stats import measure_stretch, measure_tables
from repro.schemes.stretch6 import StretchSixScheme
from repro.schemes.wild_names import WildNameStretchSix


def build(g, naming_seed=0, rng_seed=1):
    oracle = DistanceOracle(g)
    naming = random_naming(g.n, random.Random(naming_seed))
    metric = RoundtripMetric(oracle, ids=naming.all_names())
    scheme = StretchSixScheme(metric, naming, rng=random.Random(rng_seed))
    return oracle, naming, scheme


class TestDeliveryAndStretch:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graph_all_pairs(self, seed: int):
        g = random_strongly_connected(26, rng=random.Random(seed))
        oracle, naming, scheme = build(g, seed, seed + 1)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= StretchSixScheme.STRETCH_BOUND + 1e-9

    def test_cycle_all_pairs(self):
        g = directed_cycle(20, rng=random.Random(5))
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= 6.0 + 1e-9

    def test_torus_all_pairs(self):
        g = bidirected_torus(4, 5, rng=random.Random(6))
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= 6.0 + 1e-9

    def test_asymmetric_torus(self):
        g = asymmetric_torus(4, 4)
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= 6.0 + 1e-9

    def test_dht_overlay(self):
        g = random_dht_overlay(24, rng=random.Random(7))
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle)
        assert report.max_stretch <= 6.0 + 1e-9

    def test_near_destination_stretch_three(self):
        # Case t in N(s): the paper's analysis promises stretch 3.
        g = random_strongly_connected(25, rng=random.Random(8))
        oracle, naming, scheme = build(g)
        sim = Simulator(scheme)
        metric = scheme.metric
        for s in range(25):
            for t in metric.sqrt_neighborhood(s):
                if t == s:
                    continue
                trace = sim.roundtrip(s, naming.name_of(t))
                assert trace.total_cost <= 3 * oracle.r(s, t) + 1e-9

    def test_roundtrip_paths_wellformed(self):
        g = random_strongly_connected(20, rng=random.Random(9))
        oracle, naming, scheme = build(g)
        sim = Simulator(scheme)
        for s in range(0, 20, 3):
            for t in range(0, 20, 4):
                if s == t:
                    continue
                trace = sim.roundtrip(s, naming.name_of(t))
                assert trace.outbound.path[0] == s
                assert trace.outbound.path[-1] == t
                assert trace.inbound.path[0] == t
                assert trace.inbound.path[-1] == s


class TestNamingIndependence:
    def test_works_under_many_namings(self):
        g = random_strongly_connected(18, rng=random.Random(10))
        oracle = DistanceOracle(g)
        for seed in range(4):
            naming = random_naming(18, random.Random(seed))
            metric = RoundtripMetric(oracle, ids=naming.all_names())
            scheme = StretchSixScheme(metric, naming, rng=random.Random(99))
            report = measure_stretch(
                scheme, oracle, sample=60, rng=random.Random(seed)
            )
            assert report.max_stretch <= 6.0 + 1e-9

    def test_fresh_packet_carries_name_only(self):
        g = directed_cycle(9)
        _oracle, naming, scheme = build(g)
        header = scheme.new_packet_header(naming.name_of(4))
        assert set(header) == {"mode", "dest"}


class TestSizes:
    def test_header_within_log_squared_budget(self):
        g = random_strongly_connected(32, rng=random.Random(11))
        oracle, naming, scheme = build(g)
        report = measure_stretch(scheme, oracle, sample=120, rng=random.Random(0))
        # O(log^2 n) with a small constant
        assert report.max_header_bits <= 8 * log2_squared(32)

    def test_tables_scale_near_sqrt(self):
        sizes = {}
        for n in (16, 64):
            g = random_strongly_connected(n, rng=random.Random(n))
            _oracle, _naming, scheme = build(g, n, n + 1)
            sizes[n] = measure_tables(scheme).max_entries
        # quadrupling n should roughly double table size (sqrt shape);
        # allow generous slack for the log factors
        assert sizes[64] <= sizes[16] * 2 * 4

    def test_every_node_stores_something(self):
        g = random_strongly_connected(16, rng=random.Random(12))
        _oracle, _naming, scheme = build(g)
        for v in range(16):
            assert scheme.table_entries(v) > 0


class TestConstruction:
    def test_naming_size_mismatch_rejected(self):
        g = random_strongly_connected(10, rng=random.Random(13))
        oracle = DistanceOracle(g)
        metric = RoundtripMetric(oracle)
        with pytest.raises(ConstructionError):
            StretchSixScheme(metric, identity_naming(12))

    def test_substrate_sharing(self):
        from repro.rtz.routing import RTZStretch3

        g = random_strongly_connected(14, rng=random.Random(14))
        oracle = DistanceOracle(g)
        naming = identity_naming(14)
        metric = RoundtripMetric(oracle)
        rtz = RTZStretch3(metric, random.Random(0))
        scheme = StretchSixScheme(metric, naming, substrate=rtz)
        assert scheme.rtz is rtz
        report = measure_stretch(scheme, oracle, sample=40, rng=random.Random(1))
        assert report.max_stretch <= 6.0 + 1e-9

    def test_remote_dictionary_path_exercised(self):
        # With the default O(log n) budget on small graphs every node
        # holds every block, so force a lean dictionary and verify the
        # remote-lookup path (case 2 of Section 2.2) both fires and
        # stays within stretch 6.
        g = random_strongly_connected(30, rng=random.Random(77))
        oracle = DistanceOracle(g)
        naming = random_naming(30, random.Random(78))
        metric = RoundtripMetric(oracle, ids=naming.all_names())
        scheme = StretchSixScheme(
            metric, naming, rng=random.Random(79), blocks_per_node=1
        )
        sim = Simulator(scheme)
        remote_pairs = 0
        for s in range(30):
            for t in range(30):
                if s == t:
                    continue
                dest = naming.name_of(t)
                if scheme._lookup_r3(s, dest) is not None:
                    continue
                remote_pairs += 1
                trace = sim.roundtrip(s, dest)
                assert trace.total_cost <= 6 * oracle.r(s, t) + 1e-9
        assert remote_pairs > 50, "remote path barely exercised"

    def test_dictionary_serves_all_names(self):
        # Every name must be resolvable from every source's
        # neighborhood dictionary pointer.
        g = random_strongly_connected(16, rng=random.Random(15))
        _oracle, naming, scheme = build(g)
        for u in range(16):
            for name in range(16):
                holder = scheme._lookup_dict_node(u, name)
                assert scheme._lookup_slice(holder, name) == scheme.rtz.label(
                    naming.vertex_of(name)
                )


# ----------------------------------------------------------------------
# the Fig. 3 tables against their per-node dict construction
# ----------------------------------------------------------------------
FIG3_SCHEMES = ("stretch6", "stretch6_via_source", "wild_names")


def fig3_reference(scheme):
    """Fig. 3's per-node tables (1)-(3) as dicts, built the way the
    schemes built them before they held arrays.

    Returns ``(keys, near, block_ptr, dictionary, block_of_key)``:
    each vertex's key (name, or wild name); per node, key -> ``R3``
    label over ``N(u)``; block -> the first node of ``N(u)`` storing it;
    key -> ``R3`` label over every block of ``S_u``; and the block a
    key's dictionary entry lives in.
    """
    n, blocks = scheme.metric.n, scheme.blocks
    labels = [scheme.rtz.label(v) for v in range(n)]
    if isinstance(scheme, WildNameStretchSix):
        hashed = scheme.hashed
        keys = [hashed.wild_of_vertex(v) for v in range(n)]
        block_vertices = [
            [v for slot in blocks.block_members(b) for v in hashed.bucket(slot)]
            for b in range(blocks.num_blocks())
        ]

        def block_of_key(key):
            return blocks.block_of(hashed.slot_of_wild(key))
    else:
        keys = [scheme.name_of(v) for v in range(n)]
        block_vertices = [
            [scheme.vertex_of(name) for name in blocks.block_members(b)]
            for b in range(blocks.num_blocks())
        ]
        block_of_key = blocks.block_of
    sets = scheme.distribution.sets
    near, block_ptr, dictionary = [], [], []
    for u in range(n):
        nbhd = scheme.metric.sqrt_neighborhood(u)
        near.append({keys[v]: labels[v] for v in nbhd})
        block_ptr.append({
            b: next(w for w in nbhd if b in sets[w])
            for b in range(blocks.num_blocks())
        })
        dictionary.append({
            keys[v]: labels[v] for b in sets[u] for v in block_vertices[b]
        })
    return keys, near, block_ptr, dictionary, block_of_key


def assert_fig3_matches(scheme):
    """Every (node, key) lookup, every dictionary pointer and every
    per-node item count equals the dict construction."""
    keys, near, block_ptr, dictionary, block_of_key = fig3_reference(scheme)
    n = scheme.metric.n
    for u in range(n):
        for v, key in enumerate(keys):
            want = near[u].get(key) or dictionary[u].get(key)
            assert scheme._lookup_r3(u, key) == want
            w = scheme._lookup_dict_node(u, key)
            assert w == block_ptr[u][block_of_key(key)]
            if key in dictionary[u]:
                assert scheme._lookup_slice(u, key) == dictionary[u][key]
            else:
                with pytest.raises(TableLookupError):
                    scheme._lookup_slice(u, key)
    assert scheme._holders.tolist() == [
        [row[b] for b in sorted(row)] for row in block_ptr
    ]
    items = scheme.table_items()
    assert items["(1) neighborhood labels"].tolist() == list(map(len, near))
    assert items["(2) block pointers"].tolist() == list(map(len, block_ptr))
    assert items["(3) dictionary slice"].tolist() == list(map(len, dictionary))
    assert items["(4) Tab3 substrate"].tolist() == [
        scheme.rtz.table_entries(v) for v in range(n)
    ]


class TestArrayTables:
    """The arrays both engines read hold exactly the per-node dict
    tables, for the three Fig. 3 schemes."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_dict_reference(self, family, seed):
        net = Network.from_family(family, 30, seed=seed, store=None)
        for name in FIG3_SCHEMES:
            for budget in (None, 1):
                scheme = net.build_scheme(name, blocks_per_node=budget)
                assert_fig3_matches(scheme)


def remote_pair(scheme):
    """The first ordered pair whose source must ask a dictionary node
    other than the destination itself."""
    n = scheme.metric.n
    for s in range(n):
        for t in range(n):
            key = scheme.name_of(t)
            if s != t and scheme._lookup_r3(s, key) is None:
                if scheme._lookup_dict_node(s, key) != t:
                    return s, t
    raise AssertionError("no remote pair")


@pytest.mark.parametrize("scheme_name", FIG3_SCHEMES)
class TestDeletedEntries:
    """A table entry deleted after compilation changes both engines."""

    def test_missing_slice_block_raises_on_both_engines(self, scheme_name):
        net = Network.from_family("random", 30, seed=4, store=None)
        scheme = net.build_scheme(scheme_name, blocks_per_node=1)
        scheme.compiled_routes()
        s, t = remote_pair(scheme)
        key = scheme.name_of(t)
        w = scheme._lookup_dict_node(s, key)
        scheme._serves[w, scheme._block[t]] = False
        for engine in ("python", "vectorized"):
            with pytest.raises(
                TableLookupError, match=f"dictionary node {w} lacks entry"
            ):
                Simulator(scheme).roundtrip_many([(s, t)], engine=engine)

    def test_missing_neighborhood_entry_takes_the_dictionary(
        self, scheme_name
    ):
        net = Network.from_family("random", 30, seed=4, store=None)
        scheme = net.build_scheme(scheme_name, blocks_per_node=1)
        # the scheme's N(u) rows are the metric's read-only cache; give
        # it a copy it may write before anything is compiled
        scheme._near = scheme._near.copy()
        scheme.compiled_routes()
        n = net.n
        # a pair local only through N(s): t is close, its block is not
        # stored at s, and the dictionary node is someone else
        s, t = next(
            (s, t) for s in range(n) for t in scheme._near[s].tolist()
            if t != s and not scheme._serves[s, scheme._block[t]]
            and scheme._holders[s, scheme._block[t]] != t
        )
        pairs = [(s, t), (t, s)]
        before = Simulator(scheme).roundtrip_many(pairs, engine="python")
        scheme._near[s, scheme._near[s] == t] = -1
        assert scheme._lookup_r3(s, scheme.name_of(t)) is None
        py = Simulator(scheme).roundtrip_many(pairs, engine="python")
        vec = Simulator(scheme).roundtrip_many(pairs, engine="vectorized")
        assert py == vec
        w = int(scheme._holders[s, scheme._block[t]])
        assert py[0].outbound.path[:1] == [s] and w in py[0].outbound.path
        assert py[0] != before[0] and py[1] == before[1]
