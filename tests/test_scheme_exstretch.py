"""Tests for the Section 3 ExStretch TINN scheme."""

from __future__ import annotations

import random

import pytest

from repro.api import Network, Router
from repro.exceptions import ConstructionError
from repro.graph import blocked
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
from repro.runtime.sizing import log2_squared
from repro.runtime.stats import measure_stretch, measure_tables
from repro.schemes.exstretch import ExStretchScheme


def build(g, k=2, naming_seed=0, rng_seed=1):
    oracle = DistanceOracle(g)
    naming = random_naming(g.n, random.Random(naming_seed))
    metric = RoundtripMetric(oracle, ids=naming.all_names())
    scheme = ExStretchScheme(metric, naming, k=k, rng=random.Random(rng_seed))
    return oracle, naming, scheme


def scalar_tables(scheme):
    """Storage rules 2, 3a and 3b entry by entry, as the scheme built
    them before its array construction: one ``r2`` call per label and a
    walk along ``Init_u`` per prefix row.  The reference the array
    tables are checked against."""
    metric, naming, k = scheme.metric, scheme._naming, scheme.k
    blocks, spanner = scheme.blocks, scheme.spanner
    dist = scheme.distribution
    n = metric.n
    near = [dict() for _ in range(n)]
    for u in range(n):
        for v in metric.level_neighborhood(u, 1, k):
            if v != u:
                near[u][naming.name_of(v)] = spanner.r2(u, v)
    holders_of_prefix = {}
    for w in range(n):
        for b in dist.augmented_blocks_of(w, naming.name_of(w)):
            pref = blocks.block_prefix(b)
            for i in range(1, k):
                holders_of_prefix.setdefault(pref[:i], set()).add(w)
    rows = [dict() for _ in range(n)]
    final = [dict() for _ in range(n)]
    for u in range(n):
        for b in dist.augmented_blocks_of(u, naming.name_of(u)):
            pref = blocks.block_prefix(b)
            for i in range(k - 1):
                for tau in range(blocks.q):
                    target = pref[:i] + (tau,)
                    key = (target, i)
                    if key in rows[u]:
                        continue
                    holder_set = holders_of_prefix.get(target)
                    if not holder_set:
                        continue
                    v = next(w for w in metric.init_order(u) if w in holder_set)
                    rows[u][key] = (v, spanner.r2(u, v) if v != u else None)
            for tau in range(blocks.q):
                name = blocks.from_digits(pref + (tau,))
                if not blocks.is_name(name):
                    continue
                v = naming.vertex_of(name)
                final[u][name] = (v, spanner.r2(u, v) if v != u else None)
    return near, rows, final


def assert_tables_match(scheme, near, rows, final):
    """The scheme's two tables hold exactly the scalar reference's
    entries: each lookup finds the reference vertex, the handshake
    derived from it equals the reference label, and no other entry is
    stored; the per-item counts agree too."""
    naming, k, q, n = scheme._naming, scheme.k, scheme.blocks.q, scheme.metric.n
    for u in range(n):
        for name, label in near[u].items():
            v = scheme._near.get(u, name)
            assert v == naming.vertex_of(name)
            assert scheme.spanner.r2(u, v) == label
        # hop i + 1 reads the row of the (i + 1)-digit prefix target
        for (target, i), entry in rows[u].items():
            value = 0
            for digit in target:
                value = value * q + digit
            assert scheme._next_stop(u, i + 1, value * q ** (k - 1 - i)) == entry
        for name, entry in final[u].items():
            assert scheme._next_stop(u, k, name) == entry
    assert scheme._near.keys.shape[0] == sum(map(len, near))
    assert scheme._rows.keys.shape[0] == sum(map(len, rows)) + sum(map(len, final))
    items = scheme.table_items()
    assert items["(2) N_1 handshakes"].tolist() == list(map(len, near))
    assert items["(3a) prefix rows"].tolist() == list(map(len, rows))
    assert items["(3b) final rows"].tolist() == list(map(len, final))


class TestArrayTables:
    """The array-built tables equal the scalar loop, entry for entry."""

    @pytest.mark.parametrize("blocks_per_node", [None, 1])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", ["random", "cycle", "torus", "dht"])
    def test_matches_scalar_loop(self, family, seed, k, blocks_per_node):
        net = Network.from_family(family, 30, seed=seed, store=None)
        scheme = net.build_scheme("exstretch", k=k, blocks_per_node=blocks_per_node)
        assert_tables_match(scheme, *scalar_tables(scheme))

    def test_matches_scalar_loop_across_split_row_blocks(self, monkeypatch):
        # a tiny block budget splits every row-blocked kernel
        monkeypatch.setattr(blocked, "_BLOCK_ELEMS", 64)
        net = Network.from_family("random", 27, seed=3, store=None)
        scheme = net.build_scheme("exstretch", k=3, blocks_per_node=1)
        assert blocked.default_block_rows(27, 27 * 3) == 1
        assert_tables_match(scheme, *scalar_tables(scheme))


class TestDeliveryAndStretch:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(2))
    def test_random_graph_all_pairs(self, k: int, seed: int):
        g = random_strongly_connected(24, rng=random.Random(seed))
        oracle, _naming, scheme = build(g, k, seed, seed + 1)
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_cycle(self):
        g = directed_cycle(16, rng=random.Random(3))
        oracle, _naming, scheme = build(g, 2)
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_torus(self):
        g = bidirected_torus(4, 4, rng=random.Random(4))
        oracle, _naming, scheme = build(g, 2)
        report = measure_stretch(Router(scheme, oracle))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_dht_k3(self):
        g = random_dht_overlay(27, rng=random.Random(5))
        oracle, _naming, scheme = build(g, 3)
        report = measure_stretch(Router(scheme, oracle), sample=150, rng=random.Random(0))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_roundtrip_paths_wellformed(self):
        g = random_strongly_connected(18, rng=random.Random(6))
        oracle, naming, scheme = build(g)
        sim = Simulator(scheme)
        for s in range(0, 18, 3):
            for t in range(0, 18, 5):
                if s == t:
                    continue
                trace = sim.roundtrip(s, naming.name_of(t))
                assert trace.outbound.path[0] == s
                assert trace.outbound.path[-1] == t
                assert trace.inbound.path[-1] == s


class TestWaypointLadder:
    def test_lemma8_hop_ladder(self):
        """Lemma 8: the waypoints' roundtrip distances form the
        doubling ladder r(v_i, v_{i+1}) <= 2^i r(s, t)."""
        g = random_strongly_connected(27, rng=random.Random(7))
        oracle, naming, scheme = build(g, 3)
        metric = scheme.metric
        sim = Simulator(scheme)
        for s in range(0, 27, 4):
            for t in range(0, 27, 5):
                if s == t:
                    continue
                sim.roundtrip(s, naming.name_of(t))
                # reconstruct waypoints from the outbound path: they are
                # where the header stack grew; approximate by replaying
                waypoints = self._waypoints(scheme, s, t, naming)
                r_st = metric.r(s, t)
                for i, (a, b) in enumerate(zip(waypoints, waypoints[1:])):
                    if a == b:
                        continue
                    assert metric.r(a, b) <= (2 ** i) * r_st + 1e-9

    @staticmethod
    def _waypoints(scheme, s, t, naming):
        """Replay the waypoint ladder without the network."""
        at = s
        hop = 0
        waypoints = [s]
        dest_name = naming.name_of(t)
        # direct shortcut mirrors the scheme
        if scheme._near.get(at, dest_name) >= 0:
            return [s, t]
        while at != t and hop < scheme.k:
            hop += 1
            nxt, _label = scheme._next_stop(at, hop, dest_name)
            waypoints.append(nxt)
            at = nxt
        return waypoints

    def test_waypoint_prefixes_increase(self):
        g = random_strongly_connected(27, rng=random.Random(8))
        _oracle, naming, scheme = build(g, 3)
        bs = scheme.blocks
        for s in range(0, 27, 6):
            for t in range(27):
                if s == t:
                    continue
                dest = naming.name_of(t)
                if scheme._near.get(s, dest) >= 0:
                    continue
                wps = self._waypoints(scheme, s, t, naming)
                assert wps[-1] == t
                # each visited waypoint holds a block matching one more
                # digit of the destination (checked via stored rows)
                for i, w in enumerate(wps[1:-1], start=1):
                    held = scheme.distribution.augmented_blocks_of(
                        w, naming.name_of(w)
                    )
                    assert any(
                        bs.block_has_prefix(b, bs.prefix(dest, i))
                        for b in held
                    )


class TestHeadersAndTables:
    def test_header_stack_bounded(self):
        g = random_strongly_connected(27, rng=random.Random(9))
        oracle, _naming, scheme = build(g, 3)
        report = measure_stretch(Router(scheme, oracle), sample=120, rng=random.Random(1))
        # o(k log^2 n): k pushes of o(log^2 n) labels
        assert report.max_header_bits <= 8 * scheme.k * log2_squared(27)

    def test_tables_nonempty(self):
        g = random_strongly_connected(16, rng=random.Random(10))
        _oracle, _naming, scheme = build(g, 2)
        report = measure_tables(scheme)
        assert report.max_entries > 0
        assert all(scheme.table_entries(v) > 0 for v in range(16))


class TestConstruction:
    def test_k1_rejected(self):
        g = random_strongly_connected(9, rng=random.Random(11))
        oracle = DistanceOracle(g)
        with pytest.raises(ConstructionError):
            ExStretchScheme(
                RoundtripMetric(oracle), identity_naming(9), k=1
            )

    def test_spanner_sharing(self):
        from repro.rtz.spanner import HandshakeSpanner

        g = random_strongly_connected(12, rng=random.Random(12))
        oracle = DistanceOracle(g)
        metric = RoundtripMetric(oracle)
        sp = HandshakeSpanner(metric, 2)
        scheme = ExStretchScheme(metric, identity_naming(12), k=2, spanner=sp)
        assert scheme.spanner is sp
        report = measure_stretch(Router(scheme, oracle), sample=40, rng=random.Random(2))
        assert report.max_stretch <= scheme.stretch_bound() + 1e-9

    def test_works_under_many_namings(self):
        g = random_strongly_connected(16, rng=random.Random(13))
        oracle = DistanceOracle(g)
        for seed in range(3):
            naming = random_naming(16, random.Random(seed))
            metric = RoundtripMetric(oracle, ids=naming.all_names())
            scheme = ExStretchScheme(metric, naming, k=2, rng=random.Random(7))
            report = measure_stretch(
                Router(scheme, oracle), sample=50, rng=random.Random(seed)
            )
            assert report.max_stretch <= scheme.stretch_bound() + 1e-9
