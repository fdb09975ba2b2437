"""Tests for the RTZ substrate: Lemma 2 legs and Lemma 5 handshakes."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from typing import Dict, List

import numpy as np
import pytest

import repro
from repro.api import Network
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.generators import (
    FAMILY_NAMES,
    asymmetric_torus,
    bidirected_torus,
    directed_cycle,
    random_dht_overlay,
    random_strongly_connected,
    standard_family,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle, path_length
from repro.rtz.centers import (
    CenterAssignment,
    check_cluster_closure,
    sample_centers,
)
from repro.rtz.routing import (
    DIRECT,
    DOWN_TREE,
    TO_CENTER,
    R3Label,
    RTZStretch3,
)
from repro.rtz.spanner import HandshakeSpanner
from repro.graph.csr import CSRGraph
from repro.runtime.engine import (
    SubstrateStepTables,
    compile_substrate_tables,
)
from tree_references import OutTreeRouter, ToRootPointers


def make_metric(g) -> RoundtripMetric:
    return RoundtripMetric(DistanceOracle(g))


def metric_for(n: int, seed: int) -> RoundtripMetric:
    return make_metric(random_strongly_connected(n, rng=random.Random(seed)))


class TestCenters:
    def test_sample_size_default(self):
        a = sample_centers(100, random.Random(1))
        assert len(a) == 10

    def test_sample_bounds(self):
        assert sample_centers(5, random.Random(0), size=100) == [0, 1, 2, 3, 4]
        assert len(sample_centers(50, random.Random(0), size=0)) == 1

    def test_home_center_minimises(self):
        metric = metric_for(20, 1)
        a = sample_centers(20, random.Random(2))
        assign = CenterAssignment(metric, a)
        for v in range(20):
            c = assign.home_center(v)
            assert c in a
            for other in a:
                assert metric.r(v, c) <= metric.r(v, other) + 1e-12
            assert assign.r_to_centers(v) == pytest.approx(metric.r(v, c))

    def test_cluster_definition(self):
        metric = metric_for(18, 3)
        assign = CenterAssignment(metric, sample_centers(18, random.Random(4)))
        for v in range(18):
            bound = assign.r_to_centers(v)
            for u in range(18):
                if u == v:
                    assert not assign.in_cluster(u, v)
                else:
                    assert assign.in_cluster(u, v) == (metric.r(u, v) < bound - 1e-12)

    def test_matches_scalar_definitions_under_ties(self):
        """On a unit-weight torus many landmarks tie: a tie goes to the
        smaller landmark, as the scalar ``(r(v, c), c)`` minimum says."""
        metric = make_metric(bidirected_torus(5, 6))
        n = metric.n
        for seed in range(3):
            centers = sample_centers(n, random.Random(seed))
            assign = CenterAssignment(metric, centers)
            ties = 0
            for v in range(n):
                home = min(centers, key=lambda c: (metric.r(v, c), c))
                nearest = [c for c in centers if metric.r(v, c) == metric.r(v, home)]
                ties += len(nearest) > 1
                assert assign.home_center(v) == home
                assert assign.r_to_centers(v) == metric.r(v, home)
                assert assign.cluster(v) == {
                    u for u in range(n)
                    if u != v and metric.r(u, v) < metric.r(v, home) - 1e-12
                }
            assert ties > 0

    def test_cluster_path_closure(self):
        for seed in range(4):
            metric = metric_for(16, 10 + seed)
            assign = CenterAssignment(
                metric, sample_centers(16, random.Random(seed))
            )
            assign.verify_cluster_path_closure()

    def test_empty_centers_rejected(self):
        metric = metric_for(6, 5)
        with pytest.raises(ConstructionError):
            CenterAssignment(metric, [])

    def test_cluster_sizes_reported(self):
        metric = metric_for(25, 6)
        assign = CenterAssignment(metric, sample_centers(25, random.Random(7)))
        assert assign.mean_cluster_size() <= assign.max_cluster_size()


class TestRTZLegs:
    @pytest.mark.parametrize("seed", range(3))
    def test_leg_reaches_destination(self, seed: int):
        metric = metric_for(22, 20 + seed)
        rtz = RTZStretch3(metric, random.Random(seed))
        for x in range(0, 22, 3):
            for y in range(0, 22, 4):
                path = rtz.route_leg(x, y)
                assert path[0] == x and path[-1] == y

    @pytest.mark.parametrize("seed", range(3))
    def test_leg_cost_bound_lemma2(self, seed: int):
        # p(x, y) <= r(x, y) + d(x, y) for every leg.
        metric = metric_for(20, 30 + seed)
        g = metric.oracle.graph
        rtz = RTZStretch3(metric, random.Random(seed))
        for x in range(20):
            for y in range(20):
                if x == y:
                    continue
                cost = path_length(g, rtz.route_leg(x, y))
                assert cost <= rtz.leg_cost_bound(x, y) + 1e-9

    def test_roundtrip_stretch_three(self):
        metric = metric_for(24, 40)
        g = metric.oracle.graph
        rtz = RTZStretch3(metric, random.Random(3))
        worst = 0.0
        for x in range(24):
            for y in range(24):
                if x == y:
                    continue
                cost = path_length(g, rtz.route_leg(x, y)) + path_length(
                    g, rtz.route_leg(y, x)
                )
                worst = max(worst, cost / metric.r(x, y))
        assert worst <= 3.0 + 1e-9

    def test_direct_leg_is_shortest_path(self):
        metric = metric_for(20, 50)
        g = metric.oracle.graph
        rtz = RTZStretch3(metric, random.Random(4))
        for y in range(20):
            for x in range(20):
                if x != y and rtz.has_direct(x, y):
                    cost = path_length(g, rtz.route_leg(x, y))
                    assert cost == pytest.approx(metric.d(x, y))

    def test_cycle_graph_legs(self):
        metric = make_metric(directed_cycle(15))
        g = metric.oracle.graph
        rtz = RTZStretch3(metric, random.Random(5))
        for x in range(0, 15, 2):
            for y in range(0, 15, 3):
                if x == y:
                    continue
                cost = path_length(g, rtz.route_leg(x, y))
                assert cost <= rtz.leg_cost_bound(x, y) + 1e-9

    def test_asymmetric_torus_legs(self):
        metric = make_metric(asymmetric_torus(3, 4))
        rtz = RTZStretch3(metric, random.Random(6))
        for x in range(0, 12, 2):
            for y in range(12):
                if x == y:
                    continue
                path = rtz.route_leg(x, y)
                assert path[-1] == y

    def test_label_bits_small(self):
        metric = metric_for(64, 60)
        rtz = RTZStretch3(metric, random.Random(7))
        for v in range(0, 64, 7):
            assert rtz.label(v).header_bits(64) <= 4 * 6  # 4 id-fields

    def test_single_center_degenerate(self):
        metric = metric_for(10, 70)
        rtz = RTZStretch3(metric, random.Random(8), center_count=1)
        for x in range(10):
            for y in range(10):
                if x != y:
                    assert rtz.route_leg(x, y)[-1] == y

    def test_all_centers_degenerate(self):
        metric = metric_for(10, 80)
        rtz = RTZStretch3(metric, random.Random(9), center_count=10)
        g = metric.oracle.graph
        for x in range(10):
            for y in range(10):
                if x != y:
                    cost = path_length(g, rtz.route_leg(x, y))
                    assert cost <= rtz.leg_cost_bound(x, y) + 1e-9

    def test_table_entries_positive_and_bounded(self):
        metric = metric_for(49, 90)
        rtz = RTZStretch3(metric, random.Random(10))
        sizes = [rtz.table_entries(u) for u in range(49)]
        assert all(s > 0 for s in sizes)
        assert max(sizes) <= rtz.expected_entry_bound() * 3


class TestHandshakeSpanner:
    @pytest.mark.parametrize("seed", range(2))
    def test_hop_reaches_target(self, seed: int):
        metric = metric_for(18, 100 + seed)
        sp = HandshakeSpanner(metric, k=2)
        for x in range(0, 18, 2):
            for y in range(0, 18, 3):
                if x == y:
                    continue
                path = sp.route_hop(x, y)
                assert path[0] == x and path[-1] == y

    def test_return_hop_uses_same_label(self):
        metric = metric_for(16, 110)
        sp = HandshakeSpanner(metric, k=2)
        for x in range(0, 16, 3):
            for y in range(0, 16, 5):
                if x == y:
                    continue
                label = sp.r2(x, y)
                back = sp.route_hop_back(y, label)
                assert back[0] == y and back[-1] == x

    def test_hop_roundtrip_bound(self):
        metric = metric_for(16, 120)
        g = metric.oracle.graph
        sp = HandshakeSpanner(metric, k=2)
        for x in range(16):
            for y in range(16):
                if x == y:
                    continue
                label = sp.r2(x, y)
                fwd = path_length(g, sp.route_hop(x, y))
                back = path_length(g, sp.route_hop_back(y, label))
                assert fwd + back <= sp.hop_roundtrip_bound(x, y) + 1e-9

    def test_hop_cost_at_most_via_root(self):
        # A hop either passes the tree root or stops early when it
        # walks over its target on the way up; either way its cost is
        # bounded by the via-root cost.
        metric = metric_for(14, 130)
        g = metric.oracle.graph
        sp = HandshakeSpanner(metric, k=2)
        for x in range(0, 14, 3):
            for y in range(0, 14, 4):
                if x == y:
                    continue
                label = sp.r2(x, y)
                tree = sp.tree_of(label)
                path = sp.route_hop(x, y)
                cost = path_length(g, path)
                assert cost <= tree.route_cost(x, y) + 1e-9
                if tree.root not in path:
                    assert y in path  # early arrival on the up-leg

    def test_label_header_bits(self):
        metric = metric_for(32, 140)
        sp = HandshakeSpanner(metric, k=2)
        label = sp.r2(0, 5)
        # o(log^2 n): a couple of ids + two addresses
        assert label.header_bits(32) <= 10 * 5

    def test_label_reversed(self):
        metric = metric_for(12, 150)
        sp = HandshakeSpanner(metric, k=2)
        label = sp.r2(2, 7)
        rev = label.reversed()
        assert rev.tree_id == label.tree_id
        assert rev.addr_to == label.addr_from
        assert rev.addr_from == label.addr_to

    def test_works_on_torus(self):
        metric = make_metric(bidirected_torus(3, 4))
        sp = HandshakeSpanner(metric, k=2)
        for x in range(0, 12, 2):
            for y in range(0, 12, 3):
                if x != y:
                    assert sp.route_hop(x, y)[-1] == y

    def test_works_on_dht(self):
        metric = make_metric(random_dht_overlay(16, rng=random.Random(1)))
        sp = HandshakeSpanner(metric, k=3)
        for x in range(0, 16, 3):
            for y in range(0, 16, 5):
                if x != y:
                    assert sp.route_hop(x, y)[-1] == y

    def test_table_entries_accounting(self):
        metric = metric_for(12, 160)
        sp = HandshakeSpanner(metric, k=2)
        assert sum(sp.table_entries(v) for v in range(12)) > 0


# ----------------------------------------------------------------------
# the array-built substrate against its scalar definition
# ----------------------------------------------------------------------
class ScalarRTZ:
    """The Lemma 2 substrate built one entry at a time: per-landmark
    :class:`OutTreeRouter` / :class:`ToRootPointers`, clusters from
    their scalar definition, one ``next_hop`` + ``port_of`` per direct
    entry and one label per vertex — the reference the array build in
    :class:`RTZStretch3` must reproduce bit for bit."""

    def __init__(self, metric, rng=None, center_count=None):
        oracle = metric.oracle
        g = oracle.graph
        n = g.n
        self.metric = metric
        self.assignment = CenterAssignment(
            metric, sample_centers(n, rng, center_count)
        )
        centers = self.assignment.centers
        self.in_trees: Dict[int, ToRootPointers] = {}
        self.out_trees: Dict[int, OutTreeRouter] = {}
        in_rows = oracle.in_tree_rows(centers).tolist()
        for idx, (c, succ) in enumerate(zip(centers, in_rows)):
            parents = oracle.forward_tree_parents(c)
            self.out_trees[c] = OutTreeRouter(g, c, parents, tree_id=idx)
            self.in_trees[c] = ToRootPointers(g, c, succ)
        self.direct: List[Dict[int, int]] = [dict() for _ in range(n)]
        for v in range(n):
            bound = self.assignment.r_to_centers(v) - 1e-12
            for u in range(n):
                if u != v and metric.r(u, v) < bound:
                    self.direct[u][v] = g.port_of(u, oracle.next_hop(u, v))
        self.labels = []
        for v in range(n):
            c = self.assignment.home_center(v)
            self.labels.append(
                R3Label(dest=v, center=c, addr=self.out_trees[c].address_of(v))
            )

    def to_arrays(self) -> Dict[str, np.ndarray]:
        g = self.metric.oracle.graph
        n = g.n
        centers = self.assignment.centers
        in_succ = np.full((len(centers), n), -1, dtype=np.int64)
        for idx, c in enumerate(centers):
            for v in range(n):
                port = self.in_trees[c].next_port(v) if v != c else None
                if port is not None:
                    in_succ[idx, v] = g.head_of_port(v, port)
        rows = [
            (u, v, port)
            for u in range(n)
            for v, port in sorted(self.direct[u].items())
        ]
        direct = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        return {
            "centers": np.asarray(centers, dtype=np.int64),
            "home": np.asarray(self.assignment._home, dtype=np.int64),
            "r_to_a": np.asarray(self.assignment._r_to_a, dtype=np.float64),
            "in_succ": in_succ,
            "direct_u": direct[:, 0].copy(),
            "direct_v": direct[:, 1].copy(),
            "direct_port": direct[:, 2].copy(),
        }

    def table_entries(self, u: int) -> int:
        total = len(self.direct[u])
        for c in self.assignment.centers:
            total += self.in_trees[c].table_entries_at(u)
            total += self.out_trees[c].table_entries_at(u)
        return total + 3

    def route_leg(self, x: int, y: int) -> List[int]:
        g = self.metric.oracle.graph
        label = self.labels[y]
        if x == y or y in self.direct[x]:
            mode = DIRECT
        elif x == label.center:
            mode = DOWN_TREE
        else:
            mode = TO_CENTER
        at, path = x, [x]
        while at != y:
            if mode == DIRECT:
                port = self.direct[at][y]
            elif mode == TO_CENTER and at != label.center:
                port = self.in_trees[label.center].next_port(at)
            else:
                mode = DOWN_TREE
                port = self.out_trees[label.center].next_port(at, label.addr)
            at = g.head_of_port(at, port)
            path.append(at)
        return path

    def compile(self) -> Dict[str, np.ndarray]:
        """The per-vertex compile walk the array compile replaces, as
        next vertices: :func:`compiled_next_vertices` of the compiled
        tables must equal it."""
        g = self.metric.oracle.graph
        n = g.n
        centers = self.assignment.centers
        direct_next = np.full((n, n), -1, dtype=np.int32)
        for u in range(n):
            for v, port in self.direct[u].items():
                direct_next[u, v] = g.head_of_port(u, port)
        up_next = np.full((n, len(centers)), -1, dtype=np.int32)
        for ci, c in enumerate(centers):
            for u in range(n):
                if u != c:
                    up_next[u, ci] = g.head_of_port(
                        u, self.in_trees[c].next_port(u)
                    )
        home = [self.assignment.home_center(v) for v in range(n)]
        cindex = {c: i for i, c in enumerate(centers)}
        parents = {
            c: self.metric.oracle.forward_tree_parents(c) for c in centers
        }
        down_next = np.full((n, n), -1, dtype=np.int32)
        for v, c in enumerate(home):
            at = v
            while at != c:
                above = parents[c][at]
                down_next[above, v] = at
                at = above
        return {
            "direct_next": direct_next,
            "up_next": up_next,
            "down_next": down_next,
            "center_of": np.array(home, dtype=np.int32),
            "center_idx": np.array([cindex[c] for c in home], dtype=np.int32),
        }


def compiled_next_vertices(
    compiled: SubstrateStepTables, graph
) -> Dict[str, np.ndarray]:
    """The compiled tables with each ``<leg>_slot`` matrix read back as
    ``<leg>_next``, the next vertex ``out_heads[slot]`` (``-1`` where
    there is no entry), after checking that every slot is an out-edge
    of its entry's own vertex."""
    csr = CSRGraph.from_digraph(graph)
    n = graph.n
    tail = np.append(np.repeat(np.arange(n), np.diff(csr.out_indptr)), -1)
    head = np.append(csr.out_heads, -1)
    out = {"center_of": compiled.center_of, "center_idx": compiled.center_idx}
    for leg in ("direct", "up", "down"):
        slot = getattr(compiled, f"{leg}_slot")
        rows = np.broadcast_to(np.arange(n)[:, None], slot.shape)
        assert np.array_equal(tail[slot], np.where(slot >= 0, rows, -1)), leg
        out[f"{leg}_next"] = head[slot].astype(slot.dtype)
    return out


def assert_same_arrays(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]):
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key


def assert_matches_reference(rtz: RTZStretch3, ref: ScalarRTZ) -> None:
    n = rtz.metric.n
    assert_same_arrays(rtz.to_arrays(), ref.to_arrays())
    labels = [rtz.label(v) for v in range(n)]
    assert labels == ref.labels
    assert repr(labels) == repr(ref.labels)  # plain ints, not numpy scalars
    assert [rtz.table_entries(v) for v in range(n)] == [
        ref.table_entries(v) for v in range(n)
    ]
    for x in range(n):
        for y in range(n):
            assert rtz.has_direct(x, y) == (y in ref.direct[x])
            assert rtz.route_leg(x, y) == ref.route_leg(x, y), (x, y)
    assert_same_arrays(
        compiled_next_vertices(
            compile_substrate_tables(rtz), rtz.metric.oracle.graph
        ),
        ref.compile(),
    )


def family_metric(family: str, seed: int, n: int = 30) -> RoundtripMetric:
    return make_metric(standard_family(family, n, seed=seed))


class TestArraySubstrate:
    @pytest.mark.parametrize("seed", range(1, 4))
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_scalar_reference(self, family: str, seed: int):
        metric = family_metric(family, seed)
        assert_matches_reference(
            RTZStretch3(metric, random.Random(seed)),
            ScalarRTZ(metric, random.Random(seed)),
        )

    @pytest.mark.parametrize("family", ["random", "cycle", "torus"])
    @pytest.mark.parametrize("count", ["one", "all"])
    def test_one_and_all_landmarks(self, family: str, count: str):
        metric = family_metric(family, 2)
        center_count = 1 if count == "one" else metric.n
        assert_matches_reference(
            RTZStretch3(metric, random.Random(5), center_count=center_count),
            ScalarRTZ(metric, random.Random(5), center_count=center_count),
        )

    def test_split_row_blocks(self, monkeypatch):
        import repro.graph.blocked as blocked

        metric = family_metric("scale-free", 1)
        ref = ScalarRTZ(metric, random.Random(7))
        # about 3 rows per block of the cluster scan
        monkeypatch.setattr(blocked, "_BLOCK_ELEMS", 3 * metric.n)
        assert blocked.default_block_rows(metric.n) == 3
        assert_matches_reference(RTZStretch3(metric, random.Random(7)), ref)

    @pytest.mark.parametrize("family", ["random", "cycle", "asym-torus"])
    def test_rehydrate_equals_fresh_build(self, family: str):
        metric = family_metric(family, 3)
        fresh = RTZStretch3(metric, random.Random(4))
        stored = {k: v.copy() for k, v in fresh.to_arrays().items()}
        again = RTZStretch3.from_arrays(metric, stored)
        assert_matches_reference(again, ScalarRTZ(metric, random.Random(4)))

    def test_missing_landmark_pointer_is_a_lookup_error(self):
        metric = family_metric("random", 1)
        rtz = RTZStretch3(metric, random.Random(1))
        label = rtz.label(0)
        x = next(v for v in range(1, metric.n)
                 if v != label.center and not rtz.has_direct(v, 0))
        rtz._in_port = rtz._in_port.copy()
        rtz._in_port[label.addr.tree_id, x] = -1
        with pytest.raises(TableLookupError):
            rtz.route_leg(x, 0)


def test_schemes_on_one_network_share_one_compiled_substrate():
    """rtz, stretch-6, its variant and wild names route over one
    Network's ``rtz`` artifact, so they compile one set of substrate
    step tables: two ``(n, n)`` int32 matrices in all, not two per
    scheme, and a repeat ``compiled_routes()`` compiles nothing."""
    net = Network.from_family("random", 128, seed=1, store=None)
    schemes = [
        net.build_scheme(name)
        for name in ("rtz", "stretch6", "stretch6_via_source", "wild_names")
    ]
    tracemalloc.start()
    try:
        compiled = [scheme.compiled_routes() for scheme in schemes]
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = compiled[0].tables
    assert isinstance(tables, SubstrateStepTables)
    assert all(c.tables is tables for c in compiled)
    assert all(s.compiled_routes() is c for s, c in zip(schemes, compiled))
    assert held < 3 * 4 * net.n ** 2


def drop_closing_entry(rtz: RTZStretch3) -> Dict[str, np.ndarray]:
    """``rtz.to_arrays()`` without one direct entry that another entry
    forwards through, so the stored table is no longer closed."""
    n = rtz.metric.n
    keys, nxt = rtz._direct_keys, rtz._direct_next
    onward = np.flatnonzero(nxt != keys % n)
    assert onward.size, "no multi-hop direct entry to break"
    i = int(onward[0])
    j = int(np.searchsorted(keys, nxt[i] * n + keys[i] % n))
    return {
        k: np.delete(v, j) if k.startswith("direct_") else v
        for k, v in rtz.to_arrays().items()
    }


class TestClusterClosureCheck:
    def test_build_checks_closure(self, monkeypatch):
        import repro.rtz.routing as routing

        calls = []
        monkeypatch.setattr(
            routing, "check_cluster_closure",
            lambda *a: calls.append(a) or check_cluster_closure(*a),
        )
        metric = family_metric("random", 1)
        rtz = RTZStretch3(metric, random.Random(2))
        RTZStretch3.from_arrays(metric, rtz.to_arrays())
        assert len(calls) == 2

    def test_removed_entry_raises(self):
        metric = family_metric("random", 1)
        rtz = RTZStretch3(metric, random.Random(2))
        with pytest.raises(ConstructionError, match="cluster closure"):
            RTZStretch3.from_arrays(metric, drop_closing_entry(rtz))

    def test_unsorted_entries_rejected(self):
        metric = family_metric("random", 1)
        arrays = RTZStretch3(metric, random.Random(2)).to_arrays()
        for key in ("direct_u", "direct_v", "direct_port"):
            arrays[key] = arrays[key][::-1].copy()
        with pytest.raises(ConstructionError, match="sorted"):
            RTZStretch3.from_arrays(metric, arrays)

    def test_unknown_direct_port_rejected(self):
        metric = family_metric("random", 1)
        g = metric.oracle.graph
        arrays = RTZStretch3(metric, random.Random(2)).to_arrays()
        u = int(arrays["direct_u"][0])
        arrays["direct_port"] = arrays["direct_port"].copy()
        arrays["direct_port"][0] = max(g.ports(u)) + 1
        with pytest.raises(ConstructionError, match="does not exist"):
            RTZStretch3.from_arrays(metric, arrays)

    def test_check_survives_python_O(self):
        # ``python -O`` strips asserts; the closure check must still run.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src, REPRO_STORE="off")
        code = (
            "import random\n"
            "import numpy as np\n"
            "from repro.exceptions import ConstructionError\n"
            "from repro.graph.generators import standard_family\n"
            "from repro.graph.roundtrip import RoundtripMetric\n"
            "from repro.graph.shortest_paths import DistanceOracle\n"
            "from repro.rtz.routing import RTZStretch3\n"
            "metric = RoundtripMetric(DistanceOracle(standard_family('random', 30, seed=1)))\n"
            "rtz = RTZStretch3(metric, random.Random(2))\n"
            "n = metric.n\n"
            "keys, nxt = rtz._direct_keys, rtz._direct_next\n"
            "i = int(np.flatnonzero(nxt != keys % n)[0])\n"
            "j = int(np.searchsorted(keys, nxt[i] * n + keys[i] % n))\n"
            "arrays = {k: np.delete(v, j) if k.startswith('direct_') else v\n"
            "          for k, v in rtz.to_arrays().items()}\n"
            "try:\n"
            "    RTZStretch3.from_arrays(metric, arrays)\n"
            "except ConstructionError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"
