"""Tests for double trees, PartialCover/Cover (Thm 10/13), hierarchy."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys
from typing import Dict, FrozenSet, List, Sequence, Set

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.api import Network
from repro.covers.double_tree import DoubleTree, DoubleTreeTables
from repro.covers.hierarchy import TreeHierarchy
from repro.covers.partial_cover import PartialCoverResult, partial_cover
from repro.covers.sparse_cover import (
    CoverResult,
    DoubleTreeCover,
    cover,
    cover_load_bound,
)
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Digraph
from repro.graph.generators import (
    FAMILY_NAMES,
    bidirected_torus,
    directed_cycle,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle, dijkstra
from repro.rtz.spanner import HandshakeSpanner
from repro.tree_routing.fixed_port import OutTreeRouter, ToRootPointers


def reference_partial_cover(
    clusters: Sequence[FrozenSet[int]], k: int
) -> PartialCoverResult:
    """Fig. 7 by its set definition: the reference the bitset kernel
    (:func:`repro.covers.partial_cover.partial_cover`) must equal."""
    num = len(clusters)
    if num == 0:
        return PartialCoverResult([], [], {}, set())
    growth = num ** (1.0 / k)

    # Inverted index vertex -> cluster indices still in U.
    by_vertex: Dict[int, Set[int]] = {}
    for ci, members in enumerate(clusters):
        for v in members:
            by_vertex.setdefault(v, set()).add(ci)

    alive: Set[int] = set(range(num))
    merged_regions: List[FrozenSet[int]] = []
    covered: List[int] = []
    covering_region: Dict[int, int] = {}
    removed_total: Set[int] = set()

    while alive:
        s0 = min(alive)  # "arbitrary" but deterministic
        z_collection: Set[int] = {s0}
        z_union: Set[int] = set(clusters[s0])
        while True:
            y_collection = z_collection
            y_union = z_union
            # Z <- every alive cluster intersecting the Y region.
            z_collection = set()
            for v in y_union:
                z_collection |= by_vertex.get(v, set()) & alive
            z_union = set()
            for ci in z_collection:
                z_union |= clusters[ci]
            if len(z_collection) <= growth * len(y_collection):
                break
        # Commit: Y's clusters are covered by the merged region Y.
        region_index = len(merged_regions)
        merged_regions.append(frozenset(y_union))
        for ci in sorted(y_collection):
            covered.append(ci)
            covering_region[ci] = region_index
        # Remove all of Z (absorbed, possibly without coverage credit).
        for ci in z_collection:
            alive.discard(ci)
            for v in clusters[ci]:
                by_vertex[v].discard(ci)
        removed_total |= z_collection
    return PartialCoverResult(merged_regions, covered, covering_region, removed_total)


def cluster_rows(clusters: Sequence[FrozenSet[int]]) -> np.ndarray:
    """``clusters`` as the ``(len(clusters), n)`` bool matrix the kernel
    reads, ``n`` one more than the largest vertex."""
    n = max([0, *(max(c) + 1 for c in clusters)])
    rows = np.zeros((len(clusters), n), dtype=bool)
    for i, members in enumerate(clusters):
        rows[i, list(members)] = True
    return rows


def verify_cover_properties(
    metric: RoundtripMetric, k: int, d: float, result: CoverResult
) -> None:
    """Check Theorem 10's three properties on a raw cover by their
    scalar definitions.

    Raises:
        ConstructionError: on the first violated property.
    """
    n = metric.n
    # Property 1: every ball inside its home cluster.
    for v in range(n):
        ball = set(metric.ball(v, d))
        home = result.clusters[result.home_cluster[v]]
        if not ball <= home:
            raise ConstructionError(f"ball of {v} escapes its home cluster")
    # Property 2: radius blow-up.
    bound = (2 * k - 1) * d + 1e-9
    for members in result.clusters:
        radius = metric.rt_radius(sorted(members))
        if not radius <= bound:
            raise ConstructionError(
                f"cluster radius {radius} exceeds (2k-1)d = {bound}"
            )
    # Property 3: per-vertex load.
    load_bound = cover_load_bound(n, k)
    loads = [0] * n
    for members in result.clusters:
        for v in members:
            loads[v] += 1
    if not max(loads) <= load_bound:
        raise ConstructionError(
            f"vertex load {max(loads)} exceeds 2k n^(1/k) = {load_bound}"
        )


def make_metric(n: int, seed: int) -> RoundtripMetric:
    g = random_strongly_connected(n, rng=random.Random(seed))
    return RoundtripMetric(DistanceOracle(g))


def scalar_best_tree(h: TreeHierarchy, u: int, v: int):
    """The per-pair scan the best-tree matrix replaces: the trees
    containing ``u`` level by level, keeping a tree whose via-root
    roundtrip beats the best so far by more than ``1e-12``."""
    best, best_cost = None, math.inf
    for cov in h.levels:
        for t in cov.trees_containing(u):
            if not t.contains(v):
                continue
            c = t.roundtrip_cost(u, v)
            if c < best_cost - 1e-12:
                best, best_cost = t, c
    return best


def reference_tree(oracle: DistanceOracle, t: DoubleTree):
    """One double tree's routing state, built alone by the scalar
    per-tree classes: an :class:`OutTreeRouter` over the root's
    canonical out-tree pruned to the members' root paths, and a
    :class:`ToRootPointers` over the members' paths into the root (the
    reverse Dijkstra's in-tree).  The reference :class:`DoubleTreeTables`
    is checked against."""
    g = oracle.graph
    parents = oracle.forward_tree_parents(t.root)
    keep = set()
    for v in t.members:
        x = v
        while x not in keep:
            keep.add(x)
            if x == t.root:
                break
            x = parents[x]
    out = OutTreeRouter(g, t.root, parents, t.tree_id, vertices=keep)
    succ = dijkstra(g, t.root, reverse=True)[1]
    keep = set()
    for v in t.members:
        x = v
        while x != t.root and x not in keep:
            keep.add(x)
            x = succ[x]
    return out, ToRootPointers(g, t.root, succ, vertices=sorted(keep))


def walked_table_entries(h: TreeHierarchy) -> list:
    """The per-vertex walk the counted array replaces: each vertex's
    rows in every tree of every level, from the per-tree references."""
    oracle = h.metric.oracle
    n = oracle.n
    totals = [0] * n
    for t in h.all_trees():
        out, inn = reference_tree(oracle, t)
        for v in range(n):
            totals[v] += out.table_entries_at(v) + inn.table_entries_at(v)
    return totals


def decimal_torus(side: int, seed: int) -> Digraph:
    """A bidirected torus whose weights are drawn from a few decimals:
    equal real path sums then round to floats one ulp apart, so some
    pairs have trees whose costs differ by less than the ``1e-12``
    tie window without being equal."""
    rng = random.Random(seed)
    g = Digraph(side * side)
    for r in range(side):
        for c in range(side):
            u = r * side + c
            for v in (r * side + (c + 1) % side, ((r + 1) % side) * side + c):
                g.add_edge(u, v, rng.choice([0.1, 0.2, 0.3, 0.7]))
                g.add_edge(v, u, rng.choice([0.1, 0.2, 0.3, 0.7]))
    return g.freeze()


class TestDoubleTree:
    def test_roundtrip_via_root_paths(self):
        # every hop, driven through the one scalar tree step, climbs to
        # the root and descends: d(x, root) + d(root, y) -- unless the
        # climb walks over y first, which ends the hop there
        metric = make_metric(24, 1)
        spanner = HandshakeSpanner(metric, 2)
        g = metric.oracle.graph
        for x in range(24):
            for y in range(24):
                if x == y:
                    continue
                label = spanner.r2(x, y)
                t = spanner.tree_of(label)
                for path, a, b in (
                    (spanner.route_hop(x, y), x, y),
                    (spanner.route_hop_back(y, label), y, x),
                ):
                    assert path[0] == a and path[-1] == b
                    total = sum(
                        g.weight(u, v) for u, v in zip(path, path[1:])
                    )
                    if t.root in path:
                        assert total == pytest.approx(t.route_cost(a, b))
                    else:
                        assert total == pytest.approx(metric.d(a, b))

    def test_route_cost_is_optimal_legs(self):
        metric = make_metric(20, 2)
        t = DoubleTree(metric.oracle, list(range(20)), tree_id=0)
        for x in range(0, 20, 3):
            assert t.route_cost(x, x) == pytest.approx(metric.r(x, t.root))
            for y in range(0, 20, 4):
                assert t.route_cost(x, y) == pytest.approx(
                    metric.d(x, t.root) + metric.d(t.root, y)
                )

    def test_rt_height_definition(self):
        metric = make_metric(16, 3)
        members = [1, 3, 5, 7, 9]
        t = DoubleTree(metric.oracle, members, tree_id=0)
        assert t.rt_height() == pytest.approx(
            max(metric.r(t.root, v) for v in members)
        )

    def test_center_is_rt_center(self):
        metric = make_metric(18, 4)
        members = list(range(0, 18, 3))
        t = DoubleTree(metric.oracle, members, tree_id=0)
        assert t.root == metric.rt_center(members)
        assert t.rt_height() == pytest.approx(metric.rt_radius(members))

    def test_explicit_center(self):
        metric = make_metric(12, 5)
        t = DoubleTree(metric.oracle, list(range(12)), tree_id=0, center=7)
        assert t.root == 7

    def test_center_must_be_member(self):
        metric = make_metric(12, 6)
        with pytest.raises(ConstructionError):
            DoubleTree(metric.oracle, [0, 1, 2], tree_id=0, center=7)

    def test_empty_members_rejected(self):
        metric = make_metric(5, 7)
        with pytest.raises(ConstructionError):
            DoubleTree(metric.oracle, [], tree_id=0)

    def test_steiner_vertices_carry_state(self):
        # On a cycle, routing to the far member passes through
        # non-member vertices, which must carry tree state: 1-3 on the
        # out-tree toward 4, 5-7 on 4's in-path back to the root.
        g = directed_cycle(8)
        oracle = DistanceOracle(g)
        t = DoubleTree(oracle, [0, 4], tree_id=0, center=0)
        tables = DoubleTreeTables(oracle, [t])
        assert t.contains(4) and not t.contains(3)
        assert tables.dfs_keys.tolist() == [0, 1, 2, 3, 4]
        assert tables.up_keys.tolist() == [4, 5, 6, 7]
        assert (tables.table_entry_counts() > 0).all()

        def hop(x, y):
            addr = tables.address_of(0, y)
            at, up, path = x, True, [x]
            while True:
                port, up = tables.next_port(at, 0, addr, up)
                if port is None:
                    return path
                at = g.head_of_port(at, port)
                path.append(at)

        assert hop(4, 0) == [4, 5, 6, 7, 0]
        assert hop(0, 4) == [0, 1, 2, 3, 4]

    def test_roundtrip_cost_symmetric_bound(self):
        metric = make_metric(14, 8)
        t = DoubleTree(metric.oracle, list(range(14)), tree_id=0)
        for x in range(0, 14, 3):
            for y in range(0, 14, 5):
                assert t.roundtrip_cost(x, y) <= 2 * t.rt_height() + 1e-9


class TestPartialCover:
    def test_disjoint_regions(self):
        clusters = [frozenset({i, i + 1}) for i in range(0, 20, 2)]
        res = partial_cover(cluster_rows(clusters), 2)
        seen = set()
        for region in res.merged_regions:
            assert not (region & seen)
            seen |= region

    def test_covered_clusters_contained(self):
        rng = random.Random(1)
        clusters = [
            frozenset(rng.sample(range(30), rng.randint(1, 6)))
            for _ in range(25)
        ]
        res = partial_cover(cluster_rows(clusters), 3)
        for ci in res.covered:
            region = res.merged_regions[res.covering_region[ci]]
            assert clusters[ci] <= region

    def test_coverage_count_lower_bound(self):
        # Lemma 11 property 3: |DR| >= |R|^{1-1/k}.
        rng = random.Random(2)
        for k in (2, 3):
            clusters = [
                frozenset(rng.sample(range(40), 4)) for _ in range(30)
            ]
            res = partial_cover(cluster_rows(clusters), k)
            assert len(res.covered) >= len(clusters) ** (1 - 1 / k) - 1e-9

    def test_all_clusters_removed_or_alive_invariant(self):
        clusters = [frozenset({i}) for i in range(10)]
        res = partial_cover(cluster_rows(clusters), 2)
        # disjoint singletons: every cluster covered by itself
        assert sorted(res.covered) == list(range(10))
        assert res.removed == set(range(10))

    def test_empty_input(self):
        res = partial_cover(np.zeros((0, 4), dtype=bool), 2)
        assert res.merged_regions == [] and res.covered == []

    def test_chain_overlap_growth(self):
        # Heavily overlapping chain: region growth must absorb it but
        # terminate.
        clusters = [frozenset({i, i + 1, i + 2}) for i in range(20)]
        res = partial_cover(cluster_rows(clusters), 2)
        assert res.covered  # someone got covered
        for ci in res.covered:
            region = res.merged_regions[res.covering_region[ci]]
            assert clusters[ci] <= region

    def test_empty_cluster_raises(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            partial_cover(np.array([[True, False], [False, False]]), 2)

    @settings(max_examples=100, deadline=None)
    @example(clusters=[], repeats=[], k=2)
    @example(clusters=[frozenset({3, 5})], repeats=[], k=1)
    @example(clusters=[frozenset({3, 5}), frozenset({5})], repeats=[0, 0], k=3)
    @given(
        clusters=st.lists(
            st.frozensets(st.integers(0, 11), min_size=1, max_size=6),
            max_size=12,
        ),
        repeats=st.lists(st.integers(0, 11), max_size=4),
        k=st.integers(1, 3),
    )
    def test_kernel_equals_set_reference(self, clusters, repeats, k):
        # repeated clusters: copies of drawn ones, appended
        clusters = clusters + [
            clusters[i % len(clusters)] for i in repeats if clusters
        ]
        assert partial_cover(cluster_rows(clusters), k) == (
            reference_partial_cover(clusters, k)
        )

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_kernel_equals_set_reference_on_hierarchy_balls(
        self, family, k, monkeypatch
    ):
        # every call a real hierarchy build makes, on every level's
        # remaining balls, runs through both
        import repro.covers.sparse_cover as sparse_cover

        calls = []

        def both(member, k):
            result = partial_cover(member, k)
            clusters = [frozenset(np.flatnonzero(row).tolist()) for row in member]
            assert result == reference_partial_cover(clusters, k)
            calls.append(len(clusters))
            return result

        monkeypatch.setattr(sparse_cover, "partial_cover", both)
        net = Network.from_family(family, 40, seed=1, store=None)
        h = TreeHierarchy(net.metric(), k)
        assert len(calls) >= h.num_levels
        assert sum(calls) >= h.num_levels * net.graph.n


class TestCover:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("scale", [1.0, 4.0, 16.0])
    def test_theorem10_properties_random(self, k: int, scale: float):
        metric = make_metric(30, 9)
        res = cover(metric, k, scale)
        verify_cover_properties(metric, k, scale, res)

    def test_theorem10_on_cycle(self):
        g = directed_cycle(16)
        metric = RoundtripMetric(DistanceOracle(g))
        for scale in (2.0, 8.0, 16.0):
            res = cover(metric, 2, scale)
            verify_cover_properties(metric, 2, scale, res)

    def test_theorem10_on_torus(self):
        g = bidirected_torus(4, 4)
        metric = RoundtripMetric(DistanceOracle(g))
        res = cover(metric, 2, 4.0)
        verify_cover_properties(metric, 2, 4.0, res)

    def test_invalid_params(self):
        metric = make_metric(8, 10)
        with pytest.raises(ConstructionError):
            cover(metric, 1, 2.0)
        with pytest.raises(ConstructionError):
            cover(metric, 2, 0.0)

    def test_cover_records_cluster_centers(self):
        metric = make_metric(24, 31)
        res = cover(metric, 2, 4.0)
        assert res.centers == [metric.rt_center(c) for c in res.clusters]

    def test_load_bound_uses_exact_roots(self):
        # 3125 = 5^5: the float form ceil(3125 ** (1/5)) is 6, not 5
        assert cover_load_bound(3125, 5) == 50
        assert cover_load_bound(24, 2) == 2 * 2 * 5
        metric = make_metric(24, 32)
        assert DoubleTreeCover(metric, 2, 4.0).load_bound() == 20

    def test_violations_raise_construction_error(self):
        metric = make_metric(24, 33)
        res = cover(metric, 2, 4.0)
        # vertex 0's home cluster loses vertex 0 itself
        home = res.home_cluster[0]
        clusters = list(res.clusters)
        clusters[home] = clusters[home] - {0}
        with pytest.raises(ConstructionError, match="ball of 0 escapes"):
            verify_cover_properties(
                metric, 2, 4.0, dataclasses.replace(res, clusters=clusters)
            )
        whole = cover(metric, 2, metric.oracle.rt_diameter() + 1)
        with pytest.raises(ConstructionError, match="cluster radius"):
            verify_cover_properties(metric, 2, 1.0, whole)
        with pytest.raises(ConstructionError, match="vertex load"):
            verify_cover_properties(
                metric, 2, 4.0,
                dataclasses.replace(res, clusters=res.clusters * 21),
            )

    def test_huge_scale_single_cluster(self):
        metric = make_metric(12, 11)
        res = cover(metric, 2, metric.oracle.rt_diameter() + 1)
        # all balls are V, so one merged region covers everyone
        assert len(res.clusters) == 1
        assert res.clusters[0] == frozenset(range(12))


class TestDoubleTreeCover:
    def test_verify_passes(self):
        metric = make_metric(24, 12)
        dtc = DoubleTreeCover(metric, 2, 8.0)
        dtc.verify()

    def test_home_tree_contains_ball(self):
        metric = make_metric(20, 13)
        d = 6.0
        dtc = DoubleTreeCover(metric, 2, d)
        for v in range(20):
            home = dtc.home_tree(v)
            assert set(metric.ball(v, d)) <= set(home.members)

    def test_height_bound(self):
        metric = make_metric(20, 14)
        dtc = DoubleTreeCover(metric, 3, 4.0)
        for t in dtc.trees:
            assert t.rt_height() <= dtc.height_bound() + 1e-9

    def test_load_bound(self):
        metric = make_metric(24, 15)
        dtc = DoubleTreeCover(metric, 2, 4.0)
        assert dtc.max_vertex_load() <= dtc.load_bound()

    def test_tree_lookup(self):
        metric = make_metric(10, 16)
        dtc = DoubleTreeCover(metric, 2, 2.0, tree_id_base=100)
        for t in dtc.trees:
            assert dtc.tree_by_id(t.tree_id) is t
        with pytest.raises(ConstructionError):
            dtc.tree_by_id(999999)

    def test_trees_containing(self):
        metric = make_metric(12, 17)
        dtc = DoubleTreeCover(metric, 2, 4.0)
        for v in range(12):
            for t in dtc.trees_containing(v):
                assert t.contains(v)

    def test_tampered_height_bound_raises(self):
        dtc = DoubleTreeCover(make_metric(20, 34), 2, 4.0)
        dtc.height_bound = lambda: -1.0
        with pytest.raises(ConstructionError, match="height"):
            dtc.verify()

    def test_tampered_home_members_raise(self):
        dtc = DoubleTreeCover(make_metric(20, 35), 2, 4.0)
        home = dtc.home_tree(0)
        home.members = [v for v in home.members if v != 0]
        with pytest.raises(ConstructionError, match="home tree of 0"):
            dtc.verify()

    def test_tampered_load_bound_raises(self):
        dtc = DoubleTreeCover(make_metric(20, 36), 2, 4.0)
        dtc.load_bound = lambda: 0
        with pytest.raises(ConstructionError, match="vertex load"):
            dtc.verify()

    def test_verification_survives_python_O(self):
        # ``python -O`` strips asserts; the checks must still run.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import random\n"
            "from repro.covers.sparse_cover import DoubleTreeCover\n"
            "from repro.exceptions import ConstructionError\n"
            "from repro.graph.generators import random_strongly_connected\n"
            "from repro.graph.roundtrip import RoundtripMetric\n"
            "from repro.graph.shortest_paths import DistanceOracle\n"
            "g = random_strongly_connected(16, rng=random.Random(1))\n"
            "dtc = DoubleTreeCover(RoundtripMetric(DistanceOracle(g)), 2, 4.0)\n"
            "dtc.height_bound = lambda: -1.0\n"
            "try:\n"
            "    dtc.verify()\n"
            "except ConstructionError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


class TestTreeTables:
    """The hierarchy's one tree table against the per-tree scalar
    references (:func:`reference_tree`), entry for entry."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_per_tree_reference(self, family, seed, k):
        net = Network.from_family(family, 32, seed=seed, store=None)
        h, g, n = net.hierarchy(k), net.graph, net.n
        tables = h.tables
        trees = list(h.all_trees())
        assert tables.tree_ids.tolist() == [t.tree_id for t in trees]
        assert tables.root.tolist() == [t.root for t in trees]
        up, dfs, rows = [], [], []
        for i, t in enumerate(trees):
            out, inn = reference_tree(net.oracle(), t)
            node = i * n
            up += [
                (node + v, g.head_of_port(v, port), port)
                for v, port in inn.ports().items()
            ]
            dfs += [(node + v, d) for v, d in out.dfs_numbers().items()]
            rows += [
                ((node + v) * n + lo, hi, g.head_of_port(v, port), port)
                for v, lo, hi, port in out.interval_rows()
            ]
        # the sorted references equal the arrays: every entry, none
        # extra; each slot is an out-edge of the entry's own vertex, and
        # reads back the vertex its port reaches
        csr = CSRGraph.from_digraph(g)
        slot_tail = np.repeat(np.arange(n), np.diff(csr.out_indptr))
        assert np.array_equal(slot_tail[tables.up_slot], tables.up_keys % n)
        assert np.array_equal(
            slot_tail[tables.row_slot], tables.row_keys // n % n
        )
        assert sorted(up) == list(zip(
            tables.up_keys.tolist(), csr.out_heads[tables.up_slot].tolist(),
            tables.up_port.tolist(),
        ))
        assert sorted(dfs) == list(zip(
            tables.dfs_keys.tolist(), tables.dfs.tolist()
        ))
        assert sorted(rows) == list(zip(
            tables.row_keys.tolist(), tables.row_hi.tolist(),
            csr.out_heads[tables.row_slot].tolist(),
            tables.row_port.tolist(),
        ))
        assert h.table_entry_counts().tolist() == walked_table_entries(h)

    def test_target_outside_the_subtree_raises(self):
        # out-tree 0 -> {1 -> 3, 2}: DFS 0, 1, 3 -> 2, 2 -> 3; at 1 the
        # only row is 3's [2, 3), which must not take 2's address 3
        g = Digraph(4)
        for tail, head in ((0, 1), (0, 2), (1, 3), (1, 0), (2, 0), (3, 0)):
            g.add_edge(tail, head, 1.0)
        g.freeze()
        oracle = DistanceOracle(g)
        tables = DoubleTreeTables(
            oracle, [DoubleTree(oracle, [0, 2, 3], 0, center=0)]
        )
        assert tables.dfs.tolist() == [0, 1, 3, 2]
        addr = tables.address_of(0, 2)
        assert tables.next_port(0, 0, addr, False)[0] == g.port_of(0, 2)
        with pytest.raises(TableLookupError, match="not under vertex 1"):
            tables.next_port(1, 0, addr, False)

    def test_address_of_a_vertex_outside_the_tree_raises(self):
        h = TreeHierarchy(make_metric(16, 44), 2)
        t = next(t for t in h.all_trees() if len(t.members) == 1)
        other = (t.root + 1) % 16
        with pytest.raises(TableLookupError, match=f"vertex {other} is not in tree"):
            h.tables.address_of(t.tree_id, other)
        with pytest.raises(TableLookupError, match="is not in the hierarchy"):
            h.tables.address_of(-5, t.root)


class TestHierarchy:
    def test_all_levels_verify(self):
        metric = make_metric(18, 18)
        h = TreeHierarchy(metric, 2)
        h.verify()

    def test_tampered_level_raises(self):
        h = TreeHierarchy(make_metric(18, 43), 2)
        h.levels[-1].height_bound = lambda: -1.0
        with pytest.raises(ConstructionError, match="height"):
            h.verify()

    def test_level_count_matches_diameter(self):
        metric = make_metric(18, 19)
        h = TreeHierarchy(metric, 2)
        assert 2 ** (h.num_levels - 1) >= metric.oracle.rt_diameter()

    def test_home_tree_every_level(self):
        metric = make_metric(16, 20)
        h = TreeHierarchy(metric, 2)
        for level in range(h.num_levels):
            for v in range(16):
                home = h.home_tree(v, level)
                assert set(metric.ball(v, 2.0 ** level)) <= set(home.members)

    def test_first_common_home_level(self):
        metric = make_metric(16, 21)
        h = TreeHierarchy(metric, 2)
        for u in range(0, 16, 3):
            for v in range(0, 16, 5):
                level = h.first_common_home_level(u, v)
                assert h.home_tree(u, level).contains(v)
                for earlier in range(level):
                    assert not h.home_tree(u, earlier).contains(v)

    def test_best_tree_for_pair_contains_both(self):
        metric = make_metric(16, 22)
        h = TreeHierarchy(metric, 2)
        for u in range(0, 16, 4):
            for v in range(16):
                if u == v:
                    continue
                t = h.best_tree_for_pair(u, v)
                assert t.contains(u) and t.contains(v)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "graph", ["random", "random2", "cycle", "torus", "decimal-torus"]
    )
    def test_best_tree_matrix_matches_scalar_scan(self, graph: str, k: int):
        # Unit-weight cycles and tori tie many trees on the same cost;
        # the decimal torus has near-ties inside the tie window.
        g = {
            "random": random_strongly_connected(28, rng=random.Random(40)),
            "random2": random_strongly_connected(
                24, rng=random.Random(41), w_lo=0.1, w_hi=0.3
            ),
            "cycle": directed_cycle(18),
            "torus": bidirected_torus(5, 5),
            "decimal-torus": decimal_torus(5, 1),
        }[graph]
        h = TreeHierarchy(RoundtripMetric(DistanceOracle(g)), k)
        trees = list(h.all_trees())
        best = h.best_tree_indices()
        assert best.shape == (g.n, g.n) and not best.flags.writeable
        for u in range(g.n):
            for v in range(g.n):
                ref = scalar_best_tree(h, u, v)
                assert trees[best[u, v]] is ref
                assert h.best_tree_for_pair(u, v) is ref

    def test_pair_in_no_tree_raises(self):
        metric = make_metric(16, 42)
        h = TreeHierarchy(metric, 2)
        # keep only the finest level, whose clusters miss most pairs
        h._trees = list(h.levels[0].trees)
        best = h.best_tree_indices()
        u, v = (int(x[0]) for x in np.nonzero(best < 0))
        assert scalar_best_tree(h, u, v) is not None  # other levels hold it
        with pytest.raises(ConstructionError, match="no double tree"):
            h.best_tree_for_pair(u, v)

    def test_best_tree_cost_within_bound(self):
        metric = make_metric(16, 23)
        h = TreeHierarchy(metric, 2)
        for u in range(0, 16, 2):
            for v in range(0, 16, 3):
                if u == v:
                    continue
                t = h.best_tree_for_pair(u, v)
                assert t.roundtrip_cost(u, v) <= h.spanner_hop_bound(u, v) + 1e-9

    def test_tree_id_roundtrip(self):
        metric = make_metric(12, 24)
        h = TreeHierarchy(metric, 2)
        for t in h.all_trees():
            assert h.tree_by_id(t.tree_id) is t
            assert 0 <= h.level_of_tree_id(t.tree_id) < h.num_levels

    def test_invalid_level(self):
        metric = make_metric(8, 25)
        h = TreeHierarchy(metric, 2)
        with pytest.raises(ConstructionError):
            h.home_tree(0, h.num_levels)

    def test_k_validation(self):
        metric = make_metric(8, 26)
        with pytest.raises(ConstructionError):
            TreeHierarchy(metric, 1)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "family", ["random", "torus", "scale-free", "layered"]
    )
    def test_table_entry_counts_match_the_per_vertex_walk(self, family, k):
        net = Network.from_family(family, 36, seed=2, store=None)
        h = net.hierarchy(k)
        counts = h.table_entry_counts()
        assert counts.shape == (net.n,) and not counts.flags.writeable
        want = walked_table_entries(h)
        assert counts.tolist() == want
        assert [h.table_entries_at(v) for v in range(net.n)] == want
        spanner = net.spanner(k)
        assert [spanner.table_entries(v) for v in range(net.n)] == want
        ex = net.build_scheme("exstretch", k=k).table_items()
        poly = net.build_scheme("polystretch", k=k).table_items()
        assert ex["(1) Tab / tree state"].tolist() == want
        assert poly["(2) tree state"].tolist() == want

    def test_table_accounting_positive(self):
        metric = make_metric(10, 27)
        h = TreeHierarchy(metric, 2)
        total = sum(h.table_entries_at(v) for v in range(10))
        assert total > 0
