"""Tests for fixed-port interval tree routing (Lemma 14 substrate)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.covers.double_tree import DoubleTree, DoubleTreeTables
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.digraph import Digraph
from repro.graph.generators import (
    FAMILY_NAMES,
    bidirected_torus,
    random_strongly_connected,
    standard_family,
)
from repro.graph.shortest_paths import DistanceOracle, dijkstra
from repro.tree_routing.fixed_port import (
    TreeAddress,
    pruned_tree_intervals,
    tree_intervals,
)
from tree_references import OutTreeRouter, ToRootPointers


def shortest_path_out_tree(g: Digraph, root: int) -> list:
    _dist, parents = dijkstra(g, root)
    return parents


def shortest_path_in_pointers(g: Digraph, root: int) -> list:
    _dist, succ = dijkstra(g, root, reverse=True)
    return succ


class TestOutTreeRouter:
    def test_route_on_random_sp_tree(self):
        g = random_strongly_connected(30, rng=random.Random(1))
        oracle = DistanceOracle(g)
        parents = shortest_path_out_tree(g, 0)
        tree = OutTreeRouter(g, 0, parents, tree_id=7)
        for v in range(g.n):
            path = tree.route(0, v)
            assert path[0] == 0 and path[-1] == v
            # route is exactly optimal from the root (Lemma 14)
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total == pytest.approx(oracle.d(0, v))

    def test_route_from_interior_vertex(self):
        g = random_strongly_connected(25, rng=random.Random(2))
        parents = shortest_path_out_tree(g, 3)
        tree = OutTreeRouter(g, 3, parents, tree_id=0)
        # pick a vertex with a deep subtree: route from it to any
        # descendant must stay in its subtree
        for v in range(g.n):
            tree.address_of(v)
            # from the root, always routable
            assert tree.route(3, v)[-1] == v

    def test_addresses_unique(self):
        g = random_strongly_connected(20, rng=random.Random(3))
        tree = OutTreeRouter(g, 0, shortest_path_out_tree(g, 0), tree_id=1)
        addrs = {tree.address_of(v).dfs for v in range(g.n)}
        assert len(addrs) == g.n

    def test_next_port_none_at_target(self):
        g = random_strongly_connected(10, rng=random.Random(4))
        tree = OutTreeRouter(g, 0, shortest_path_out_tree(g, 0), tree_id=0)
        assert tree.next_port(5, tree.address_of(5)) is None

    def test_wrong_tree_address_rejected(self):
        g = random_strongly_connected(10, rng=random.Random(5))
        tree = OutTreeRouter(g, 0, shortest_path_out_tree(g, 0), tree_id=3)
        with pytest.raises(TableLookupError):
            tree.next_port(0, TreeAddress(tree_id=99, dfs=1))

    def test_outside_subtree_rejected(self):
        # Line 0 -> 1, 0 -> 2: from 1 you cannot route to 2.
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(1, 0, 1.0)  # make strongly connectable, unused by tree
        g.add_edge(2, 0, 1.0)
        g.freeze()
        tree = OutTreeRouter(g, 0, [-1, 0, 0], tree_id=0)
        with pytest.raises(TableLookupError):
            tree.next_port(1, tree.address_of(2))

    def test_non_member_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 1, 1.0)
        g.freeze()
        tree = OutTreeRouter(g, 0, [-1, 0, -1], tree_id=0)  # 2 not in tree
        assert not tree.contains(2)
        with pytest.raises(TableLookupError):
            tree.address_of(2)
        with pytest.raises(TableLookupError):
            tree.next_port(2, tree.address_of(1))

    def test_missing_edge_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.freeze()
        with pytest.raises(ConstructionError):
            OutTreeRouter(g, 0, [-1, 0, 0], tree_id=0)  # edge (0,2) missing

    def test_cyclic_parents_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        g.freeze()
        with pytest.raises(ConstructionError):
            OutTreeRouter(g, 0, [-1, 2, 1], tree_id=0)

    def test_members_listing(self):
        g = random_strongly_connected(12, rng=random.Random(6))
        tree = OutTreeRouter(g, 0, shortest_path_out_tree(g, 0), tree_id=0)
        assert tree.members() == list(range(12))

    def test_table_entries_counts_children(self):
        g = Digraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(0, 3, 1.0)
        for v in (1, 2, 3):
            g.add_edge(v, 0, 1.0)
        g.freeze()
        tree = OutTreeRouter(g, 0, [-1, 0, 0, 0], tree_id=0)
        assert tree.table_entries_at(0) == 2 + 3 * 3
        assert tree.table_entries_at(1) == 2
        assert tree.table_entries_at(99 % 4) >= 0

    def test_address_bit_size(self):
        addr = TreeAddress(3, 100)
        assert addr.bit_size(1024) == 2 * 10


def drive_tree(tables: DoubleTreeTables, g: Digraph, x: int, y: int) -> list:
    """Drive ``x -> y`` inside tree 0 through the one scalar tree step."""
    target = tables.address_of(0, y)
    at, up, path = x, True, [x]
    while True:
        port, up = tables.next_port(at, 0, target, up)
        if port is None:
            return path
        at = g.head_of_port(at, port)
        path.append(at)


class TestRestrictedTree:
    """A double tree's out-tree is its root's canonical out-tree pruned
    to the members' root paths (:class:`DoubleTreeTables`)."""

    def test_pruning_keeps_steiner_vertices(self):
        # Path 0 -> 1 -> 2; restricting to {2} must keep 1 as Steiner.
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.freeze()
        oracle = DistanceOracle(g)
        tables = DoubleTreeTables(oracle, [DoubleTree(oracle, [0, 2], 0, center=0)])
        assert tables.address_of(0, 1).dfs == 1
        assert drive_tree(tables, g, 0, 2) == [0, 1, 2]

    def test_pruning_drops_unneeded_branches(self):
        g = Digraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 3, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.add_edge(3, 0, 1.0)
        g.freeze()
        oracle = DistanceOracle(g)
        tables = DoubleTreeTables(oracle, [DoubleTree(oracle, [0, 2], 0, center=0)])
        assert [tables.address_of(0, v).dfs for v in (0, 1, 2)] == [0, 1, 2]
        with pytest.raises(TableLookupError, match="not in tree 0"):
            tables.address_of(0, 3)
        # 2's in-pointer leads straight to the root: 1 holds none
        assert tables.up_keys.tolist() == [2]

    def test_unrestricted_spans_everything(self):
        g = random_strongly_connected(15, rng=random.Random(7))
        oracle = DistanceOracle(g)
        tables = DoubleTreeTables(oracle, [DoubleTree(oracle, range(15), 0, center=0)])
        tree = OutTreeRouter(g, 0, oracle.forward_tree_parents(0), tree_id=0)
        assert tables.dfs_keys.tolist() == list(range(15))
        assert dict(enumerate(tables.dfs.tolist())) == tree.dfs_numbers()

    def test_pruned_kernel_numbers_only_the_kept_vertices(self):
        # On the cycle 0 -> 1 -> 2 -> 0, tree 0 keeps 0 -> 1 and tree 1
        # (keys 3 + v) the whole cycle from 1.
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.freeze()
        keys, parent = [0, 1, 3, 4, 5], [-1, 0, 2, -1, 1]
        dfs, end = pruned_tree_intervals(g, keys, parent, [0, 1])
        assert dfs.tolist() == [0, 1, 2, 0, 1]
        assert end.tolist() == [2, 2, 3, 3, 3]
        with pytest.raises(ConstructionError, match="cut off from root 0"):
            pruned_tree_intervals(g, [0, 2], [-1, 1], [0])


class TestToRootPointers:
    def test_routes_to_root_optimally(self):
        g = random_strongly_connected(30, rng=random.Random(8))
        oracle = DistanceOracle(g)
        pointers = ToRootPointers(g, 5, shortest_path_in_pointers(g, 5))
        for v in range(g.n):
            path = pointers.route(v)
            assert path[0] == v and path[-1] == 5
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total == pytest.approx(oracle.d(v, 5))

    def test_next_port_none_at_root(self):
        g = random_strongly_connected(10, rng=random.Random(9))
        pointers = ToRootPointers(g, 2, shortest_path_in_pointers(g, 2))
        assert pointers.next_port(2) is None

    def test_missing_pointer_raises(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 1, 1.0)
        g.freeze()
        pointers = ToRootPointers(g, 0, [-1, 0, -1])
        assert not pointers.contains(2)
        with pytest.raises(TableLookupError):
            pointers.next_port(2)

    def test_missing_edge_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g.freeze()
        with pytest.raises(ConstructionError):
            ToRootPointers(g, 0, [-1, 0, 0])  # edge (2, 0) exists, (1,0) doesn't

    def test_table_entries(self):
        g = random_strongly_connected(10, rng=random.Random(10))
        pointers = ToRootPointers(g, 0, shortest_path_in_pointers(g, 0))
        assert pointers.table_entries_at(0) == 0
        assert all(pointers.table_entries_at(v) == 1 for v in range(1, 10))


def _triangle_with_chords() -> Digraph:
    g = Digraph(4)
    for tail, head in ((0, 1), (1, 2), (2, 1), (1, 0), (2, 3), (3, 0)):
        g.add_edge(tail, head, 1.0)
    return g.freeze()


class TestTreeIntervals:
    """The batched kernel against :class:`OutTreeRouter`, the scalar
    DFS numbering it replaces."""

    @staticmethod
    def assert_matches_routers(g: Digraph) -> None:
        oracle = DistanceOracle(g)
        roots = np.arange(g.n)
        parent = oracle.parent_rows(roots)
        dfs, end = tree_intervals(g, parent, roots)
        assert dfs.shape == end.shape == (g.n, g.n)
        for root in range(g.n):
            tree = OutTreeRouter(g, root, parent[root].tolist(), tree_id=root)
            assert dict(enumerate(dfs[root].tolist())) == tree.dfs_numbers()
            rows = sorted(
                (p, dfs[root, v], end[root, v], g.port_of(p, v))
                for v, p in enumerate(parent[root].tolist())
                if v != root
            )
            assert rows == sorted(tree.interval_rows())
            assert end[root, root] == g.n

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_out_tree_router(self, family: str, seed: int):
        self.assert_matches_routers(standard_family(family, 30, seed=seed))

    def test_matches_on_unit_weight_torus(self):
        # every tie in the torus is broken by the canonical parents
        self.assert_matches_routers(bidirected_torus(5, 6))

    def test_single_vertex(self):
        g = Digraph(1).freeze()
        dfs, end = tree_intervals(g, [[-1]], [0])
        assert dfs.tolist() == [[0]] and end.tolist() == [[1]]

    def test_cycle_rejected(self):
        g = _triangle_with_chords()
        # 1 and 2 point at each other; neither reaches root 0
        with pytest.raises(ConstructionError, match="cycle"):
            tree_intervals(g, [[-1, 2, 1, 2]], [0])

    def test_cut_off_vertex_rejected(self):
        g = _triangle_with_chords()
        with pytest.raises(ConstructionError, match="cut off"):
            tree_intervals(g, [[-1, 0, 1, -1]], [0])

    def test_missing_edge_rejected(self):
        g = _triangle_with_chords()
        # (0, 2) is not an edge of g
        with pytest.raises(ConstructionError, match=r"\(0, 2\)"):
            tree_intervals(g, [[-1, 0, 0, 2]], [0])

    def test_second_tree_checked_too(self):
        g = _triangle_with_chords()
        good = [-1, 0, 1, 2]
        with pytest.raises(ConstructionError, match="cut off from root 1"):
            tree_intervals(g, [good, [-1, -1, 1, 2]], [0, 1])
