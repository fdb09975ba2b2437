"""Tests for the distributed table-construction simulation."""

from __future__ import annotations

import math
import random


from repro.distributed.preprocessing import DistributedPreprocessing
from repro.graph.generators import (
    bidirected_torus,
    directed_cycle,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import random_naming
from repro.rtz.centers import CenterAssignment
from tree_references import OutTreeRouter


def build(g, seed=0):
    naming = random_naming(g.n, random.Random(seed))
    oracle = DistanceOracle(g)
    prep = DistributedPreprocessing(g, naming, seed=seed + 1)
    return naming, oracle, prep


class TestPhases:
    def test_phase1_everyone_knows_everyone(self):
        g = random_strongly_connected(18, rng=random.Random(1))
        naming, _oracle, prep = build(g, 1)
        expected = set(naming.all_names())
        for v in range(g.n):
            assert prep.nodes[v].known_names == expected

    def test_leader_is_min_name(self):
        g = random_strongly_connected(15, rng=random.Random(2))
        naming, _oracle, prep = build(g, 2)
        assert naming.name_of(prep.leader) == 0

    def test_phase2_distances_exact(self):
        g = random_strongly_connected(16, rng=random.Random(3))
        _naming, oracle, prep = build(g, 3)
        prep.verify_against_oracle(oracle)

    def test_phase2_on_cycle(self):
        g = directed_cycle(12, rng=random.Random(4))
        _naming, oracle, prep = build(g, 4)
        prep.verify_against_oracle(oracle)

    def test_phase2_on_torus(self):
        g = bidirected_torus(3, 4, rng=random.Random(5))
        _naming, oracle, prep = build(g, 5)
        prep.verify_against_oracle(oracle)

    def test_phase3_landmarks_consistent_everywhere(self):
        g = random_strongly_connected(20, rng=random.Random(6))
        _naming, _oracle, prep = build(g, 6)
        reference = prep.nodes[0].landmarks
        assert len(reference) == int(math.ceil(math.sqrt(20)))
        for v in range(g.n):
            assert prep.nodes[v].landmarks == reference

    def test_phase3_blocks_follow_shared_randomness(self):
        # Anyone can recompute anyone's block set from (seed, name):
        # the verifiability property shared randomness buys.
        g = random_strongly_connected(16, rng=random.Random(7))
        naming, _oracle, prep = build(g, 7)
        from repro.naming.blocks import sqrt_block_space

        blocks = sqrt_block_space(16)
        budget = min(blocks.num_blocks(), int(3 * math.log(16)) + 1)
        for v in range(g.n):
            # the protocol's shared seed is build-seed + 1 == 8
            local = random.Random(8 * 1_000_003 + naming.name_of(v))
            expected = set(local.sample(range(blocks.num_blocks()), budget))
            assert prep.nodes[v].blocks == expected

    def test_phase4_cluster_decisions_match_centralized(self):
        g = random_strongly_connected(16, rng=random.Random(8))
        _naming, oracle, prep = build(g, 8)
        prep.verify_cluster_decisions(oracle)

    def test_phase4_matches_center_assignment_object(self):
        g = random_strongly_connected(14, rng=random.Random(9))
        naming, oracle, prep = build(g, 9)
        metric = RoundtripMetric(oracle, ids=naming.all_names())
        landmark_vertices = [
            naming.vertex_of(c) for c in prep.nodes[0].landmarks
        ]
        assignment = CenterAssignment(metric, landmark_vertices)
        for v in range(g.n):
            for u in range(g.n):
                if u == v:
                    continue
                assert prep.in_cluster(
                    u, naming.name_of(v)
                ) == assignment.in_cluster(u, v)


class TestLocalViews:
    def test_init_order_matches_centralized(self):
        g = random_strongly_connected(16, rng=random.Random(10))
        naming, oracle, prep = build(g, 10)
        metric = RoundtripMetric(oracle, ids=naming.all_names())
        for v in range(g.n):
            central = [naming.name_of(u) for u in metric.init_order(v)]
            assert prep.init_order_of(v) == central

    def test_neighborhood_matches_centralized(self):
        g = random_strongly_connected(16, rng=random.Random(11))
        naming, oracle, prep = build(g, 11)
        metric = RoundtripMetric(oracle, ids=naming.all_names())
        for v in range(g.n):
            central = {naming.name_of(u) for u in metric.sqrt_neighborhood(v)}
            assert set(prep.neighborhood_of(v)) == central

    def test_home_landmark_minimises(self):
        g = random_strongly_connected(15, rng=random.Random(12))
        naming, oracle, prep = build(g, 12)
        for v in range(g.n):
            home = prep.home_landmark_of(v)
            hv = naming.vertex_of(home)
            for c in prep.nodes[v].landmarks:
                cv = naming.vertex_of(c)
                assert oracle.r(v, hv) <= oracle.r(v, cv) + 1e-9


class TestTreeAddresses:
    def test_distributed_trees_route_optimally(self):
        g = random_strongly_connected(16, rng=random.Random(13))
        naming, oracle, prep = build(g, 13)
        for c_name, parents in prep.tree_parents.items():
            c = naming.vertex_of(c_name)
            parent_arr = [-1] * g.n
            for v in range(g.n):
                if v == c:
                    continue
                parent_arr[v] = naming.vertex_of(parents[naming.name_of(v)])
            tree = OutTreeRouter(g, c, parent_arr, tree_id=0)
            for v in range(g.n):
                path = tree.route(c, v)
                cost = sum(
                    g.weight(a, b) for a, b in zip(path, path[1:])
                )
                assert abs(cost - oracle.d(c, v)) < 1e-9

    def test_addresses_are_permutations(self):
        g = random_strongly_connected(14, rng=random.Random(14))
        _naming, _oracle, prep = build(g, 14)
        for addr in prep.tree_addresses.values():
            assert sorted(addr.values()) == list(range(g.n))


class TestAccounting:
    def test_costs_recorded_per_phase(self):
        g = random_strongly_connected(12, rng=random.Random(15))
        _naming, _oracle, prep = build(g, 15)
        assert set(prep.costs) == {
            "1 names+leader",
            "2 distances",
            "3 seed+blocks",
            "4 center radii",
            "5 tree addresses",
        }
        assert prep.total_messages() == sum(
            c.messages for c in prep.costs.values()
        )
        assert prep.total_rounds() > 0

    def test_message_cost_scales_superlinearly(self):
        # the honest cost of the open problem: messages grow ~ n * m
        small = random_strongly_connected(10, rng=random.Random(16))
        large = random_strongly_connected(30, rng=random.Random(16))
        _n1, _o1, prep_small = build(small, 16)
        _n2, _o2, prep_large = build(large, 17)
        assert prep_large.total_messages() > 3 * prep_small.total_messages()
