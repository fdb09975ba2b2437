"""Tests for the Lemma 1 / Lemma 4 block distribution."""

from __future__ import annotations

import math
import random

import pytest

from repro.dictionary.distribution import BlockDistribution
from repro.exceptions import ConstructionError
from repro.graph.generators import (
    directed_cycle,
    random_strongly_connected,
)
from repro.graph.roundtrip import RoundtripMetric, level_size
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.blocks import BlockSpace, sqrt_block_space
from repro.naming.permutation import random_naming


def make_metric(n: int, seed: int) -> RoundtripMetric:
    g = random_strongly_connected(n, rng=random.Random(seed))
    return RoundtripMetric(DistanceOracle(g))


def scalar_distribution(metric, bs, rng, blocks_per_node):
    """The Lemma 4 sample-then-patch procedure as a scan over every
    ``(v, i, tau)`` requirement, with neighborhoods sorted by
    ``order_key``: the reference the array construction must equal.
    Returns ``(sets, patches, first_holders)``, where
    ``first_holders[(v, i, tau)]`` is the closest holder after patching."""
    n, k = metric.n, bs.k
    num_blocks = bs.num_blocks()
    if blocks_per_node is None:
        blocks_per_node = min(num_blocks, int(3 * math.log(max(n, 2))) + 1)
    sets = [
        set(rng.sample(range(num_blocks), min(blocks_per_node, num_blocks)))
        for _ in range(n)
    ]
    prefixes = [
        list(dict.fromkeys(bs.block_prefix(b)[:i] for b in range(num_blocks)))
        for i in range(k)
    ]
    orders = [
        sorted(range(n), key=lambda u: metric.order_key(v, u))
        for v in range(n)
    ]

    def neighborhood(v, i):
        return orders[v][:level_size(n, i, k)]

    def covers(w, tau):
        return any(bs.block_has_prefix(b, tau) for b in sets[w])

    patches = 0
    for v in range(n):
        for i in range(k):
            for tau in prefixes[i]:
                nbhd = neighborhood(v, i)
                if any(covers(w, tau) for w in nbhd):
                    continue
                target = min(nbhd, key=lambda w: (len(sets[w]), w))
                sets[target].add(bs.blocks_with_prefix(tau)[0])
                patches += 1
    first_holders = {
        (v, i, tau): next(w for w in neighborhood(v, i) if covers(w, tau))
        for v in range(n) for i in range(k) for tau in prefixes[i]
    }
    return sets, patches, first_holders


class TestLemma1SqrtCase:
    """k = 2: the Section 2 case (Fig. 2)."""

    def test_coverage_sqrt_neighborhood(self):
        n = 36
        metric = make_metric(n, 1)
        bs = sqrt_block_space(n)
        dist = BlockDistribution(metric, bs, random.Random(2))
        dist.verify()
        # Explicit Lemma 1 statement: every block type has a holder in
        # every sqrt-neighborhood.
        for v in range(n):
            nbhd = metric.level_neighborhood(v, 1, 2)
            for b in range(bs.num_blocks()):
                assert any(b in dist.sets[w] for w in nbhd)

    def test_log_blocks_per_node(self):
        n = 49
        metric = make_metric(n, 3)
        dist = BlockDistribution(metric, sqrt_block_space(n), random.Random(4))
        assert dist.max_blocks_per_node() <= dist.per_node_bound()
        assert dist.per_node_bound() <= 10 * int(math.log(n) + 1)

    def test_holder_lookup_is_closest(self):
        n = 25
        metric = make_metric(n, 5)
        bs = sqrt_block_space(n)
        dist = BlockDistribution(metric, bs, random.Random(6))
        for v in range(n):
            for b in range(bs.num_blocks()):
                tau = bs.block_prefix(b)
                holder = dist.holder_in_neighborhood(v, 1, tau)
                order = metric.init_order(v)
                pos = order.index(holder)
                # nobody closer holds a block with this prefix
                for w in order[:pos]:
                    assert not any(
                        bs.block_has_prefix(bb, tau) for bb in dist.sets[w]
                    )


class TestLemma4GeneralK:
    @pytest.mark.parametrize("blocks_per_node", [1, None])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_scalar_patch_loop(self, k: int, blocks_per_node):
        n = 30
        for seed in range(3):
            g = random_strongly_connected(n, rng=random.Random(100 + seed))
            ids = random_naming(n, random.Random(seed)).all_names()
            metric = RoundtripMetric(DistanceOracle(g), ids=ids)
            bs = BlockSpace(n, k)
            dist = BlockDistribution(
                metric, bs, random.Random(seed), blocks_per_node
            )
            sets, patches, first_holders = scalar_distribution(
                metric, bs, random.Random(seed), blocks_per_node
            )
            assert dist.sets == sets
            assert dist.patches_applied == patches
            for (v, i, tau), holder in first_holders.items():
                assert dist.holder_in_neighborhood(v, i, tau) == holder
            if blocks_per_node == 1:
                assert patches > 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_coverage_all_levels(self, k: int):
        n = 40
        metric = make_metric(n, 10 + k)
        dist = BlockDistribution(metric, BlockSpace(n, k), random.Random(k))
        dist.verify()

    @pytest.mark.parametrize("seed", range(5))
    def test_coverage_many_seeds(self, seed: int):
        n = 30
        metric = make_metric(n, 20)
        dist = BlockDistribution(metric, BlockSpace(n, 3), random.Random(seed))
        dist.verify()

    def test_cycle_graph(self):
        g = directed_cycle(27)
        metric = RoundtripMetric(DistanceOracle(g))
        dist = BlockDistribution(metric, BlockSpace(27, 3), random.Random(1))
        dist.verify()

    def test_patching_repairs_tiny_samples(self):
        # Force failures with a sample budget of 1 block per node; the
        # patching pass must still deliver full coverage.
        n = 32
        metric = make_metric(n, 30)
        dist = BlockDistribution(
            metric, BlockSpace(n, 2), random.Random(0), blocks_per_node=1
        )
        dist.verify()
        assert dist.patches_applied >= 0  # typically > 0 here

    def test_nearest_holder_global(self):
        n = 27
        metric = make_metric(n, 40)
        bs = BlockSpace(n, 3)
        dist = BlockDistribution(metric, bs, random.Random(2))
        for v in range(0, n, 5):
            for tau in [(0,), (1,), (0, 0), (2, 1)]:
                try:
                    holder = dist.nearest_holder(v, tau)
                except ConstructionError:
                    continue  # prefix may be empty in padded spaces
                order = metric.init_order(v)
                pos = order.index(holder)
                for w in order[:pos]:
                    assert not any(
                        bs.block_has_prefix(b, tau) for b in dist.sets[w]
                    )

    def test_augmented_blocks_include_own(self):
        n = 25
        metric = make_metric(n, 50)
        bs = BlockSpace(n, 2)
        dist = BlockDistribution(metric, bs, random.Random(3))
        for v in range(n):
            own_name = v  # identity naming
            s_prime = dist.augmented_blocks_of(v, own_name)
            assert bs.block_of(own_name) in s_prime
            assert dist.sets[v] <= s_prime

    def test_holders_of_block_consistent(self):
        n = 16
        metric = make_metric(n, 60)
        bs = BlockSpace(n, 2)
        dist = BlockDistribution(metric, bs, random.Random(4))
        for b in range(bs.num_blocks()):
            holders = dist.holders_of_block(b)
            for v in range(n):
                assert (v in holders) == (b in dist.sets[v])

    def test_mismatched_sizes_rejected(self):
        metric = make_metric(10, 70)
        with pytest.raises(ConstructionError):
            BlockDistribution(metric, BlockSpace(12, 2), random.Random(0))

    def test_bad_budget_rejected(self):
        metric = make_metric(10, 80)
        with pytest.raises(ConstructionError):
            BlockDistribution(
                metric, BlockSpace(10, 2), random.Random(0), blocks_per_node=0
            )

    def test_total_entries_accounting(self):
        n = 20
        metric = make_metric(n, 90)
        bs = BlockSpace(n, 2)
        dist = BlockDistribution(metric, bs, random.Random(5))
        manual = 0
        for v in range(n):
            for b in dist.sets[v]:
                manual += len(bs.block_members(b))
        assert dist.total_entries() == manual

    def test_statistics_sane(self):
        n = 36
        metric = make_metric(n, 95)
        dist = BlockDistribution(metric, BlockSpace(n, 2), random.Random(6))
        assert 1 <= dist.mean_blocks_per_node() <= dist.max_blocks_per_node()


#: Lemma 1 with one sampled block per node: the patched sets leave many
#: (node, block) requirements covered by a single holder.
SOLE_COVER_SETUP = """
import random
from repro.dictionary.distribution import BlockDistribution
from repro.graph.generators import random_strongly_connected
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.blocks import BlockSpace

g = random_strongly_connected(32, rng=random.Random(30))
metric = RoundtripMetric(DistanceOracle(g))
dist = BlockDistribution(
    metric, BlockSpace(32, 2), random.Random(0), blocks_per_node=1
)
dist.verify()
# a block b that only one node w of some N_1(v) holds
w, b = next(
    (holders[0], b)
    for v in range(32)
    for b in range(dist.block_space.num_blocks())
    for holders in [[u for u in metric.level_neighborhood(v, 1, 2)
                     if b in dist.sets[u]]]
    if len(holders) == 1
)
dist.sets[w].discard(b)
"""


class TestVerify:
    """``verify`` is a check that raises, not an ``assert``."""

    def test_removed_covering_block_raises(self):
        scope = {}
        exec(SOLE_COVER_SETUP, scope)
        with pytest.raises(ConstructionError, match="uncovered"):
            scope["dist"].verify()

    def test_over_budget_node_raises(self):
        metric = make_metric(40, 31)
        dist = BlockDistribution(
            metric, BlockSpace(40, 2), random.Random(1), blocks_per_node=1
        )
        dist.verify()
        assert dist.per_node_bound() == 5
        dist.sets[3] = set(range(dist.block_space.num_blocks()))  # all 6
        with pytest.raises(ConstructionError, match="node 3 stores"):
            dist.verify()

    def test_verification_survives_python_O(self):
        # ``python -O`` strips asserts; the check must still run.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = SOLE_COVER_SETUP + (
            "from repro.exceptions import ConstructionError\n"
            "try:\n"
            "    dist.verify()\n"
            "except ConstructionError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"
