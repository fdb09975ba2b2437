"""E3 — Fig. 2 / Lemmas 1 & 4: the block distribution.

Regenerates the paper's block-distribution picture as numbers: per-node
block counts against the O(log n) budget, full neighborhood coverage at
every level, and the (rarely needed) deterministic patches.
"""

from __future__ import annotations

import math
import random

from conftest import banner, cached_network

from repro.dictionary.distribution import BlockDistribution
from repro.naming.blocks import BlockSpace


def test_block_distribution_lemma4(benchmark):
    net = cached_network("random", 64, seed=0)
    n = net.n
    results = {}

    def run():
        for k in (2, 3, 4):
            dist = BlockDistribution(
                net.metric(), BlockSpace(n, k), random.Random(k)
            )
            dist.verify()
            results[k] = dist
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E3 / Fig. 2 + Lemma 4 - block distribution (n={n})")
    print(f"{'k':>3} {'blocks':>7} {'max |S_v|':>10} {'mean':>6} "
          f"{'budget':>7} {'patches':>8}")
    for k, dist in results.items():
        print(
            f"{k:>3} {dist.block_space.num_blocks():>7} "
            f"{dist.max_blocks_per_node():>10} "
            f"{dist.mean_blocks_per_node():>6.1f} "
            f"{dist.per_node_bound():>7} {dist.patches_applied:>8}"
        )
        assert dist.max_blocks_per_node() <= dist.per_node_bound()
    # O(log n) shape: budget within a small multiple of ln(n)
    ln_n = math.log(n)
    for dist in results.values():
        assert dist.per_node_bound() <= 10 * ln_n


def test_block_coverage_probability(benchmark):
    """How often does pure sampling succeed without patches? (the
    with-high-probability claim, measured)."""
    net = cached_network("random", 49, seed=0)
    n = net.n

    def run():
        clean = 0
        trials = 12
        for seed in range(trials):
            dist = BlockDistribution(
                net.metric(), BlockSpace(n, 2), random.Random(seed)
            )
            if dist.patches_applied == 0:
                clean += 1
        return clean, trials

    clean, trials = benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E3b / Lemma 1 - sampling success rate (n={n}, k=2)")
    print(f"runs with zero deterministic patches: {clean}/{trials}")
    assert clean >= trials // 2  # w.h.p. in practice too
