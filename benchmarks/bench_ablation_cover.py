"""E12 — Section 4.4 ablation: whole-ball covers vs per-pair covers.

The paper argues its Theorem 13 cover (a single tree containing each
node's whole ball) beats the weaker cover of [35] (a tree per *pair*)
because every node can commit to one home tree.  We ablate exactly
that choice: route each pair through

* its source's *home tree* at the first sufficient level (the paper's
  structure), vs
* the *best tree anywhere* containing the pair (the handshake
  optimum, a lower bound for any cover-based hop),

and report the roundtrip-cost gap, plus what fraction of pairs the
home tree already serves optimally among trees.
"""

from __future__ import annotations

from conftest import banner, cached_network

from repro.covers.hierarchy import TreeHierarchy


def test_home_tree_vs_best_tree(benchmark):
    net = cached_network("random", 48, seed=0)
    n = net.n
    h = TreeHierarchy(net.metric(), 2)

    def run():
        worst_gap = 1.0
        total_gap = 0.0
        optimal = 0
        pairs = 0
        for u in range(n):
            for v in range(0, n, 3):
                if u == v:
                    continue
                pairs += 1
                level = h.first_common_home_level(u, v)
                home = h.home_tree(u, level)
                best = h.best_tree_for_pair(u, v)
                c_home = home.roundtrip_cost(u, v)
                c_best = best.roundtrip_cost(u, v)
                gap = c_home / c_best if c_best > 0 else 1.0
                worst_gap = max(worst_gap, gap)
                total_gap += gap
                if gap <= 1.0 + 1e-9:
                    optimal += 1
        return pairs, worst_gap, total_gap / pairs, optimal

    pairs, worst, mean, optimal = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    banner(f"E12 / Section 4.4 ablation - home tree vs best tree (n={n})")
    print(f"pairs                       : {pairs}")
    print(f"worst home/best cost ratio  : {worst:.2f}")
    print(f"mean home/best cost ratio   : {mean:.2f}")
    print(f"home tree already optimal   : {100 * optimal / pairs:.1f}%")
    # The home tree never does worse than the geometry allows: its
    # level is within a factor 2 of r(u,v), its height within (2k-1).
    assert worst <= 4 * (2 * h.k - 1) + 1.0


def test_cover_height_vs_weak_bound(benchmark):
    """The paper's remark: using [35]-style covers would blow stretch
    up to 8k^2+8k instead of 8k^2+4k-4.  We measure how much headroom
    the strong cover's heights actually leave."""
    net = cached_network("random", 48, seed=0)

    def run():
        h = TreeHierarchy(net.metric(), 2)
        ratios = []
        for level, cov in enumerate(h.levels):
            bound = cov.height_bound()
            for t in cov.trees:
                if bound > 0:
                    ratios.append(t.rt_height() / bound)
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E12b - measured tree heights vs the (2k-1)d budget")
    print(f"trees measured      : {len(ratios)}")
    print(f"max height/budget   : {max(ratios):.2f}")
    print(f"mean height/budget  : {sum(ratios) / len(ratios):.2f}")
    assert max(ratios) <= 1.0 + 1e-9
