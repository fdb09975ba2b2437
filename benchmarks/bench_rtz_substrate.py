"""E7 — Lemma 2: the name-dependent stretch-3 substrate.

Verifies the per-leg bound ``p(u,v) <= r(u,v) + d(u,v)``, the roundtrip
stretch-3 bound, and the ``~O(sqrt n)`` table shape of the substrate.
"""

from __future__ import annotations

import math
import random

from conftest import banner, cached_network

from repro.graph.shortest_paths import path_length
from repro.rtz.routing import RTZStretch3


def test_lemma2_leg_bounds(benchmark):
    net = cached_network("random", 48, seed=0)
    n = net.n
    rtz = RTZStretch3(net.metric(), random.Random(1))
    g, oracle = net.graph, net.oracle()

    def run():
        worst_leg = 0.0
        worst_rt = 0.0
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                fwd = path_length(g, rtz.route_leg(x, y))
                back = path_length(g, rtz.route_leg(y, x))
                worst_leg = max(
                    worst_leg, fwd / rtz.leg_cost_bound(x, y)
                )
                worst_rt = max(
                    worst_rt, (fwd + back) / oracle.r(x, y)
                )
        return worst_leg, worst_rt

    worst_leg, worst_rt = benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E7 / Lemma 2 - RTZ-3 substrate bounds (n={n}, all pairs)")
    print(f"worst leg cost / (r + d) : {worst_leg:.3f}  (bound 1.0)")
    print(f"worst roundtrip stretch  : {worst_rt:.3f}  (bound 3.0)")
    assert worst_leg <= 1.0 + 1e-9
    assert worst_rt <= 3.0 + 1e-9


def test_rtz_table_shape(benchmark):
    sizes = [25, 49, 100, 169]
    points = []

    def run():
        from repro.api import Network
        from repro.graph.generators import random_strongly_connected

        for n in sizes:
            g = random_strongly_connected(n, rng=random.Random(n))
            net = Network(g, seed=n, store=None)
            rtz = RTZStretch3(net.metric(), random.Random(n + 1))
            max_entries = max(rtz.table_entries(u) for u in range(n))
            points.append((n, max_entries))
        return points

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E7b / Lemma 2 - substrate table scaling")
    print(f"{'n':>6} {'max rows':>9} {'rows/sqrt(n)':>13} {'budget':>8}")
    for (n, entries) in points:
        budget = 12.0 * math.sqrt(n) * max(1.0, math.log2(n))
        print(f"{n:>6} {entries:>9} {entries / math.sqrt(n):>13.1f} "
              f"{budget:>8.0f}")
        assert entries <= 3 * budget
    # sublinear growth check between extreme points
    n0, e0 = points[0]
    n1, e1 = points[-1]
    growth = math.log(e1 / e0) / math.log(n1 / n0)
    print(f"log-log slope: {growth:.2f} (0.5 = sqrt, 1.0 = linear)")
    assert growth < 0.95


def test_center_cluster_balance(benchmark):
    """E[|C(v)|] ~ n / |A|: the two table halves stay balanced."""
    net = cached_network("random", 64, seed=0)
    n = net.n

    def run():
        rtz = RTZStretch3(net.metric(), random.Random(5))
        return (
            len(rtz.centers),
            rtz.assignment.mean_cluster_size(),
            rtz.assignment.max_cluster_size(),
        )

    centers, mean_c, max_c = benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E7c / Lemma 2 - landmark vs cluster balance (n={n})")
    print(f"|A| = {centers}, mean |C(v)| = {mean_c:.1f}, max = {max_c}")
    print(f"n / |A| = {n / centers:.1f} (expected cluster scale)")
    assert mean_c <= 6 * n / centers
