"""E2 — Lemma 3: the stretch-6 scheme's bound and table shape.

Measures the full all-pairs stretch distribution of the Section 2
scheme, asserts the stretch-6 bound (and stretch-3 for in-neighborhood
destinations), and sweeps table sizes against the ``sqrt(n)`` shape.
E2 and E2b measure stretch6 on the cached random network of n = 48,
through its router.
"""

from __future__ import annotations

import math

from conftest import banner, cached_network

from repro.analysis.experiments import log_log_slope, table_scaling
from repro.analysis.stretch import stretch_distribution
from repro.graph.generators import random_strongly_connected


def test_stretch6_distribution(benchmark):
    router = cached_network("random", 48).router("stretch6")
    dist = benchmark.pedantic(
        lambda: stretch_distribution(router),
        rounds=1,
        iterations=1,
    )
    banner("E2 / Lemma 3 - stretch-6 all-pairs distribution (n=48)")
    print(f"pairs measured      : {len(dist.samples)}")
    print(f"max stretch         : {dist.max():.3f}   (paper bound 6.0)")
    print(f"mean stretch        : {dist.mean():.3f}")
    print(f"p50 / p90 / p99     : {dist.percentile(50):.2f} / "
          f"{dist.percentile(90):.2f} / {dist.percentile(99):.2f}")
    print(f"within stretch 3    : {100 * dist.fraction_at_most(3.0):.1f}% of pairs")
    print("histogram           :", dist.histogram([1.0, 1.5, 2.0, 3.0, 6.0]))
    assert dist.max() <= 6.0 + 1e-9


def test_stretch6_neighborhood_case(benchmark):
    """Near destinations (t in N(s)) must see stretch <= 3."""
    net = cached_network("random", 48)
    router = net.router("stretch6")
    metric = net.metric()

    def worst_near_stretch() -> float:
        worst = 0.0
        for s in range(net.n):
            for t in metric.sqrt_neighborhood(s):
                if t != s:
                    worst = max(worst, router.route(s, t).stretch)
        return worst

    worst = benchmark.pedantic(worst_near_stretch, rounds=1, iterations=1)
    banner("E2b / Lemma 3 case 1 - in-neighborhood destinations")
    print(f"worst in-neighborhood stretch: {worst:.3f} (paper bound 3.0)")
    assert worst <= 3.0 + 1e-9


def test_stretch6_table_scaling(benchmark):
    sizes = [16, 36, 64, 100]

    def family(n, rng):
        return random_strongly_connected(n, rng=rng)

    points = benchmark.pedantic(
        lambda: table_scaling(family, sizes, "stretch6", seed=7),
        rounds=1,
        iterations=1,
    )
    banner("E2c / Section 2.1 - table size vs n (sqrt shape)")
    print(f"{'n':>6} {'max rows':>9} {'mean rows':>10} {'rows/sqrt(n)':>13}")
    for p in points:
        print(
            f"{p.n:>6} {p.max_entries:>9} {p.mean_entries:>10.1f} "
            f"{p.max_entries / math.sqrt(p.n):>13.1f}"
        )
    slope = log_log_slope(points)
    print(f"log-log slope: {slope:.2f}  (1.0 = linear, 0.5 = sqrt)")
    assert slope < 0.95  # strictly sublinear growth
