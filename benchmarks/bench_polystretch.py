"""E5 — Section 4.3 / Figs. 9-11: PolynomialStretch.

Measures delivery and stretch for k in {2, 3} against the
``8k^2 + 4k - 4`` bound, and records the level-doubling search cost
(how many levels the search climbs before succeeding).
"""

from __future__ import annotations

import random

from conftest import banner, cached_network

from repro.runtime.stats import measure_stretch, measure_tables


def test_polystretch_tradeoff(benchmark):
    net = cached_network("random", 48, seed=0)
    n = net.n
    rows = {}

    def run():
        for k in (2, 3):
            scheme = net.build_scheme("polystretch", k=k)
            rep = measure_stretch(
                net.router(scheme), sample=250, rng=random.Random(k)
            )
            tab = measure_tables(scheme)
            rows[k] = (scheme, rep, tab)
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E5 / Section 4.3 - PolynomialStretch tradeoff (n={n})")
    print(f"{'k':>3} {'bound 8k^2+4k-4':>16} {'max':>7} {'mean':>7} "
          f"{'tab max':>8} {'hdr bits':>9}")
    for k, (scheme, rep, tab) in rows.items():
        print(
            f"{k:>3} {scheme.stretch_bound():>16.1f} {rep.max_stretch:>7.2f} "
            f"{rep.mean_stretch:>7.2f} {tab.max_entries:>8} "
            f"{rep.max_header_bits:>9}"
        )
        assert rep.max_stretch <= scheme.stretch_bound() + 1e-9


def test_polystretch_level_search(benchmark):
    """How deep does the level-doubling search go before succeeding?"""
    net = cached_network("random", 48, seed=0)
    n = net.n
    scheme = net.build_scheme("polystretch", k=2)
    h = scheme.hierarchy

    def run():
        histogram = {}
        for s in range(n):
            for t in range(0, n, 5):
                if s == t:
                    continue
                level = h.first_common_home_level(s, t)
                histogram[level] = histogram.get(level, 0) + 1
        return histogram

    histogram = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E5b / Section 4.2 - success level of the bottom-up search")
    print(f"hierarchy levels available: {h.num_levels}")
    for level in sorted(histogram):
        print(f"  level {level} (scale 2^{level}): {histogram[level]} pairs")
    assert max(histogram) < h.num_levels


def test_polystretch_families(benchmark):
    results = {}

    def run():
        for fam in ("cycle", "torus"):
            fam_net = cached_network(fam, 36, seed=0)
            scheme = fam_net.build_scheme("polystretch", k=2)
            rep = measure_stretch(
                fam_net.router(scheme), sample=150, rng=random.Random(3)
            )
            results[fam] = (scheme, rep)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E5c / PolynomialStretch across families (k=2, n~36)")
    for fam, (scheme, rep) in results.items():
        print(
            f"{fam:>8}: max {rep.max_stretch:5.2f} mean "
            f"{rep.mean_stretch:5.2f} (bound {scheme.stretch_bound():.1f})"
        )
        assert rep.max_stretch <= scheme.stretch_bound() + 1e-9
