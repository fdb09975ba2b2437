"""E4 — Theorem 9 / Lemma 8 / Figs. 4-6: ExStretch.

Measures delivery and stretch for k in {2, 3}, checks the Lemma 8
waypoint-doubling ladder, and records header growth (the o(k log^2 n)
stack).
"""

from __future__ import annotations

import random

from conftest import banner, cached_instance, cached_network

from repro.analysis.stretch import stretch_distribution
from repro.runtime.sizing import log2_squared
from repro.runtime.stats import measure_stretch, measure_tables


def test_exstretch_tradeoff(benchmark):
    net = cached_network("random", 64, seed=0)
    inst = cached_instance("random", 64, seed=0)
    n = inst.graph.n
    rows = {}

    def run():
        for k in (2, 3):
            scheme = net.build_scheme("exstretch", k=k, rng=random.Random(k))
            rep = measure_stretch(
                scheme, inst.oracle, sample=300, rng=random.Random(k + 10)
            )
            tab = measure_tables(scheme)
            rows[k] = (scheme, rep, tab)
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E4 / Theorem 9 - ExStretch stretch/space tradeoff (n={n})")
    print(f"{'k':>3} {'bound':>8} {'max':>7} {'mean':>7} "
          f"{'tab max':>8} {'hdr bits':>9} {'hdr budget':>11}")
    for k, (scheme, rep, tab) in rows.items():
        budget = 8 * k * log2_squared(n)
        print(
            f"{k:>3} {scheme.stretch_bound():>8.1f} {rep.max_stretch:>7.2f} "
            f"{rep.mean_stretch:>7.2f} {tab.max_entries:>8} "
            f"{rep.max_header_bits:>9} {budget:>11.0f}"
        )
        assert rep.max_stretch <= scheme.stretch_bound() + 1e-9
        assert rep.max_header_bits <= budget


def test_exstretch_lemma8_ladder(benchmark):
    """Lemma 8: r(v_i, v_{i+1}) <= 2^i r(s, t) along the waypoints."""
    net = cached_network("random", 64, seed=0)
    inst = cached_instance("random", 64, seed=0)
    n = inst.graph.n
    scheme = net.build_scheme("exstretch", k=3, rng=random.Random(5))
    naming, metric = inst.naming, inst.metric

    def ladder_violations():
        checked = 0
        worst_ratio = 0.0
        for s in range(0, n, 5):
            for t in range(0, n, 7):
                if s == t:
                    continue
                dest = naming.name_of(t)
                if scheme._near.get(s, dest) >= 0:  # N_1 shortcut
                    continue
                at, hop = s, 0
                waypoints = [s]
                while at != t and hop < scheme.k:
                    hop += 1
                    nxt, _ = scheme._next_stop(at, hop, dest)
                    waypoints.append(nxt)
                    at = nxt
                r_st = metric.r(s, t)
                for i, (a, b) in enumerate(zip(waypoints, waypoints[1:])):
                    if a == b:
                        continue
                    ratio = metric.r(a, b) / ((2 ** i) * r_st)
                    worst_ratio = max(worst_ratio, ratio)
                    checked += 1
        return checked, worst_ratio

    checked, worst = benchmark.pedantic(ladder_violations, rounds=1, iterations=1)
    banner("E4b / Lemma 8 - waypoint doubling ladder (k=3)")
    print(f"hops checked: {checked}")
    print(f"worst r(v_i, v_i+1) / (2^i r(s,t)): {worst:.3f}  (bound 1.0)")
    assert worst <= 1.0 + 1e-9


def test_exstretch_distribution_families(benchmark):
    results = {}

    def run():
        for fam in ("cycle", "torus", "dht"):
            fam_net = cached_network(fam, 36, seed=0)
            scheme = fam_net.build_scheme("exstretch", k=2, rng=random.Random(1))
            results[fam] = (
                scheme,
                stretch_distribution(
                    scheme, fam_net.oracle(), sample=200, rng=random.Random(2)
                ),
            )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E4c / ExStretch across families (k=2, n~36)")
    for fam, (scheme, dist) in results.items():
        print(
            f"{fam:>8}: max {dist.max():5.2f} mean {dist.mean():5.2f} "
            f"(bound {scheme.stretch_bound():.1f})"
        )
        assert dist.max() <= scheme.stretch_bound() + 1e-9
