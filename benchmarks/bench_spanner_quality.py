"""E16 — Lemma 5 substitution quality: measured handshake stretch.

DESIGN.md documents that our handshake spanner (built on the paper's
own Theorem 13 covers) has worst-case per-hop roundtrip stretch
``8k - 3`` versus the original RTZ spanner's ``2k + eps``.  This
experiment measures the *actual* per-pair handshake stretch
distribution, quantifying how much the substitution costs in practice
(spoiler: the measured values sit below the paper's own 2k+eps bound
for most pairs).
"""

from __future__ import annotations

from conftest import banner, cached_network

from repro.rtz.spanner import HandshakeSpanner


def test_handshake_stretch_distribution(benchmark):
    net = cached_network("random", 48, seed=0)
    n, oracle = net.n, net.oracle()

    def run():
        sp = HandshakeSpanner(net.metric(), k=2)
        ratios = []
        for u in range(n):
            for v in range(u + 1, n):
                cost = sp.r2(u, v)
                tree = sp.tree_of(cost)
                ratios.append(
                    tree.roundtrip_cost(u, v) / oracle.r(u, v)
                )
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    ratios.sort()
    k = 2
    banner("E16 / Lemma 5 substitute - handshake roundtrip stretch (k=2)")
    print(f"pairs                 : {len(ratios)}")
    print(f"max hop stretch       : {ratios[-1]:.2f}")
    print(f"p90 hop stretch       : {ratios[int(0.9 * len(ratios))]:.2f}")
    print(f"mean hop stretch      : {sum(ratios) / len(ratios):.2f}")
    print(f"paper's RTZ bound     : 2k+eps = {2 * k}.x")
    print(f"our worst-case bound  : 8k-3   = {8 * k - 3}")
    within_rtz = sum(1 for r in ratios if r <= 2 * k + 0.5) / len(ratios)
    print(f"pairs within 2k+0.5   : {100 * within_rtz:.1f}%")
    assert ratios[-1] <= 8 * k - 3 + 1e-9


def test_handshake_stretch_vs_k(benchmark):
    net = cached_network("random", 36, seed=0)
    n, oracle = net.n, net.oracle()
    rows = {}

    def run():
        for k in (2, 3):
            sp = HandshakeSpanner(net.metric(), k=k)
            worst = 0.0
            total = 0.0
            pairs = 0
            for u in range(n):
                for v in range(u + 1, n):
                    tree = sp.tree_of(sp.r2(u, v))
                    ratio = tree.roundtrip_cost(u, v) / oracle.r(u, v)
                    worst = max(worst, ratio)
                    total += ratio
                    pairs += 1
            rows[k] = (worst, total / pairs)
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E16b - handshake stretch vs k")
    print(f"{'k':>3} {'worst':>7} {'mean':>7} {'8k-3':>6} {'2k':>4}")
    for k, (worst, mean) in rows.items():
        print(f"{k:>3} {worst:>7.2f} {mean:>7.2f} {8 * k - 3:>6} {2 * k:>4}")
        assert worst <= 8 * k - 3 + 1e-9
