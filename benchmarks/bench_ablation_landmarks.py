"""E17 — landmark-count ablation for the Lemma 2 substrate.

The stretch-6 scheme's substrate balances two table halves: per-
landmark tree state (grows with |A|) and direct cluster entries
(shrink with |A|, expected n/|A| each).  The paper picks
|A| ~ sqrt(n); this ablation sweeps |A| and shows the balance point
and that the stretch guarantee is |A|-independent.
"""

from __future__ import annotations

import random

from conftest import banner, cached_network

from repro.graph.shortest_paths import path_length
from repro.rtz.routing import RTZStretch3


def test_landmark_sweep(benchmark):
    net = cached_network("random", 64, seed=0)
    n = net.n
    oracle = net.oracle()
    root = max(2, int(round(n ** 0.5)))
    counts = sorted({2, 4, root, 16, 32} & set(range(2, n + 1)) | {root})
    rows = []

    def run():
        for size in counts:
            rtz = RTZStretch3(
                net.metric(), random.Random(size), center_count=size
            )
            max_tab = max(rtz.table_entries(u) for u in range(n))
            mean_cluster = rtz.assignment.mean_cluster_size()
            worst = 0.0
            g = net.graph
            for x in range(0, n, 4):
                for y in range(0, n, 5):
                    if x == y:
                        continue
                    cost = path_length(g, rtz.route_leg(x, y)) + path_length(
                        g, rtz.route_leg(y, x)
                    )
                    worst = max(worst, cost / oracle.r(x, y))
            rows.append((size, max_tab, mean_cluster, worst))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E17 - landmark count ablation (n={n}, sqrt(n)={root})")
    print(f"{'|A|':>5} {'max table':>10} {'mean |C(v)|':>12} "
          f"{'worst stretch':>14}")
    for (size, tab, cluster, worst) in rows:
        marker = "  <- sqrt(n)" if size == root else ""
        print(f"{size:>5} {tab:>10} {cluster:>12.1f} {worst:>14.2f}"
              f"{marker}")
        assert worst <= 3.0 + 1e-9  # guarantee holds for every |A|
    # the sqrt(n) choice should be near the table minimum
    tables = {size: tab for (size, tab, _c, _w) in rows}
    assert tables[root] <= 2 * min(tables.values())
