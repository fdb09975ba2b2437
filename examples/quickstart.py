#!/usr/bin/env python3
"""Quickstart: route a packet with the stretch-6 TINN scheme.

Builds a random strongly connected weighted digraph and a
:class:`~repro.api.Network` over it (every node gets an adversarial,
topology-independent name), serves the paper's stretch-6 scheme through
a router, and routes a few roundtrips, printing the paths and their
stretch against the true roundtrip distances.

Run:
    python examples/quickstart.py [n] [seed]
"""

from __future__ import annotations

import random
import sys

from repro import Network, measure_stretch, random_strongly_connected


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    print(f"== building a random strongly connected digraph (n={n}) ==")
    g = random_strongly_connected(n, rng=random.Random(seed))
    net = Network(g, seed=seed + 1, store=None)
    print(f"   {g.n} nodes, {g.m} edges, adversarial names + ports")

    print("== constructing the stretch-6 TINN scheme (Section 2) ==")
    router = net.router("stretch6")
    tables = router.table_report()
    print(
        f"   tables: max {tables.max_entries} rows/node, "
        f"mean {tables.mean_entries:.1f} (vs n-1 = {n - 1} for full tables)"
    )

    print("== routing three roundtrips ==")
    rng = random.Random(seed + 3)
    for _ in range(3):
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        route = router.route(s, t)
        print(
            f"   vertex {s} -> name {route.dest_name} (vertex {t}): "
            f"{route.hops} hops, cost {route.cost:.1f}, "
            f"optimal {net.oracle().r(s, t):.1f}, stretch {route.stretch:.2f}"
        )
        print(f"     outbound: {' -> '.join(map(str, route.trace.outbound.path))}")
        print(f"     inbound : {' -> '.join(map(str, route.trace.inbound.path))}")

    print("== verifying the paper's bound over 200 random pairs ==")
    report = measure_stretch(router, sample=200, rng=random.Random(seed + 4))
    print(
        f"   max stretch {report.max_stretch:.2f} (bound 6.0), "
        f"mean {report.mean_stretch:.2f}, "
        f"max header {report.max_header_bits} bits"
    )
    assert report.max_stretch <= 6.0 + 1e-9
    print("   OK: every roundtrip within stretch 6")


if __name__ == "__main__":
    main()
