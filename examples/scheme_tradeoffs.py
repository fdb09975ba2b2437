#!/usr/bin/env python3
"""The space/stretch tradeoff across all schemes (Fig. 1, live).

Builds one workload graph and regenerates the paper's comparison
table: the linear-table baseline, the name-dependent RTZ-3 scheme, and
the paper's three TINN schemes (stretch-6, ExStretch, and
PolynomialStretch for k = 2 and 3), printing claimed-vs-measured
stretch and table sizes.

Run:
    python examples/scheme_tradeoffs.py [n] [seed]
"""

from __future__ import annotations

import random
import sys

from repro import (
    Network,
    fig1_comparison,
    format_rows,
    measure_stretch,
    random_strongly_connected,
)
from repro.analysis.experiments import assert_rows_sound


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 49
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 5

    print(f"== Fig. 1 regenerated on a random digraph (n={n}) ==")
    g = random_strongly_connected(n, rng=random.Random(seed))
    net = Network(g, seed=seed + 1, store=None)
    rows = fig1_comparison(net, seed=seed + 1, sample_pairs=300, k=2)
    print(format_rows(rows))
    assert_rows_sound(rows)
    print("   all schemes within their claimed stretch\n")

    print("== the k knob: ExStretch and PolynomialStretch at k=2,3 ==")
    for k in (2, 3):
        for name in ("exstretch", "polystretch"):
            router = net.router(name, k=k)
            rep = measure_stretch(router, sample=200, rng=random.Random(k))
            bound = net.stretch_bound(name, k=k)
            print(
                f"   {router.scheme.name:<22} k={k}: "
                f"max stretch {rep.max_stretch:5.2f} "
                f"(bound {bound:6.1f}), "
                f"tables max {router.table_report().max_entries:5d} rows"
            )
            assert rep.max_stretch <= bound + 1e-9
    print(
        "\n   larger k: smaller dictionary tables, looser stretch bound "
        "- the paper's tradeoff, live"
    )


if __name__ == "__main__":
    main()
