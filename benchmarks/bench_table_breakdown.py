"""E15 — the space-analysis itemizations of §2.1 / §3.3 / §4.1.

Prints each TINN scheme's table composition exactly as the paper's
space arguments itemize it, so the per-layer budgets can be eyeballed
against the aggregate `~O(.)` claims.
"""

from __future__ import annotations

from conftest import banner, cached_network

from repro.analysis.tables import breakdown


def test_breakdowns(benchmark):
    net = cached_network("random", 48, seed=0)
    results = {}

    def run():
        results["stretch-6 (§2.1)"] = breakdown(net.build_scheme("stretch6"))
        results["exstretch k=2 (§3.3)"] = breakdown(
            net.build_scheme("exstretch", k=2)
        )
        results["polystretch k=2 (§4.1)"] = breakdown(
            net.build_scheme("polystretch", k=2)
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E15 - table composition per scheme (n=48)")
    for label, b in results.items():
        print(f"\n--- {label} ---")
        print(b.format(48))
        assert b.total() > 0
