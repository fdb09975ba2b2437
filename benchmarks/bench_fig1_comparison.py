"""E1 — Fig. 1: the headline comparison table, regenerated.

Prints the claimed-vs-measured stretch / table / header columns for the
linear baseline, the name-dependent RTZ-3 scheme, and the paper's three
TINN schemes, on the shared random instance; asserts every claimed
bound; and times the full-table regeneration as the benchmark kernel.
"""

from __future__ import annotations

from conftest import banner, cached_network

from repro.analysis.experiments import (
    assert_rows_sound,
    fig1_comparison,
    format_rows,
)


def _regenerate(n: int = 48, seed: int = 3):
    return fig1_comparison(
        cached_network("random", n, seed=0), seed=seed, sample_pairs=250, k=2
    )


def test_fig1_table(benchmark):
    rows = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    banner("E1 / Fig. 1 - claimed vs measured (random digraph, n=48)")
    print(format_rows(rows))
    assert_rows_sound(rows)
    by = {r.scheme: r for r in rows}
    # Fig. 1 ordering claims: TINN stretch-6 sits between the
    # name-dependent stretch-3 scheme and the generalized schemes.
    assert by["rtz-3 (name-dep)"].paper_stretch <= by[
        "stretch-6 (TINN)"
    ].paper_stretch
    # compact rows hold far smaller tables than the linear baseline
    assert (
        by["stretch-6 (TINN)"].max_table_entries
        < 40 * by["shortest-path"].max_table_entries
    )


def test_fig1_on_all_families(benchmark):
    """The same table on every workload family (smaller, sampled)."""
    results = {}

    def run():
        for fam in ("cycle", "torus", "dht"):
            results[fam] = fig1_comparison(
                cached_network(fam, 36, seed=0), seed=5, sample_pairs=120, k=2
            )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E1b / Fig. 1 across workload families (n~36)")
    for fam, rows in results.items():
        print(f"\n--- family: {fam} ---")
        print(format_rows(rows))
        assert_rows_sound(rows)
