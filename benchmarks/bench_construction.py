"""E11 — Section 6: centralized preprocessing cost.

The paper notes tables can be computed centrally in time proportional
to all-pairs shortest paths.  This experiment times each stage of the
pipeline (APSP oracle, metric, substrate, stretch-6 tables, cover
hierarchy, ExStretch tables) so the dominant term is visible,
benchmarks the full stretch-6 build, and pits the vectorized CSR engine
against the legacy per-source Dijkstra loop head-to-head (E11c).

Every stage after the APSP is array operations over the oracle's
``(n, n)`` matrices: all ``Init_v`` orders come from one
:meth:`~repro.graph.roundtrip.RoundtripMetric.neighborhoods` call, the
Lemma 4 coverage from one first-holder matrix per level, and the
stretch-6 tables from those arrays.  Every in-tree (the substrate's
landmarks, the cover hierarchy's roots) comes from one
:meth:`~repro.graph.shortest_paths.DistanceOracle.in_tree_rows` call,
the substrate's landmark out-trees from one
:func:`~repro.tree_routing.fixed_port.tree_intervals` call, and its
direct entries from one cluster scan and one parent-row walk.  The
ExStretch tables are two sorted-key tables of vertices; their
handshake labels are derived when a packet reads a row, and the
compile reads each hop's tree from the hierarchy's best-tree matrix,
which it builds.  The substrate line breaks down into those out-tree
intervals and direct entries; each compile into step tables is a stage
of its own.  The cover hierarchy builds every double tree's routing
state at once, with the same interval kernel
(:func:`~repro.tree_routing.fixed_port.pruned_tree_intervals`), and
its covers with PartialCover on packed bitsets.  At n = 1024 the APSP
dominates the stretch-6 pipeline.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from conftest import SMOKE, banner, bench_n

from repro.api import Network
from repro.covers.hierarchy import TreeHierarchy
from repro.graph.apsp import apsp_matrices
from repro.graph.csr import CSRGraph, edge_ports
from repro.graph.generators import random_strongly_connected
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle, dijkstra
from repro.naming.permutation import random_naming
from repro.rtz.routing import RTZStretch3
from repro.rtz.spanner import HandshakeSpanner
from repro.runtime.engine import compile_substrate_tables
from repro.schemes.exstretch import ExStretchScheme
from repro.schemes.stretch6 import StretchSixScheme
from repro.tree_routing.fixed_port import tree_intervals


def test_pipeline_stage_times(benchmark):
    n = bench_n(64)
    g = random_strongly_connected(n, rng=random.Random(1))
    stages = {}
    substrate = {}

    def run():
        t0 = time.perf_counter()
        oracle = DistanceOracle(g)
        t1 = time.perf_counter()
        naming = random_naming(n, random.Random(2))
        metric = RoundtripMetric(oracle, ids=naming.all_names())
        metric.neighborhoods(n)
        t2 = time.perf_counter()
        rtz = RTZStretch3(metric, random.Random(3))
        t3 = time.perf_counter()
        compile_substrate_tables(rtz)
        t4 = time.perf_counter()
        StretchSixScheme(metric, naming, substrate=rtz)
        t5 = time.perf_counter()
        hierarchy = TreeHierarchy(metric, 2)
        t6 = time.perf_counter()
        exstretch = ExStretchScheme(
            metric, naming, k=2, rng=random.Random(4),
            spanner=HandshakeSpanner(metric, 2, hierarchy=hierarchy),
        )
        t7 = time.perf_counter()
        exstretch.compile_tables()
        t8 = time.perf_counter()
        stages["apsp oracle"] = t1 - t0
        stages["metric + orders"] = t2 - t1
        stages["rtz substrate"] = t3 - t2
        stages["rtz compile"] = t4 - t3
        stages["stretch6 tables"] = t5 - t4
        stages["cover hierarchy"] = t6 - t5
        stages["exstretch tables"] = t7 - t6
        stages["exstretch compile"] = t8 - t7
        # two of the substrate's passes, re-run on its own landmarks
        centers = rtz.centers
        s0 = time.perf_counter()
        tree_intervals(g, oracle.parent_rows(centers), centers)
        s1 = time.perf_counter()
        u, v = rtz.assignment.cluster_pairs()
        edge_ports(g, u, oracle.next_hops(u, v))
        s2 = time.perf_counter()
        substrate["intervals"] = s1 - s0
        substrate["direct entries"] = s2 - s1
        return stages

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E11 / Section 6 - preprocessing stage times (n={n})")
    total = sum(stages.values())
    for label, secs in stages.items():
        print(f"  {label:<18}: {secs * 1000:8.1f} ms "
              f"({100 * secs / total:4.1f}%)")
        if label == "rtz substrate":
            for part, part_secs in substrate.items():
                print(f"  {'- ' + part:<18}: {part_secs * 1000:8.1f} ms")
    print(f"  {'total':<18}: {total * 1000:8.1f} ms")


def test_stretch6_build_benchmark(benchmark):
    """pytest-benchmark statistics for the full scheme build."""
    g = random_strongly_connected(bench_n(36), rng=random.Random(4))
    net = Network(g, seed=5, store=None)

    def build():
        return StretchSixScheme(
            net.metric(), net.naming(), rng=random.Random(6)
        )

    scheme = benchmark(build)
    assert scheme.max_table_entries() > 0


def test_apsp_scaling(benchmark):
    """Construction is APSP-dominated: time the oracle across n."""
    rows = []
    sizes = tuple(bench_n(n) for n in (32, 64, 128))

    def run():
        for n in sizes:
            g = random_strongly_connected(n, rng=random.Random(n))
            t0 = time.perf_counter()
            DistanceOracle(g)
            rows.append((n, time.perf_counter() - t0))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E11b - APSP oracle scaling")
    for (n, secs) in rows:
        print(f"  n={n:>4}: {secs * 1000:7.1f} ms")


def _timed_pair(fn_a, fn_b, reps: int) -> tuple:
    """Median wall times of two competitors measured in interleaved
    rounds (a, b, a, b, ...), so ambient machine-load drift hits both
    sides equally instead of biasing whichever ran last.  Each timed
    call is preceded by an untimed warm-up call (the other side's run
    evicts caches; warm-up refills them for both sides alike), and
    the collector is drained between reps so neither side inherits
    the other's garbage."""
    times_a, times_b = [], []
    for _ in range(reps):
        for fn, times in ((fn_a, times_a), (fn_b, times_b)):
            gc.collect()
            fn()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times_a), statistics.median(times_b)


def test_vectorized_engine_speedup(benchmark):
    """E11c — the vectorized CSR engine vs the per-source Dijkstra
    loop on the random family at n=256 (the repo's headline perf
    claim: >= 5x on the APSP kernel, with bit-identical output)."""
    n = bench_n(256)
    g = random_strongly_connected(n, rng=random.Random(7))
    reps = 1 if SMOKE else 7

    def python_kernel():
        out = []
        for s in range(n):
            out.append(dijkstra(g, s))
        return out

    def vectorized_kernel():
        return apsp_matrices(CSRGraph.from_digraph(g))

    # same floats, same trees — the speedup is not buying approximation
    sample = range(0, n, max(1, n // 8))
    trees = python_kernel()
    d, parent = vectorized_kernel()
    for s in sample:
        dist, par = trees[s]
        assert d[s].tolist() == dist
        assert parent[s].tolist() == par
    del trees, d, parent

    t_python, t_vector = _timed_pair(python_kernel, vectorized_kernel, reps)
    benchmark(vectorized_kernel)

    speedup = t_python / t_vector
    banner(f"E11c - vectorized CSR APSP engine vs python loop (n={n})")
    print(f"  python loop  : {t_python * 1000:8.1f} ms")
    print(f"  vectorized   : {t_vector * 1000:8.1f} ms")
    print(f"  speedup      : {speedup:8.1f} x   (bit-identical output)")
    if not SMOKE:
        assert speedup >= 5.0, (
            f"vectorized APSP engine regressed: only {speedup:.1f}x over "
            "the python loop (>= 5x required on random @ n=256)"
        )


def test_oracle_engine_construction(benchmark):
    """E11d — end-to-end DistanceOracle construction per engine (adds
    the r matrix, parent storage, and bookkeeping both engines share)."""
    n = bench_n(256)
    g = random_strongly_connected(n, rng=random.Random(8))
    reps = 1 if SMOKE else 3

    t_python, t_vector = _timed_pair(
        lambda: DistanceOracle(g, engine="python"),
        lambda: DistanceOracle(g, engine="vectorized"),
        reps,
    )
    oracle = benchmark(lambda: DistanceOracle(g, engine="vectorized"))

    assert oracle.engine == "vectorized"
    banner(f"E11d - DistanceOracle construction by engine (n={n})")
    print(f"  engine=python     : {t_python * 1000:8.1f} ms")
    print(f"  engine=vectorized : {t_vector * 1000:8.1f} ms")
    print(f"  speedup           : {t_python / t_vector:8.1f} x")
