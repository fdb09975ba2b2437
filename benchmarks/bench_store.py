"""Artifact store: cold build-and-persist versus warm load.

A warm boot (``repro serve``, a second ``repro traffic``) reads the
oracle and the RTZ substrate from the on-disk store instead of building
them.  This benchmark builds each artifact cold into a temporary
:class:`~repro.store.ArtifactStore`, then loads it warm through fresh
:class:`~repro.api.Network` s on the cached random graph, and prints
the median of each.  Each lookup is timed alone: the rtz rows start
from a network whose metric (and oracle) is already in memory.  Every
warm load must be answered by the store, never by a build.

At full size (n = 1024) the oracle's warm load must be at least
:data:`ORACLE_MIN_RATIO` times faster than its cold build.  The rtz
substrate is printed but not gated: its load re-derives the out-tree
intervals and labels and re-runs the construction checks, so it is
only about 1.4x faster than a build.
"""

from __future__ import annotations

import statistics
import time

from conftest import SMOKE, banner, cached_network

from repro.api import Network
from repro.store import ArtifactStore

#: the oracle's warm load must beat its cold build by this factor
ORACLE_MIN_RATIO = 5.0

KINDS = ("oracle", "rtz")


def test_store_cold_build_vs_warm_load(benchmark, tmp_path):
    base = cached_network("random", 1024)
    graph, seed = base.graph, base.seed
    store = ArtifactStore(tmp_path / "store")
    reps = 3 if SMOKE else 5

    def lookup_s(kind):
        """Seconds a fresh network takes to serve ``kind`` through the
        store, with what ``kind`` is built from already in memory."""
        net = Network(graph, seed=seed, store=store)
        if kind == "rtz":
            net.metric()
        t0 = time.perf_counter()
        net.artifact(kind)
        elapsed = time.perf_counter() - t0
        return elapsed, net.stats().cache.as_dict()[kind]

    def cold_s(kind):
        store.clear()
        elapsed, counters = lookup_s(kind)
        assert counters["builds"] == 1
        return elapsed

    def warm_s(kind):
        elapsed, counters = lookup_s(kind)
        assert counters["store_hits"] == 1, f"{kind} rebuilt warm"
        return elapsed

    banner(f"store cold build-and-persist vs warm load (random, n={graph.n}, "
           f"median of {reps})")
    print(f"{'artifact':<10} {'cold':>10} {'warm':>10} {'ratio':>8}")
    ratios = {}
    for kind in KINDS:
        t_cold = statistics.median(cold_s(kind) for _ in range(reps))
        t_warm = statistics.median(warm_s(kind) for _ in range(reps))
        ratios[kind] = t_cold / t_warm
        print(f"{kind:<10} {t_cold * 1000:>8.1f}ms {t_warm * 1000:>8.1f}ms "
              f"{ratios[kind]:>7.1f}x")
    if not SMOKE:
        assert ratios["oracle"] >= ORACLE_MIN_RATIO, (
            f"warm oracle load only {ratios['oracle']:.1f}x faster than "
            f"its cold build; target {ORACLE_MIN_RATIO}x"
        )

    benchmark.pedantic(lambda: warm_s("oracle"), rounds=1, iterations=1)
