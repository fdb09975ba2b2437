"""Sharded workload execution: the jobs axis is deterministic.

``run_workload(shard_size=, jobs=)`` splits a workload into
fixed-boundary shards, routes them one after another and merges the
per-shard summaries in shard order.  ``jobs`` only requests the
default partition; it starts no workers, since every registered
scheme compiles to the vectorized engine.

This benchmark sweeps the jobs axis on the python engine, prints the
wall time per value, and re-checks the determinism contract: every
jobs value yields the bit-identical summary.

The pedantic-timed kernel is the registered ``shard/...`` case of
:mod:`repro.bench.cases` — the same thunk ``repro bench`` records into
the ``BENCH_*.json`` trajectory.
"""

from __future__ import annotations

import math
import random
import time

from conftest import BENCH_CONTEXT, SMOKE, banner, cached_network

from repro.bench import get_case
from repro.runtime.traffic import generate_workload, run_workload

JOBS_SWEEP = (1, 2, 4)

_FIELDS = (
    "kind", "pairs", "total_cost", "total_hops", "mean_cost", "mean_hops",
    "max_hops", "max_header_bits", "mean_stretch", "max_stretch",
    "worst_pair",
)


def _key(summary):
    return tuple(
        None if isinstance(v, float) and math.isnan(v) else v
        for v in (getattr(summary, f) for f in _FIELDS)
    )


def _sweep(scheme, wl, engine, shard_size):
    """Wall-clock one run per jobs value; return [(jobs, seconds, summary)]."""
    rows = []
    for jobs in JOBS_SWEEP:
        t0 = time.perf_counter()
        summary = run_workload(
            scheme, wl, engine=engine, shard_size=shard_size, jobs=jobs,
        )
        rows.append((jobs, time.perf_counter() - t0, summary))
    return rows


def _report(title, rows):
    print(f"\n{title}")
    print(f"{'jobs':>6} {'wall':>10} {'pairs/s':>12}")
    for jobs, secs, summary in rows:
        rate = summary.pairs / secs if secs > 0 else float("inf")
        print(f"{jobs:>6} {secs * 1000:>8.1f}ms {rate:>12,.0f}")


def test_python_engine_jobs_sweep(benchmark):
    """Every jobs value routes the same shards to the bit-identical
    summary on the python engine."""
    net = cached_network("random", 256, seed=0)
    pairs = 120 if SMOKE else 8000
    shards = 4 if SMOKE else 16
    scheme = net.build_scheme("stretch6")
    wl = generate_workload("uniform", net.n, pairs, rng=random.Random(23))
    banner(f"sharded python-engine jobs sweep "
           f"(n={net.n}, {pairs} pairs, {shards} shards)")
    rows = _sweep(scheme, wl, "python", pairs // shards)
    _report("python engine, serial shards", rows)

    keys = {_key(s) for (_j, _t, s) in rows}
    assert len(keys) == 1

    benchmark.pedantic(
        get_case("shard/stretch6/python/serial").setup(BENCH_CONTEXT),
        rounds=1,
        iterations=1,
    )
