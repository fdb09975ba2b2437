"""Sharded workload execution: multi-core scaling benchmark.

The serving story ("millions of users, as fast as the hardware
allows") needs more than a fast single-threaded engine: it needs the
workload to *scale out*.  ``run_workload(shard_size=, jobs=)`` splits a
workload into fixed-boundary shards, runs the GIL-bound python
engine's shards on a process pool when ``jobs > 1`` (the vectorized
engine's shards run serially), and merges the per-shard summaries
deterministically.

This benchmark sweeps the jobs axis on the python engine, re-checks
the determinism contract (every jobs value yields the bit-identical
summary), and asserts the headline target: **>= 2.5x throughput at
jobs=4 on the python engine at n >= 256** — gated on the host actually
having >= 4 cores (and skipped in smoke mode, like every other
size-calibrated claim).

The pedantic-timed kernels are the registered ``shard/...`` cases of
:mod:`repro.bench.cases` — the same thunks ``repro bench`` records
into the ``BENCH_*.json`` trajectory.
"""

from __future__ import annotations

import math
import random
import time

from conftest import BENCH_CONTEXT, SMOKE, banner, cached_network

from repro.bench import available_cores, get_case
from repro.runtime.traffic import generate_workload, run_workload

#: the ISSUE's parallel-scaling target for the python engine
TARGET_PARALLEL_SPEEDUP = 2.5

#: cores this host can actually schedule on (the speedup gate is
#: meaningless on fewer than 4)
CORES = available_cores()

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
    print(f"{'jobs':>6} {'wall':>10} {'speedup':>8} {'pairs/s':>12}")
    base = rows[0][1]
    for jobs, secs, summary in rows:
        rate = summary.pairs / secs if secs > 0 else float("inf")
        print(f"{jobs:>6} {secs * 1000:>8.1f}ms {base / secs:>7.2f}x "
              f"{rate:>12,.0f}")


def test_python_engine_process_scaling(benchmark):
    """The headline claim: process-pool sharding >= 2.5x at jobs=4 on
    the python engine at n >= 256 (on hosts with >= 4 cores)."""
    net = cached_network("random", 256, seed=0)
    # Big enough that per-shard routing work dominates the one-time
    # pool spin-up (~tens of ms), so 4 workers can clear 2.5x.
    pairs = 120 if SMOKE else 8000
    shards = 4 if SMOKE else 16
    scheme = net.build_scheme("stretch6")
    wl = generate_workload("uniform", net.n, pairs, rng=random.Random(23))
    banner(f"sharded python-engine scaling via process pool "
           f"(n={net.n}, {pairs} pairs, {shards} shards, {CORES} cores)")
    rows = _sweep(scheme, wl, "python", pairs // shards)
    _report("python engine, process pool", rows)

    # Determinism: every jobs value produced the bit-identical summary.
    keys = {_key(s) for (_j, _t, s) in rows}
    assert len(keys) == 1

    speedup = rows[0][1] / rows[-1][1]
    if not SMOKE and CORES >= 4:
        assert net.n >= 256
        assert speedup >= TARGET_PARALLEL_SPEEDUP, (
            f"process-pool sharding only {speedup:.2f}x at jobs=4 "
            f"(n={net.n}, {CORES} cores); target {TARGET_PARALLEL_SPEEDUP}x"
        )
    elif CORES < 4:
        print(f"\n(speedup gate skipped: only {CORES} cores available)")

    benchmark.pedantic(
        get_case("shard/stretch6/python/processes").setup(BENCH_CONTEXT),
        rounds=1,
        iterations=1,
    )

