"""Shared fixtures and reporting helpers for the benchmark suite.

Each benchmark module regenerates one experiment from DESIGN.md's
index (E1-E13): it prints the paper-style rows, asserts the paper's
inequalities, and times the dominant kernel with pytest-benchmark.

Every experiment builds through a :class:`repro.api.Network`: the
session-cached :func:`cached_network` for the shared family instances,
or ``Network(g, seed=..., store=None)`` for a graph it sweeps or
builds itself.  Registered schemes come from the network
(``net.build_scheme`` / ``net.router``) and stretch is measured
through a router (:func:`repro.runtime.stats.measure_stretch`,
:func:`repro.analysis.stretch.stretch_distribution`).  Ablations that
build a variant on purpose call its constructor with the network's
artifacts (``net.metric()``, ``net.naming()``, ``net.oracle()``).

The smoke-mode flag parsing and size clamp
(:func:`repro.bench.smoke_n`) and the network cache
(:func:`repro.bench.cached_network`) are shared with the ``repro
bench`` trajectory runner, so both paths measure the same instances
and the suite never recomputes a substrate two benchmarks both need.
The dominant kernels of the engine/shard/stretch6 modules are the
*registered cases* of :mod:`repro.bench.cases` — pytest-benchmark
times the exact thunk ``repro bench`` records into ``BENCH_*.json``.

Smoke mode: setting ``REPRO_BENCH_SMOKE=1`` (the CI bench jobs do)
clamps instance sizes via :func:`bench_n` so every benchmark module
executes end-to-end in seconds (``false`` / ``no`` / ``off`` / ``0``
all mean *off*).  Size-calibrated performance assertions are skipped
in smoke mode; correctness assertions still run.
"""

from __future__ import annotations

import os

import pytest

# Benchmarks measure true build costs: a warm on-disk store would turn
# every "construction" timing into an mmap load.  Keep the suite
# hermetic (store-axis cases use explicit temporary stores instead).
os.environ.setdefault("REPRO_STORE", "off")

from repro.api import Network  # noqa: E402
from repro import bench  # noqa: E402

#: True when the CI smoke job runs the suite with tiny instances.
SMOKE = bench.smoke_enabled()

#: The context handed to registered bench cases timed by these modules
#: (shares the process-wide network cache with :func:`cached_network`).
BENCH_CONTEXT = bench.BenchContext(smoke=SMOKE)


def bench_n(n: int) -> int:
    """The benchmark size to actually use: ``n`` normally, clamped in
    smoke mode (one shared helper with the ``repro bench`` runner)."""
    return bench.smoke_n(n, SMOKE)


def cached_network(kind: str, n: int, seed: int = 0) -> Network:
    """Session-cached :class:`Network` of one family/size/seed (the
    process-wide cache the ``repro bench`` runner also draws from)."""
    return bench.cached_network(kind, n, seed, smoke=SMOKE)


@pytest.fixture(scope="session")
def bench_network() -> Network:
    """The default medium network shared by most benchmarks."""
    return cached_network("random", 64, seed=0)


def banner(title: str) -> None:
    """Print an experiment banner that survives pytest -s capture."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
