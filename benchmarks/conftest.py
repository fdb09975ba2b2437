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

:func:`cached_network` keys one network per family/size/seed for the
whole session, so the suite never recomputes a substrate two
benchmarks both need.  The repository's end-to-end benchmark, with its
per-layer metrics, is ``perfbench/``; these modules are the paper's
experiments.

Smoke mode: setting ``REPRO_BENCH_SMOKE=1`` (the CI bench job does)
clamps instance sizes to :data:`SMOKE_N` via :func:`bench_n`, so every
benchmark module executes end-to-end in seconds (empty, ``0``,
``false``, ``no`` and ``off``, in any case, all mean *off*).
Size-calibrated performance assertions are skipped in smoke mode;
correctness assertions still run.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Tuple

import pytest

# Benchmarks measure true build costs: a warm on-disk store would turn
# every "construction" timing into an mmap load.  Keep the suite
# hermetic (bench_store.py uses an explicit temporary store instead).
os.environ.setdefault("REPRO_STORE", "off")

from repro.api import Network  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    bidirected_torus,
    directed_cycle,
    random_dht_overlay,
    random_strongly_connected,
)

#: Instance-size ceiling applied by :func:`bench_n` in smoke mode.
SMOKE_N = 16

#: True when the CI smoke job runs the suite with tiny instances.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() not in (
    "", "0", "false", "no", "off",
)


def bench_n(n: int) -> int:
    """The benchmark size to actually use: ``n`` normally, clamped to
    :data:`SMOKE_N` in smoke mode."""
    return min(n, SMOKE_N) if SMOKE else n


def family_graph(kind: str, n: int, seed: int = 0):
    """One benchmark graph of a family/size/seed (deterministic)."""
    rng = random.Random(seed + n)
    if kind == "random":
        return random_strongly_connected(n, rng=rng)
    if kind == "cycle":
        return directed_cycle(n, rng=rng)
    if kind == "torus":
        side = max(2, int(round(n ** 0.5)))
        return bidirected_torus(side, side, rng=rng)
    if kind == "dht":
        return random_dht_overlay(n, rng=rng)
    raise ValueError(f"unknown benchmark graph family {kind!r}")


_NETWORKS: Dict[Tuple[str, int, int], Network] = {}


def cached_network(kind: str, n: int, seed: int = 0) -> Network:
    """Session-cached :class:`Network` of one family/size/seed: one
    oracle, naming, metric and substrate set per key.  ``n`` is clamped
    by :func:`bench_n` first, and the network seed is ``seed + n + 1``."""
    n = bench_n(n)
    key = (kind, n, seed)
    if key not in _NETWORKS:
        _NETWORKS[key] = Network(family_graph(kind, n, seed), seed=seed + n + 1)
    return _NETWORKS[key]


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
