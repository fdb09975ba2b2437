"""The benchmark suite's local helpers (``benchmarks/conftest.py``).

``REPRO_BENCH_SMOKE`` turns smoke mode on for any value but an empty
one, ``0``, ``false``, ``no`` or ``off`` (any case, surrounding blanks
ignored); smoke mode clamps every instance to n = 16.  The session
network cache builds each family graph from ``Random(seed + n)`` with
network seed ``seed + n + 1``, once per key.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from repro.graph.generators import random_strongly_connected

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"


def load_conftest(monkeypatch, value):
    """A fresh copy of the benchmark conftest, read under ``value``."""
    if value is None:
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    else:
        monkeypatch.setenv("REPRO_BENCH_SMOKE", value)
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "value, smoke",
    [(None, False), ("", False), ("0", False), ("false", False),
     ("NO", False), (" Off ", False), ("1", True), ("true", True),
     ("yes", True), ("anything", True)],
)
def test_smoke_flag_spellings_and_clamp(monkeypatch, value, smoke):
    conftest = load_conftest(monkeypatch, value)
    assert conftest.SMOKE is smoke
    assert conftest.bench_n(1024) == (16 if smoke else 1024)
    assert conftest.bench_n(12) == 12


def test_network_cache_keys_clamped_instances(monkeypatch):
    conftest = load_conftest(monkeypatch, "1")
    net = conftest.cached_network("random", 64, seed=3)
    assert conftest.cached_network("random", 16, seed=3) is net
    assert (net.n, net.seed) == (16, 20)
    expected = random_strongly_connected(16, rng=random.Random(19))
    assert list(net.graph.edges()) == list(expected.edges())
