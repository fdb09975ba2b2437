"""Chunked workload execution: ``run_workload`` routes a workload in
chunks of ``CHUNK_PAIRS`` pairs (``shard_size=`` sets another size) and
computes the summary once, over the whole workload's columns.

The contract under test: the summary is a function of the pairs alone.
Every chunk size, on both engines, gives the summary of one engine call
over every pair, bit for bit; only ``elapsed_s`` (physical time)
differs.  ``jobs=`` is accepted and ignored.

Also covered: merging summaries of parts (what a scenario does across
its phases) against the whole run (hypothesis), ``HopLimitExceeded``
first-failure ordering across chunk boundaries, compile-time exclusion
from ``elapsed_s``, and the ``shards`` count of ``Router.stats()``.

Classes and tests written for the sharded executor this replaced keep
their names where the behaviour they check still exists, so their test
ids stay stable.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace

import pytest

from repro.api import Network, scheme_names
from repro.exceptions import GraphError, HopLimitExceeded
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import random_naming
from repro.runtime import traffic
from repro.runtime.simulator import Simulator
from repro.runtime.traffic import (
    TrafficSummary,
    Workload,
    chunk_starts,
    generate_workload,
    run_workload,
    uniform_pairs,
)
from repro.schemes.shortest_path import ShortestPathScheme

N = 24

#: every TrafficSummary field that must be bit-identical across chunk
#: sizes (elapsed_s is physical time and excluded)
DETERMINISTIC_FIELDS = (
    "kind", "pairs", "total_cost", "total_hops", "mean_cost", "mean_hops",
    "max_hops", "max_header_bits", "mean_stretch", "max_stretch",
    "worst_pair",
)


def summary_key(s: TrafficSummary) -> tuple:
    return tuple(getattr(s, f) for f in DETERMINISTIC_FIELDS)


def assert_bit_identical(a: TrafficSummary, b: TrafficSummary) -> None:
    for f in DETERMINISTIC_FIELDS:
        va, vb = getattr(a, f), getattr(b, f)
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), f
        else:
            assert va == vb, f"{f}: {va!r} != {vb!r}"


@pytest.fixture(scope="module")
def net() -> Network:
    return Network.from_family("random", N, seed=5)


@pytest.fixture(scope="module")
def workload(net):
    return generate_workload(
        "mixed", net.n, 48, rng=random.Random(7), oracle=net.oracle()
    )


class TestChunks:
    def test_chunk_starts(self):
        assert chunk_starts(10, 4) == range(0, 10, 4)
        assert list(chunk_starts(10, 4)) == [0, 4, 8]
        assert len(chunk_starts(0)) == 0
        assert chunk_starts(7) == range(0, 7, traffic.CHUNK_PAIRS)

    def test_rejects_bad_shard_size(self, net, workload):
        for size in (0, -3):
            with pytest.raises(GraphError):
                run_workload(net.build_scheme("rtz"), workload, shard_size=size)

    def test_one_engine_call_per_chunk(self, net, workload, monkeypatch):
        """The default chunk size comes from ``CHUNK_PAIRS``: 48 pairs
        in chunks of 20 are three engine calls, of 20, 20 and 8 pairs."""
        calls = []
        roundtrip_many = Simulator.roundtrip_many

        def counting(self, pairs, **kwargs):
            calls.append(len(pairs))
            return roundtrip_many(self, pairs, **kwargs)

        monkeypatch.setattr(traffic, "CHUNK_PAIRS", 20)
        monkeypatch.setattr(Simulator, "roundtrip_many", counting)
        run_workload(net.build_scheme("stretch6"), workload)
        assert calls == [20, 20, 8]
        calls.clear()
        run_workload(net.build_scheme("stretch6"), [])
        assert calls == []


class TestShardedEqualsSerial:
    """run_workload(shard_size=m) == the one-call run, field for field,
    for every registered scheme on both engines."""

    @pytest.mark.parametrize("engine", ["auto", "python"])
    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_threads_match_serial(self, net, workload, scheme_name, engine):
        """Chunks of 10 pairs against one call of all 48.  The name
        dates from the removed thread executor."""
        scheme = net.build_scheme(scheme_name)
        whole = run_workload(
            scheme, workload, oracle=net.oracle(), engine=engine,
        )
        chunked = run_workload(
            scheme, workload, oracle=net.oracle(), engine=engine,
            shard_size=10,
        )
        assert_bit_identical(whole, chunked)

    def test_jobs_values_agree_on_default_partition(self, net):
        """``jobs`` is accepted and ignored: every value gives the
        default run's summary."""
        scheme = net.build_scheme("rtz")
        pairs = uniform_pairs(net.n, 552, random.Random(3))
        wl = Workload("uniform", pairs)
        runs = [
            run_workload(
                scheme, wl, oracle=net.oracle(), engine="python", jobs=j
            )
            for j in (None, 1, 2, 4)
        ]
        for run in runs[1:]:
            assert_bit_identical(runs[0], run)

    def test_sharded_matches_monolithic_up_to_summation_order(
        self, net, workload
    ):
        """Chunks of 8 reproduce the one-call run on every field; the
        float totals and means do not even differ in summation order,
        since the summary is computed once over every pair."""
        scheme = net.build_scheme("stretch6")
        mono = run_workload(scheme, workload, oracle=net.oracle())
        sharded = run_workload(
            scheme, workload, oracle=net.oracle(), shard_size=8,
        )
        assert_bit_identical(mono, sharded)
        assert repr(sharded.mean_stretch) == repr(mono.mean_stretch)


class TestAnyChunkSize:
    """Hypothesis: every chunk size from 1 past the workload length, on
    both engines, gives the default run's summary bit for bit."""

    def test_property_chunk_size_never_moves_the_summary(self):
        hypothesis = pytest.importorskip("hypothesis")
        given = hypothesis.given
        settings = hypothesis.settings
        st = hypothesis.strategies

        ctx = TestMergeAnyChunking.context()
        pairs = ctx["pairs"]

        @settings(max_examples=40, deadline=None)
        @given(
            size=st.integers(1, len(pairs) + 5),
            engine=st.sampled_from(["python", "vectorized"]),
        )
        def check(size, engine):
            got = run_workload(
                ctx["scheme"], Workload("mixed", pairs),
                oracle=ctx["oracle"], engine=engine, shard_size=size,
            )
            mono = ctx["mono"][engine]
            assert replace(got, elapsed_s=0.0) == replace(mono, elapsed_s=0.0)

        check()


class TestMergeAnyChunking:
    """Hypothesis: merge over *any* split of a workload equals the
    monolithic TrafficSummary field-by-field (floats up to summation
    order), on both engines."""

    _ctx: dict = {}

    @classmethod
    def context(cls):
        if not cls._ctx:
            net = Network.from_family("random", 20, seed=11)
            scheme = net.build_scheme("stretch6")
            oracle = net.oracle()
            pairs = generate_workload(
                "mixed", net.n, 60, rng=random.Random(2), oracle=oracle
            ).pairs
            mono = {
                eng: run_workload(
                    scheme, Workload("mixed", pairs), oracle=oracle,
                    engine=eng,
                )
                for eng in ("python", "vectorized")
            }
            cls._ctx = {
                "scheme": scheme, "oracle": oracle, "pairs": pairs,
                "mono": mono,
            }
        return cls._ctx

    def test_property_merge_equals_monolithic(self):
        hypothesis = pytest.importorskip("hypothesis")
        given = hypothesis.given
        settings = hypothesis.settings
        st = hypothesis.strategies

        ctx = self.context()
        pairs = ctx["pairs"]

        @settings(max_examples=25, deadline=None)
        @given(
            cuts=st.sets(st.integers(0, len(pairs)), max_size=6),
            engine=st.sampled_from(["python", "vectorized"]),
        )
        def check(cuts, engine):
            bounds = sorted({0, len(pairs), *cuts})
            chunks = [
                pairs[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            if not chunks:  # cuts == {0} on an already-covered range
                chunks = [pairs]
            summaries = [
                run_workload(
                    ctx["scheme"], Workload("mixed", c),
                    oracle=ctx["oracle"], engine=engine,
                )
                for c in chunks
            ]
            merged = TrafficSummary.merge(summaries)
            mono = ctx["mono"][engine]
            assert merged.kind == mono.kind
            assert merged.pairs == mono.pairs
            assert merged.total_hops == mono.total_hops
            assert merged.max_hops == mono.max_hops
            assert merged.max_header_bits == mono.max_header_bits
            assert merged.total_cost == pytest.approx(mono.total_cost)
            assert merged.mean_cost == pytest.approx(mono.mean_cost)
            assert merged.mean_hops == pytest.approx(mono.mean_hops)
            assert merged.mean_stretch == pytest.approx(mono.mean_stretch)
            assert merged.max_stretch == mono.max_stretch
            assert merged.worst_pair == mono.worst_pair

        check()


class TestHopLimitAcrossShards:
    """A failing journey must surface the *first-failure* error of one
    batch of every pair, whichever chunk it falls in."""

    def _looping_scheme(self):
        from test_engine_differential import LoopingScheme

        return LoopingScheme()

    @pytest.mark.parametrize("shard_size,engine", [
        pytest.param(None, "python", id="serial-None-python"),
        pytest.param(None, "vectorized", id="serial-None-vectorized"),
        pytest.param(2, "python", id="serial-2-python"),
        pytest.param(2, "vectorized", id="serial-2-vectorized"),
    ])
    def test_first_failure_is_input_order(self, shard_size, engine):
        """One chunk (``None``) or chunks of two pairs (``2``)."""
        scheme = self._looping_scheme()
        pairs = [(1, 3), (0, 3), (0, 3), (0, 3)]
        sim = Simulator(scheme, hop_limit=12)
        with pytest.raises(HopLimitExceeded) as ref:
            sim.roundtrip_many(pairs, engine=engine)
        with pytest.raises(HopLimitExceeded) as exc:
            run_workload(
                scheme, pairs, hop_limit=12, engine=engine,
                shard_size=shard_size,
            )
        assert str(exc.value) == str(ref.value)
        assert "from 1 to 3" in str(exc.value)


class _SlowCompileScheme(ShortestPathScheme):
    """Test double: a scheme whose table compilation is visibly slow."""

    COMPILE_SLEEP_S = 0.25

    def compile_tables(self):
        time.sleep(self.COMPILE_SLEEP_S)
        return super().compile_tables()


class TestElapsedExcludesCompile:
    def test_compile_time_not_billed_to_routing(self, small_random):
        oracle = DistanceOracle(small_random)
        naming = random_naming(small_random.n, random.Random(4))
        scheme = _SlowCompileScheme(oracle, naming)
        pairs = uniform_pairs(small_random.n, 6, random.Random(5))
        summary = run_workload(scheme, pairs, oracle=oracle, engine="auto")
        assert summary.pairs == 6
        assert summary.elapsed_s < _SlowCompileScheme.COMPILE_SLEEP_S


class TestRouterShardAccounting:
    def test_engine_stats_count_shards(self, net, workload, monkeypatch):
        """A served workload is one batch, and ``shards`` counts its
        engine calls: 48 pairs in chunks of 12 are four."""
        monkeypatch.setattr(traffic, "CHUNK_PAIRS", 12)
        router = net.router("stretch6")
        router.serve_workload(workload)
        info = router.stats().as_dict()
        assert info["vectorized"]["batches"] == 1
        assert info["vectorized"]["pairs"] == len(workload)
        assert info["vectorized"]["shards"] == 4
        assert info["python"]["shards"] == 0
        assert "pairs=48 shards=4" in router.stats().format()

    def test_single_queries_count_one_shard(self, net):
        router = net.router("stretch6")
        router.route(0, 9)
        assert router.stats().as_dict()["python"]["shards"] == 1
