"""Sharded parallel workload execution (``run_workload`` with
``shards=``/``jobs=``/``executor=``).

The determinism contract under test: the shard partition is a pure
function of the workload length and the shard parameters — never of
the worker count — and per-shard summaries merge in shard order, so
``run_workload(shards=k, jobs=j)`` is bit-identical to the serial
sharded run for every ``j`` and every executor, on both engines.  Only
``elapsed_s`` (physical time) may differ.

Also covered: merge-over-any-chunking equals the monolithic summary
(hypothesis), ``HopLimitExceeded`` first-failure ordering across shard
boundaries, pickle-cheapness of compiled schemes for the process
executor, and compile-time exclusion from ``elapsed_s``.
"""

from __future__ import annotations

import math
import pickle
import random
import time

import pytest

from repro.api import Network, scheme_names
from repro.exceptions import GraphError, HopLimitExceeded
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import random_naming
from repro.runtime.simulator import Simulator
from repro.runtime.traffic import (
    DEFAULT_SHARD_SIZE,
    TrafficSummary,
    Workload,
    generate_workload,
    plan_shards,
    resolve_executor,
    run_workload,
    uniform_pairs,
)
from repro.schemes.shortest_path import ShortestPathScheme

N = 24

#: every TrafficSummary field that must be bit-identical across
#: executors/jobs (elapsed_s is physical time and excluded)
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


class TestPlanShards:
    def test_balanced_contiguous(self):
        assert plan_shards(10, shards=3) == [(0, 4), (4, 7), (7, 10)]
        assert plan_shards(9, shards=3) == [(0, 3), (3, 6), (6, 9)]

    def test_shard_size(self):
        assert plan_shards(10, shard_size=4) == [(0, 4), (4, 8), (8, 10)]

    def test_more_shards_than_pairs(self):
        assert plan_shards(2, shards=5) == [(0, 1), (1, 2)]

    def test_empty_and_serial_defaults(self):
        assert plan_shards(0) == [(0, 0)]
        assert plan_shards(7) == [(0, 7)]

    def test_parallel_default_partition_ignores_jobs(self):
        total = DEFAULT_SHARD_SIZE + 10
        bounds = plan_shards(total, parallel=True)
        assert bounds == [
            (0, DEFAULT_SHARD_SIZE), (DEFAULT_SHARD_SIZE, total),
        ]

    def test_rejects_invalid(self):
        with pytest.raises(GraphError):
            plan_shards(10, shards=2, shard_size=3)
        with pytest.raises(GraphError):
            plan_shards(10, shards=0)
        with pytest.raises(GraphError):
            plan_shards(10, shard_size=0)

    def test_resolve_executor(self):
        assert resolve_executor("python", None) == "serial"
        assert resolve_executor("vectorized", 1) == "serial"
        assert resolve_executor("python", 4) == "processes"
        assert resolve_executor("vectorized", 4) == "threads"
        assert resolve_executor("python", 4, "threads") == "threads"
        with pytest.raises(GraphError):
            resolve_executor("python", 4, "fibers")


class TestShardedEqualsSerial:
    """run_workload(shards=k, jobs=j) == the serial sharded run,
    field-for-field, for every registered scheme on both engines."""

    @pytest.mark.parametrize("engine", ["auto", "python"])
    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_threads_match_serial(self, net, workload, scheme_name, engine):
        scheme = net.build_scheme(scheme_name)
        serial = run_workload(
            scheme, workload, oracle=net.oracle(), engine=engine, shards=5,
        )
        threaded = run_workload(
            scheme, workload, oracle=net.oracle(), engine=engine, shards=5,
            jobs=3, executor="threads",
        )
        assert_bit_identical(serial, threaded)

    @pytest.mark.parametrize("engine", ["vectorized", "python"])
    def test_processes_match_serial(self, net, workload, engine):
        scheme = net.build_scheme("stretch6")
        serial = run_workload(
            scheme, workload, oracle=net.oracle(), engine=engine, shards=4,
        )
        forked = run_workload(
            scheme, workload, oracle=net.oracle(), engine=engine, shards=4,
            jobs=2, executor="processes",
        )
        assert_bit_identical(serial, forked)

    def test_auto_engine_uncompilable_scheme_uses_process_pool(
        self, net, workload, monkeypatch
    ):
        """engine='auto' on a scheme that cannot compile resolves to
        the python engine, so the auto-selected executor must be the
        process pool (not GIL-bound threads) — and the scheme must
        survive the pickle trip."""
        import repro.runtime.traffic as traffic_mod

        used = []

        class RecordingPool(traffic_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                used.append("processes")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            traffic_mod, "ProcessPoolExecutor", RecordingPool
        )
        scheme = net.build_scheme("exstretch")
        assert Simulator(scheme).resolve_engine("auto") == "python"
        serial = run_workload(
            scheme, workload, oracle=net.oracle(), shards=3,
        )
        parallel = run_workload(
            scheme, workload, oracle=net.oracle(), shards=3, jobs=2,
        )
        assert used == ["processes"]
        assert_bit_identical(serial, parallel)

    def test_jobs_values_agree_on_default_partition(self, net):
        """The default parallel partition depends on the workload only,
        so any jobs value yields the bit-identical summary."""
        scheme = net.build_scheme("rtz")
        pairs = uniform_pairs(net.n, DEFAULT_SHARD_SIZE + 40, random.Random(3))
        wl = Workload("uniform", pairs)
        runs = [
            run_workload(
                scheme, wl, oracle=net.oracle(), jobs=j, executor="threads"
            )
            for j in (1, 2, 4)
        ]
        assert_bit_identical(runs[0], runs[1])
        assert_bit_identical(runs[0], runs[2])

    def test_sharded_matches_monolithic_up_to_summation_order(
        self, net, workload
    ):
        """Fixed-partition shards reproduce the monolithic run exactly
        on every structural field; float totals agree to summation
        order."""
        scheme = net.build_scheme("stretch6")
        mono = run_workload(scheme, workload, oracle=net.oracle())
        sharded = run_workload(
            scheme, workload, oracle=net.oracle(), shards=6, jobs=2,
        )
        assert sharded.kind == mono.kind
        assert sharded.pairs == mono.pairs
        assert sharded.total_hops == mono.total_hops
        assert sharded.max_hops == mono.max_hops
        assert sharded.max_header_bits == mono.max_header_bits
        assert sharded.total_cost == pytest.approx(mono.total_cost)
        assert sharded.mean_stretch == pytest.approx(mono.mean_stretch)
        # identical per-pair floats => identical first-wins argmax
        assert sharded.max_stretch == mono.max_stretch
        assert sharded.worst_pair == mono.worst_pair

    def test_rejects_bad_jobs(self, net, workload):
        with pytest.raises(GraphError):
            run_workload(net.build_scheme("rtz"), workload, jobs=0)


class TestMergeAnyChunking:
    """Hypothesis: merge over *any* chunking of a workload equals the
    monolithic TrafficSummary field-by-field, on both engines."""

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
    """A failing journey must surface the *serial first-failure* error
    even when a later shard fails faster in parallel."""

    def _looping_scheme(self):
        from test_engine_differential import LoopingScheme

        return LoopingScheme()

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    @pytest.mark.parametrize(
        "executor,jobs", [("serial", None), ("threads", 2), ("processes", 2)]
    )
    def test_first_failure_is_input_order(self, engine, executor, jobs):
        scheme = self._looping_scheme()
        if executor == "processes" and engine == "vectorized":
            pytest.skip("covered by threads; keep the fork matrix small")
        pairs = [(1, 3), (0, 3), (0, 3), (0, 3)]
        sim = Simulator(scheme, hop_limit=12)
        with pytest.raises(HopLimitExceeded) as ref:
            sim.roundtrip_many(pairs, engine=engine)
        with pytest.raises(HopLimitExceeded) as exc:
            run_workload(
                scheme, pairs, hop_limit=12, engine=engine, shards=2,
                jobs=jobs, executor=executor,
            )
        assert str(exc.value) == str(ref.value)
        assert "from 1 to 3" in str(exc.value)


class TestPickleCheapCompiledSchemes:
    """Process-pool shard execution ships schemes by pickle; compiled
    decision tables must stay out of the payload and rehydrate
    worker-side from the CSR snapshot."""

    def test_compiled_cache_dropped_and_rehydrated(self, net, workload):
        scheme = net.build_scheme("stretch6")
        before = pickle.dumps(scheme)
        assert scheme.compiled_routes() is not None
        assert "_compiled_step_tables" in scheme.rtz.__dict__
        after = pickle.dumps(scheme)
        # compiling must not grow the wire size at all
        assert after == before
        clone = pickle.loads(after)
        assert "_compiled_routes" not in clone.__dict__
        assert "_compiled_step_tables" not in clone.rtz.__dict__
        # the rehydrated clone routes bit-identically
        a = run_workload(scheme, workload, oracle=net.oracle())
        b = run_workload(clone, workload, oracle=net.oracle())
        assert_bit_identical(a, b)


class _SlowCompileScheme(ShortestPathScheme):
    """Test double: a scheme whose table compilation is visibly slow."""

    COMPILE_SLEEP_S = 0.25

    def compile_tables(self, tables="dense"):
        time.sleep(self.COMPILE_SLEEP_S)
        return super().compile_tables(tables)


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
    def test_engine_stats_count_shards(self, net, workload):
        router = net.router("stretch6", jobs=2)
        router.serve_workload(workload, shards=4)
        info = router.stats().as_dict()
        assert info["vectorized"]["batches"] == 1
        assert info["vectorized"]["pairs"] == len(workload)
        assert info["vectorized"]["shards"] == 4
        assert info["python"]["shards"] == 0
        assert "shards" in router.accounting().format()

    def test_session_default_jobs_and_override(self, net, workload):
        router = net.router("stretch6", jobs=2, executor="threads")
        a = router.serve_workload(workload, shards=3)
        b = router.serve_workload(workload, shards=3, jobs=1)
        assert_bit_identical(a, b)
        assert router.stats().as_dict()["vectorized"]["shards"] == 6

    def test_single_queries_count_one_shard(self, net):
        router = net.router("stretch6")
        router.route(0, 9)
        assert router.stats().as_dict()["python"]["shards"] == 1


class TestShardCLI:
    def test_jobs_flag_prints_sharding(self, capsys):
        from repro.cli import main

        rc = main([
            "traffic", "--n", "20", "--pairs", "60", "--scheme", "stretch6",
            "--jobs", "2", "--shard-size", "16",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sharding   : 4 shards, jobs=2 (threads)" in out

    def test_single_shard_plan_prints_serial(self, capsys):
        """200 pairs < the 512-pair default shard: the plan collapses
        to one shard and executes monolithically, whatever --jobs says."""
        from repro.cli import main

        rc = main([
            "traffic", "--n", "20", "--pairs", "200", "--scheme", "rtz",
            "--jobs", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sharding   : 1 shards, jobs=4 (serial)" in out

    @pytest.mark.parametrize("engine", ["vectorized", "python"])
    def test_parallel_summary_identical_to_serial(self, engine, capsys):
        """The CI shard-differential smoke check, as a test: --jobs 4
        and --jobs 1 print identical summaries (timing lines aside)."""
        from repro.cli import main

        outs = []
        for jobs in ("4", "1"):
            rc = main([
                "traffic", "--n", "20", "--pairs", "80",
                "--scheme", "stretch6", "--workload", "mixed",
                "--engine", engine, "--jobs", jobs, "--shard-size", "32",
            ])
            assert rc == 0
            out = capsys.readouterr().out
            outs.append([
                line for line in out.splitlines()
                if not line.startswith(
                    ("throughput", "build time", "sharding")
                )
            ])
        assert outs[0] == outs[1]
