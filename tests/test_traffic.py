"""Tests for the batched traffic harness: workload generators,
``Simulator.roundtrip_many``, ``run_workload``, and the ``traffic``
CLI subcommand."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.api import Router
from repro.cli import main
from repro.exceptions import GraphError
from repro.graph.digraph import Digraph
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import random_naming
from repro.runtime import traffic
from repro.runtime.simulator import Simulator
from repro.runtime.traffic import (
    WORKLOAD_KINDS,
    TrafficSummary,
    Workload,
    adversarial_pairs,
    check_pairs,
    generate_workload,
    hotspot_pairs,
    mixed_pairs,
    run_workload,
    sum_in_order,
    uniform_pairs,
)
from repro.schemes.shortest_path import ShortestPathScheme
from repro.schemes.stretch6 import StretchSixScheme
from python_engine import python_engine


@pytest.fixture
def sp_scheme(small_random: Digraph):
    oracle = DistanceOracle(small_random)
    naming = random_naming(small_random.n, random.Random(3))
    return ShortestPathScheme(oracle, naming), oracle


class TestGenerators:
    @pytest.mark.parametrize("gen", [uniform_pairs, hotspot_pairs])
    def test_pairs_valid(self, gen):
        pairs = gen(20, 500, random.Random(0))
        assert len(pairs) == 500
        for (s, t) in pairs:
            assert 0 <= s < 20 and 0 <= t < 20 and s != t

    def test_uniform_covers_sources(self):
        pairs = uniform_pairs(10, 1000, random.Random(1))
        assert {s for (s, _t) in pairs} == set(range(10))

    def test_hotspot_concentrates_destinations(self):
        n, count = 64, 2000
        pairs = hotspot_pairs(n, count, random.Random(2))
        freq: dict = {}
        for (_s, t) in pairs:
            freq[t] = freq.get(t, 0) + 1
        # with n // 16 = 4 hotspots at bias 0.8, the top destination
        # carries ~20% of traffic vs ~1.6% under uniform load
        assert max(freq.values()) > 5 * (count / n)

    def test_adversarial_starts_at_rt_diameter(self, small_oracle):
        pairs = adversarial_pairs(small_oracle, 10)
        s, t = pairs[0]
        assert small_oracle.r(s, t) == small_oracle.rt_diameter()
        # sorted by decreasing roundtrip distance
        rs = [small_oracle.r(s, t) for (s, t) in pairs]
        assert rs == sorted(rs, reverse=True)

    def test_adversarial_cycles_when_exhausted(self, small_oracle):
        n = small_oracle.n
        total = n * n - n
        pairs = adversarial_pairs(small_oracle, total + 5)
        assert len(pairs) == total + 5
        assert np.array_equal(pairs[:5], pairs[total:])

    def test_mixed_blends(self, small_oracle):
        pairs = mixed_pairs(
            small_oracle.n, 200, random.Random(3), oracle=small_oracle
        )
        assert len(pairs) == 200
        for (s, t) in pairs:
            assert s != t

    def test_mixed_seed_stable_across_counts(self, small_oracle):
        """Each 40/40/20 component draws from its own rng stream, so
        growing ``count`` extends the blend instead of reshuffling it:
        a smaller draw is a sub-multiset of a larger same-seed draw."""
        from collections import Counter

        small = Counter(map(tuple, mixed_pairs(
            small_oracle.n, 50, random.Random(9), oracle=small_oracle
        ).tolist()))
        big = Counter(map(tuple, mixed_pairs(
            small_oracle.n, 100, random.Random(9), oracle=small_oracle
        ).tolist()))
        assert not small - big

    def test_mixed_seed_stable_without_oracle(self):
        from collections import Counter

        small = Counter(map(tuple, mixed_pairs(30, 40, random.Random(8)).tolist()))
        big = Counter(map(tuple, mixed_pairs(30, 80, random.Random(8)).tolist()))
        assert not small - big

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_generate_workload(self, kind, small_oracle):
        wl = generate_workload(
            kind, small_oracle.n, 50, random.Random(4), oracle=small_oracle
        )
        assert wl.kind == kind and len(wl) == 50

    def test_generate_workload_rejects_unknown_kind(self):
        with pytest.raises(GraphError):
            generate_workload("bursty", 10, 5)

    def test_adversarial_needs_oracle(self):
        with pytest.raises(GraphError):
            generate_workload("adversarial", 10, 5)

    def test_workloads_need_two_vertices(self):
        with pytest.raises(GraphError):
            uniform_pairs(1, 5)
        empty = uniform_pairs(1, 0)
        assert empty.shape == (0, 2) and empty.dtype == np.int64


class TestPairArrays:
    """Every generator returns one read-only ``(count, 2)`` int64
    array, which ``check_pairs`` and ``Router.route_many`` take as it
    is."""

    def test_property_every_kind(self, small_oracle):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            kind=st.sampled_from(WORKLOAD_KINDS),
            n=st.integers(2, 70),
            with_oracle=st.booleans(),
            count=st.integers(0, 300),
            seed=st.integers(0, 2 ** 64 - 1),
        )
        def check(kind, n, with_oracle, count, seed):
            oracle = None
            if with_oracle or kind == "adversarial":
                oracle, n = small_oracle, small_oracle.n
            pairs = generate_workload(
                kind, n, count, random.Random(seed), oracle=oracle
            ).pairs
            assert pairs.shape == (count, 2)
            assert pairs.dtype == np.int64
            assert not pairs.flags.writeable
            assert ((pairs >= 0) & (pairs < n)).all()
            assert (pairs[:, 0] != pairs[:, 1]).all()
            again = generate_workload(
                kind, n, count, random.Random(seed), oracle=oracle
            ).pairs
            assert np.array_equal(pairs, again)
            assert check_pairs(n, pairs) is pairs

        check()

    def test_check_pairs_returns_an_int64_array_itself(self):
        pairs = np.array([[0, 1], [3, 2]], dtype=np.int64)
        assert check_pairs(4, pairs) is pairs
        empty = np.empty((0, 2), dtype=np.int64)
        assert check_pairs(4, empty) is empty
        converted = check_pairs(4, [(0, 1), (3, 2)])
        assert converted.dtype == np.int64
        assert np.array_equal(converted, pairs)

    @pytest.mark.parametrize("bad, message", [
        ([(0, 1), (0, 4)], "pair (0, 4) is out of range for n=4"),
        ([(-1, 2)], "pair (-1, 2) is out of range for n=4"),
        ([(0, 1), (2, 2)], "pair (2, 2) needs source != destination"),
        ([(0.0, 1.5)],
         "pair (0.0, 1.5) has an endpoint that is not an integer"),
        ([("0", "1")],
         "pair ('0', '1') has an endpoint that is not an integer"),
        ([(0, None)], "pair (0, None) has an endpoint that is not an integer"),
        ([(0, 2 ** 64)], "a pair endpoint is out of range for n=4"),
    ], ids=["range", "negative", "self", "float", "string", "none", "beyond-int64"])
    def test_check_pairs_array_messages_match_lists(self, bad, message):
        for pairs in (bad, np.array(bad)):
            with pytest.raises(GraphError) as exc:
                check_pairs(4, pairs)
            assert str(exc.value) == message

    def test_route_many_array_equals_its_list(self, sp_scheme):
        scheme, oracle = sp_scheme
        pairs = generate_workload(
            "mixed", scheme.graph.n, 60, random.Random(2), oracle=oracle
        ).pairs
        router = Router(scheme, oracle)

        def rows(results):
            return [
                (r.source, r.dest, r.dest_name, r.cost, r.hops,
                 r.max_header_bits, r.stretch, r.trace.outbound.path,
                 r.trace.inbound.path)
                for r in results
            ]

        from_list = rows(router.route_many(pairs.tolist()))
        named = np.array(
            [(s, scheme.name_of(t)) for s, t in pairs.tolist()]
        )
        for got in (
            rows(router.route_many(pairs)),
            rows(router.route_many(named, by_name=True)),
        ):
            assert got == from_list
            # endpoints and names stay Python ints, as from a list
            assert {type(x) for row in got for x in row[:3]} == {int}


class TestRoundtripMany:
    def test_matches_individual_roundtrips(self, sp_scheme):
        scheme, oracle = sp_scheme
        pairs = uniform_pairs(scheme.graph.n, 40, random.Random(5))
        sim = Simulator(scheme)
        traces = sim.roundtrip_many(pairs)
        assert len(traces) == len(pairs)
        for (s, t), trace in zip(pairs, traces):
            solo = sim.roundtrip(s, scheme.name_of(t))
            assert trace.outbound.path == solo.outbound.path
            assert trace.inbound.path == solo.inbound.path
            assert trace.total_cost == solo.total_cost

    def test_by_name_destinations(self, sp_scheme):
        scheme, _oracle = sp_scheme
        pairs = uniform_pairs(scheme.graph.n, 10, random.Random(6))
        sim = Simulator(scheme)
        named = [(s, scheme.name_of(t)) for (s, t) in pairs]
        a = sim.roundtrip_many(pairs)
        b = sim.roundtrip_many(named, by_name=True)
        for x, y in zip(a, b):
            assert x.outbound.path == y.outbound.path

    def test_shortest_path_scheme_has_stretch_one(self, sp_scheme):
        scheme, oracle = sp_scheme
        pairs = uniform_pairs(scheme.graph.n, 60, random.Random(7))
        summary = run_workload(scheme, Workload("uniform", pairs), oracle)
        assert summary.max_stretch == pytest.approx(1.0)
        assert summary.mean_stretch == pytest.approx(1.0)


class TestRunWorkload:
    def test_summary_fields(self, small_random: Digraph):
        oracle = DistanceOracle(small_random)
        naming = random_naming(small_random.n, random.Random(8))
        scheme = StretchSixScheme(
            oracle_metric(oracle, naming), naming, rng=random.Random(9)
        )
        wl = generate_workload(
            "mixed", small_random.n, 120, random.Random(10), oracle=oracle
        )
        summary = run_workload(scheme, wl, oracle=oracle)
        assert summary.pairs == 120
        assert summary.kind == "mixed"
        assert summary.total_cost == pytest.approx(
            summary.mean_cost * summary.pairs
        )
        assert 1.0 <= summary.mean_stretch <= summary.max_stretch
        assert summary.max_stretch <= StretchSixScheme.STRETCH_BOUND + 1e-9
        assert summary.max_hops >= summary.mean_hops > 0
        assert summary.max_header_bits > 0
        assert summary.pairs_per_s > 0
        s, t = summary.worst_pair
        assert 0 <= s < small_random.n and 0 <= t < small_random.n
        assert "throughput" in summary.format()

    def test_empty_workload(self, sp_scheme):
        scheme, oracle = sp_scheme
        summary = run_workload(scheme, [], oracle)
        assert summary.pairs == 0
        assert summary.kind == "custom"

    def test_rejects_self_pairs(self, sp_scheme):
        scheme, oracle = sp_scheme
        with pytest.raises(GraphError):
            run_workload(scheme, [(2, 2)], oracle)

    def test_without_oracle_no_stretch(self, sp_scheme):
        scheme, _oracle = sp_scheme
        pairs = uniform_pairs(scheme.graph.n, 5, random.Random(11))
        summary = run_workload(scheme, pairs)
        assert summary.pairs == 5
        assert summary.max_stretch != summary.max_stretch  # nan

    def test_unmeasurable_elapsed_reports_nan_throughput(self):
        """A shard below perf_counter resolution is unmeasurable, not
        zero-throughput."""
        import math

        summary = TrafficSummary(
            "uniform", 10, 50.0, 40, 5.0, 4.0, 7, 32, float("nan"),
            float("nan"), (-1, -1), 0.0,
        )
        assert math.isnan(summary.pairs_per_s)
        assert "unmeasurable" in summary.format()


def oracle_metric(oracle, naming):
    from repro.graph.roundtrip import RoundtripMetric

    return RoundtripMetric(oracle, ids=naming.all_names())


class TestSummaryMerge:
    """Regression tests for :meth:`TrafficSummary.merge`: aggregating
    per-part summaries must equal the stats of the concatenated
    workload (this is the aggregation contract the vectorized serving
    path relies on when batches are sharded)."""

    def _parts(self, scheme):
        n = scheme.graph.n
        return [
            uniform_pairs(n, 30, random.Random(21)),
            hotspot_pairs(n, 25, random.Random(22)),
            uniform_pairs(n, 17, random.Random(23)),
        ]

    def assert_merge_matches_concat(self, merged, concat):
        assert merged.pairs == concat.pairs
        assert merged.total_hops == concat.total_hops
        assert merged.max_hops == concat.max_hops
        assert merged.max_header_bits == concat.max_header_bits
        assert merged.total_cost == pytest.approx(concat.total_cost)
        assert merged.mean_cost == pytest.approx(concat.mean_cost)
        assert merged.mean_hops == pytest.approx(concat.mean_hops)
        assert merged.mean_stretch == pytest.approx(concat.mean_stretch)
        # Per-pair stretch values are identical floats, so the argmax
        # (first-wins) must agree exactly.
        assert merged.max_stretch == concat.max_stretch
        assert merged.worst_pair == concat.worst_pair

    def test_merge_equals_concatenated_run(self, sp_scheme):
        scheme, oracle = sp_scheme
        parts = self._parts(scheme)
        summaries = [run_workload(scheme, p, oracle=oracle) for p in parts]
        merged = TrafficSummary.merge(summaries)
        concat = run_workload(
            scheme, [pair for p in parts for pair in p], oracle=oracle
        )
        self.assert_merge_matches_concat(merged, concat)
        assert merged.elapsed_s == pytest.approx(
            sum(s.elapsed_s for s in summaries)
        )

    def test_merge_guards_vectorized_aggregation(self, sp_scheme):
        """Vectorized per-shard runs merged == one python-engine run
        over the concatenation."""
        scheme, oracle = sp_scheme
        parts = self._parts(scheme)
        merged = TrafficSummary.merge(
            [
                run_workload(scheme, p, oracle=oracle, engine="vectorized")
                for p in parts
            ]
        )
        concat = run_workload(
            scheme,
            [pair for p in parts for pair in p],
            oracle=oracle,
            engine="python",
        )
        self.assert_merge_matches_concat(merged, concat)

    def test_merge_kind_labels(self, sp_scheme):
        scheme, oracle = sp_scheme
        n = scheme.graph.n
        uni = run_workload(
            scheme,
            Workload("uniform", uniform_pairs(n, 5, random.Random(1))),
            oracle,
        )
        hot = run_workload(
            scheme,
            Workload("hotspot", hotspot_pairs(n, 5, random.Random(2))),
            oracle,
        )
        assert TrafficSummary.merge([uni, uni]).kind == "uniform"
        assert TrafficSummary.merge([uni, hot]).kind == "uniform+hotspot"

    def test_merge_with_empty_parts(self, sp_scheme):
        scheme, oracle = sp_scheme
        pairs = uniform_pairs(scheme.graph.n, 8, random.Random(3))
        full = run_workload(scheme, pairs, oracle=oracle)
        empty = run_workload(scheme, [], oracle)
        merged = TrafficSummary.merge([empty, full, empty])
        self.assert_merge_matches_concat(merged, full)
        all_empty = TrafficSummary.merge([empty, empty])
        assert all_empty.pairs == 0
        assert all_empty.max_stretch != all_empty.max_stretch  # nan

    def test_merge_rejects_no_parts(self):
        with pytest.raises(GraphError):
            TrafficSummary.merge([])

    def test_merge_partial_stretch_coverage(self, sp_scheme):
        """Parts measured without an oracle must not wipe the stretch
        columns of the parts that have them: stretch aggregates
        pair-weighted over the covered parts only."""
        scheme, oracle = sp_scheme
        parts = self._parts(scheme)
        covered_a = run_workload(scheme, parts[0], oracle=oracle)
        uncovered = run_workload(scheme, parts[1])  # nan stretch
        covered_b = run_workload(scheme, parts[2], oracle=oracle)
        merged = TrafficSummary.merge([covered_a, uncovered, covered_b])
        assert merged.pairs == sum(len(p) for p in parts)
        covered_pairs = covered_a.pairs + covered_b.pairs
        assert merged.mean_stretch == pytest.approx(
            (covered_a.mean_stretch * covered_a.pairs
             + covered_b.mean_stretch * covered_b.pairs) / covered_pairs
        )
        expected_max = (
            covered_a if covered_a.max_stretch >= covered_b.max_stretch
            else covered_b
        )
        assert merged.max_stretch == expected_max.max_stretch
        assert merged.worst_pair == expected_max.worst_pair

    def test_merge_all_uncovered_stays_nan(self, sp_scheme):
        scheme, _oracle = sp_scheme
        parts = self._parts(scheme)
        merged = TrafficSummary.merge(
            [run_workload(scheme, p) for p in parts]
        )
        assert merged.max_stretch != merged.max_stretch  # nan
        assert merged.worst_pair == (-1, -1)


class TestSummation:
    """Float totals add one at a time from the left on every
    interpreter: the builtin ``sum()`` compensates its rounding since
    Python 3.12, where these totals would read 1.0000000000000002e+16."""

    TOTALS = [1e16, 1.0, 1.0]

    def test_helper(self):
        assert sum_in_order(self.TOTALS) == 1e16
        assert sum_in_order([]) == 0.0

    def test_merge(self):
        parts = [
            TrafficSummary("uniform", 1, cost, 1, cost, 1.0, 1, 0, cost,
                           cost, (0, 1), 0.5)
            for cost in self.TOTALS
        ]
        merged = TrafficSummary.merge(parts)
        assert merged.total_cost == 1e16
        assert merged.mean_stretch == 1e16 / 3
        assert merged.elapsed_s == 1.5

    def test_summary(self):
        pairs = np.array([[0, 1], [1, 0], [0, 1]], dtype=np.int64)
        ones = np.ones(3, dtype=np.int64)
        summary = traffic._summarize(
            "custom", pairs, np.array(self.TOTALS), ones, ones,
            np.ones((2, 2)), 0.0,
        )
        assert summary.total_cost == 1e16
        assert summary.mean_stretch == 1e16 / 3


class TestTrafficCLI:
    @pytest.mark.parametrize("workload", ["uniform", "adversarial", "mixed"])
    def test_traffic_subcommand(self, workload, capsys):
        rc = main([
            "traffic", "--n", "20", "--pairs", "40",
            "--workload", workload, "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pairs      : 40" in out
        assert "throughput" in out
        assert "within the claimed stretch bound" in out

    def test_traffic_scheme_selection(self, capsys):
        rc = main([
            "traffic", "--n", "18", "--pairs", "25", "--scheme", "rtz",
            "--family", "dht",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rtz" in out

    @pytest.mark.parametrize("engine,expected", [
        ("vectorized", "engine     : vectorized"),
        ("python", "engine     : python"),
        ("auto", "engine     : vectorized"),
    ])
    def test_traffic_engine_flag(self, engine, expected, capsys):
        """``--engine`` is gone: argparse refuses each of its old values
        (exit 2).  Without it the engine line still names the engine
        the batches ran on: python only when no scheme compiles."""
        argv = ["traffic", "--n", "20", "--pairs", "30", "--scheme", "stretch6"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--engine", engine])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --engine {engine}" in (
            capsys.readouterr().err
        )
        if engine == "python":
            with python_engine():
                assert main(argv) == 0
        else:
            assert main(argv) == 0
        assert expected in capsys.readouterr().out

    def test_traffic_prints_the_engine_it_ran_on(self, capsys):
        """No flag picks the engine.  A compiling scheme's batches run
        vectorized; with every scheme declining to compile they run on
        python, and the summary is the same."""
        argv = ["traffic", "--n", "20", "--pairs", "30", "--scheme", "stretch6"]
        assert main(argv) == 0
        vec = capsys.readouterr().out
        with python_engine():
            assert main(argv) == 0
        py = capsys.readouterr().out
        assert "engine     : vectorized  (compiled decision tables)\n" in vec
        assert "engine     : python\n" in py

        def block(out):
            return out[out.index("workload   :"):out.index("throughput :")]

        assert block(vec) == block(py)
