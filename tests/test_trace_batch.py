"""Columnar route batches: per-pair numbers as columns, paths on read.

``Simulator.roundtrip_many`` returns a :class:`TraceBatch` on both
engines.  On the vectorized engine every trace is backed by its batch:
costs, hops and header bits come from the sweep's leg totals, and the
hop-by-hop legs are built from the sweep log only when some trace's
legs are first read (once per batch, under a lock).  These tests pin
that the columns, the legs and every consumer of them (``Router``
results and stats, ``TrafficSummary``) equal the python engine's eager traces
bit for bit, for every registered scheme and both table storages, and
whatever order or threads the legs are read in.
"""

from __future__ import annotations

import copy
import math
import pickle
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Network, scheme_names
from repro.api.router import Router
from repro.runtime.simulator import (
    LegTrace,
    RoundtripTrace,
    Simulator,
    TraceBatch,
)
from repro.runtime.traffic import generate_workload, run_workload
from table_storage import forced

N = 32
PAIRS = 120

#: every registered scheme, the double-tree ones at k = 3 too
CASES = [(name, {}) for name in scheme_names()] + [
    ("exstretch", {"k": 3}),
    ("polystretch", {"k": 3}),
]
CASE_IDS = [
    name + "".join(f"-{k}{v}" for k, v in params.items())
    for name, params in CASES
]

_NETS = {}


def family_net(family: str) -> Network:
    if family not in _NETS:
        _NETS[family] = Network.from_family(family, N, seed=5)
    return _NETS[family]


def sample_pairs(n: int, count: int, seed: int):
    rng = random.Random(seed)
    every = [(s, t) for s in range(n) for t in range(n) if s != t]
    return rng.sample(every, count)


def leg_tuple(leg: LegTrace):
    return (leg.path, leg.cost.hex(), leg.hops, leg.max_header_bits)


def assert_columns_match(batch: TraceBatch, reference):
    """The batch's columns are float64 and int64 arrays equal to the
    reference traces' totals, computed from their legs the way the
    simulator adds them."""
    assert isinstance(batch, TraceBatch)
    assert batch.cost.dtype == np.float64
    assert batch.hops.dtype == batch.max_header_bits.dtype == np.int64
    assert batch.cost.tolist() == [
        t.outbound.cost + t.inbound.cost for t in reference
    ]
    assert batch.hops.tolist() == [
        t.outbound.hops + t.inbound.hops for t in reference
    ]
    assert batch.max_header_bits.tolist() == [
        max(t.outbound.max_header_bits, t.inbound.max_header_bits)
        for t in reference
    ]


@pytest.mark.parametrize("storage", ["dense", "blocked"])
@pytest.mark.parametrize("scheme_name,params", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("family", ["random", "torus", "scale-free"])
def test_columns_and_shuffled_legs_match_python(
    family, scheme_name, params, storage
):
    net = family_net(family)
    scheme = net.build_scheme(scheme_name, **params)
    pairs = sample_pairs(net.n, PAIRS, seed=7)
    py = Simulator(scheme).roundtrip_many(pairs, engine="python")
    with forced(storage):
        vec = Simulator(scheme).roundtrip_many(pairs, engine="vectorized")
    assert_columns_match(py, py)
    assert_columns_match(vec, py)
    # totals are answered from the columns, before any path exists
    assert [t.total_cost for t in vec] == vec.cost.tolist()
    assert [t.total_hops for t in vec] == vec.hops.tolist()
    assert [t.max_header_bits for t in vec] == vec.max_header_bits.tolist()
    assert vec[0]._batch._log is not None
    order = list(range(len(pairs)))
    random.Random(3).shuffle(order)
    for i in order:
        got, want = vec[i], py[i]
        assert leg_tuple(got.inbound) == leg_tuple(want.inbound)
        assert leg_tuple(got.outbound) == leg_tuple(want.outbound)
    assert vec[0]._batch._log is None  # the log is dropped once laid out
    assert vec == py


@pytest.mark.parametrize("scheme_name,params", CASES, ids=CASE_IDS)
def test_legs_read_from_threads_at_once(scheme_name, params):
    """Four readers (more than the cores CI has), switching often, race
    to read every trace of a fresh batch: a second lay-out or a lost
    update would hand two readers different leg objects."""
    net = family_net("random")
    scheme = net.build_scheme(scheme_name, **params)
    pairs = sample_pairs(net.n, PAIRS, seed=11)
    py = Simulator(scheme).roundtrip_many(pairs, engine="python")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            vec = Simulator(scheme).roundtrip_many(pairs, engine="vectorized")
            start = threading.Barrier(4, timeout=60)
            seen = [None] * 4

            def read(slot: int) -> None:
                order = list(range(len(pairs)))
                random.Random(slot).shuffle(order)
                start.wait()
                seen[slot] = {
                    i: (vec[i].outbound, vec[i].inbound) for i in order
                }

            threads = [
                threading.Thread(target=read, args=(slot,)) for slot in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for i, want in enumerate(py):
                out, back = seen[0][i]
                for other in seen[1:]:
                    assert other[i][0] is out and other[i][1] is back
                assert leg_tuple(out) == leg_tuple(want.outbound)
                assert leg_tuple(back) == leg_tuple(want.inbound)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("engine", ["python", "vectorized"])
@pytest.mark.parametrize("scheme_name,params", CASES, ids=CASE_IDS)
def test_router_results_and_accounting_match(scheme_name, params, engine):
    net = family_net("random")
    scheme = net.build_scheme(scheme_name, **params)
    pairs = sample_pairs(net.n, PAIRS, seed=13)
    ref = Router(scheme, oracle=net.oracle())
    ref_results = [ref.route(s, t) for s, t in pairs]
    router = Router(scheme, oracle=net.oracle())
    results = (router.route_many(pairs[:50], engine=engine)
               + router.route_many(pairs[50:], engine=engine))
    r = net.oracle().r_matrix
    for got, want, (s, t) in zip(results, ref_results, pairs):
        assert (got.source, got.dest, got.dest_name) == (s, t, want.dest_name)
        assert got.cost.hex() == want.cost.hex()
        assert (got.hops, got.max_header_bits) == (want.hops, want.max_header_bits)
        assert got.stretch.hex() == want.stretch.hex()
        assert got.stretch == got.cost / float(r[s, t])
        assert got.trace == want.trace
    # single queries count one python batch each; the two route_many
    # calls count two batches on the engine they ran on
    stats, ref_stats = router.stats().as_dict(), ref.stats().as_dict()
    assert ref_stats["python"]["pairs"] == ref_stats["python"]["batches"]
    assert ref_stats["python"]["pairs"] == stats[engine]["pairs"] == len(pairs)
    assert stats[engine]["batches"] == stats[engine]["shards"] == 2
    other = "vectorized" if engine == "python" else "python"
    assert stats[other]["pairs"] == ref_stats["vectorized"]["pairs"] == 0


@pytest.mark.parametrize("engine", ["python", "vectorized"])
def test_results_and_totals_are_python_numbers(engine):
    """The columns are arrays, but every RouteResult field and every
    trace total is a Python number, as JSON encoders and ``repr``
    expect."""
    net = family_net("random")
    router = Router(net.build_scheme("stretch6"), oracle=net.oracle())
    results = router.route_many(sample_pairs(net.n, 12, seed=8),
                                engine=engine)
    results.append(router.route(3, 5))
    for r in results:
        assert (type(r.source), type(r.dest), type(r.dest_name)) == (
            int, int, int,
        )
        assert (type(r.cost), type(r.stretch)) == (float, float)
        assert (type(r.hops), type(r.max_header_bits)) == (int, int)
        trace = r.trace
        assert type(trace.total_cost) is float
        assert type(trace.total_hops) is type(trace.max_header_bits) is int


def test_router_without_oracle_reports_nan_stretch():
    net = family_net("random")
    router = Router(net.build_scheme("stretch6"))
    results = router.route_many(sample_pairs(net.n, 10, seed=2))
    assert all(math.isnan(r.stretch) for r in results)
    assert router.route_many([]) == []


@pytest.mark.parametrize("scheme_name,params", CASES, ids=CASE_IDS)
def test_summaries_read_columns_identically(scheme_name, params):
    net = family_net("torus")
    scheme = net.build_scheme(scheme_name, **params)
    workload = generate_workload(
        "mixed", net.n, 300, rng=random.Random(9), oracle=net.oracle()
    )
    batch = Simulator(scheme).roundtrip_many(workload.pairs)
    for chunks in ({}, {"shard_size": 64}):
        ref = run_workload(
            scheme, workload, oracle=net.oracle(), engine="python", **chunks
        )
        got = run_workload(
            scheme, workload, oracle=net.oracle(), engine="vectorized",
            **chunks,
        )
        assert replace(got, elapsed_s=0.0) == replace(ref, elapsed_s=0.0)
    one_call = run_workload(scheme, workload, oracle=net.oracle())
    assert one_call.total_cost == sum(batch.cost)
    assert one_call.total_hops == sum(batch.hops)


class TestRoundtripTrace:
    """The one trace class: eager or batch-backed, same surface."""

    def eager(self):
        return RoundtripTrace(
            LegTrace([0, 1, 2], 3.5, 40), LegTrace([2, 0], 1.25, 44)
        )

    def test_eager_surface_is_unchanged(self):
        trace = self.eager()
        assert trace.total_cost == 4.75
        assert trace.total_hops == 3
        assert trace.max_header_bits == 44
        assert repr(trace) == (
            "RoundtripTrace(outbound=LegTrace(path=[0, 1, 2], cost=3.5, "
            "max_header_bits=40), inbound=LegTrace(path=[2, 0], cost=1.25, "
            "max_header_bits=44))"
        )
        same = RoundtripTrace(
            outbound=LegTrace([0, 1, 2], 3.5, 40),
            inbound=LegTrace([2, 0], 1.25, 44),
        )
        assert trace == same and not trace != same
        assert trace != RoundtripTrace(same.outbound, LegTrace([2, 0], 1.0, 44))
        assert trace != (trace.outbound, trace.inbound)
        with pytest.raises(TypeError):
            hash(trace)

    def test_backed_trace_reprs_compares_and_copies_eagerly(self):
        net = family_net("random")
        scheme = net.build_scheme("stretch6")
        pairs = sample_pairs(net.n, 20, seed=4)
        py = Simulator(scheme).roundtrip_many(pairs, engine="python")
        vec = Simulator(scheme).roundtrip_many(pairs, engine="vectorized")
        assert repr(vec[3]) == repr(py[3])
        assert py[3] == vec[3] and vec[3] == py[3]
        for clone in (
            pickle.loads(pickle.dumps(vec[5])),
            copy.copy(vec[5]),
            copy.deepcopy(vec[5]),
        ):
            assert clone == py[5]
            assert clone._batch is None

    def test_empty_batch_has_empty_columns(self):
        net = family_net("random")
        sim = Simulator(net.build_scheme("rtz"))
        for engine in ("python", "vectorized"):
            batch = sim.roundtrip_many([], engine=engine)
            assert isinstance(batch, TraceBatch)
            assert batch == []
            assert batch.cost.tolist() == batch.hops.tolist() == []
            assert batch.max_header_bits.tolist() == []

    def test_columns_of_eager_traces(self):
        batch = TraceBatch([self.eager(), self.eager()])
        assert batch.cost.tolist() == [4.75, 4.75]
        assert batch.hops.tolist() == [3, 3]
        assert batch.max_header_bits.tolist() == [44, 44]


def test_a_kept_result_outlives_its_batch_list():
    """A result kept after its batch list is gone still reads its
    paths: the trace holds what builds them."""
    net = family_net("random")
    scheme = net.build_scheme("stretch6")
    pairs = sample_pairs(net.n, 40, seed=21)
    kept = Router(scheme).route_many(pairs)[17]
    want = Simulator(scheme).roundtrip_many([pairs[17]], engine="python")[0]
    assert kept.trace == want
    assert np.isnan(kept.stretch)
