"""Failure-injection tests: corrupted tables and broken invariants
must surface as loud errors, never as silent misrouting.

The library's position (see repro.exceptions) is that a delivery
failure always indicates a bug, so the simulator and schemes are
instrumented to detect misbehaviour.  These tests corrupt state on
purpose and assert the detection fires.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.experiments import Instance
from repro.exceptions import (
    ConstructionError,
    HopLimitExceeded,
    RoutingError,
    TableLookupError,
)
from repro.graph.generators import random_strongly_connected
from repro.runtime.scheme import Forward
from repro.runtime.simulator import Simulator
from repro.rtz.routing import RTZStretch3
from repro.schemes.exstretch import ExStretchScheme
from repro.schemes.stretch6 import StretchSixScheme


def make_instance(n=20, seed=0) -> Instance:
    g = random_strongly_connected(n, rng=random.Random(seed))
    return Instance.prepare(g, seed=seed + 1)


class TestCorruptedTables:
    def test_missing_dictionary_entry_detected(self):
        inst = make_instance()
        scheme = StretchSixScheme(
            inst.metric, inst.naming, rng=random.Random(1), blocks_per_node=1
        )
        scheme.compiled_routes()
        # find a pair that needs a remote lookup, then drop the block
        # from the dictionary node's slice: both engines must notice
        for s in range(inst.graph.n):
            for t in range(inst.graph.n):
                if s == t:
                    continue
                dest = inst.naming.name_of(t)
                if scheme._lookup_r3(s, dest) is not None:
                    continue
                w = scheme._lookup_dict_node(s, dest)
                scheme._serves[w, scheme.blocks.block_of(dest)] = False
                messages = set()
                for engine in ("python", "vectorized"):
                    with pytest.raises(TableLookupError) as exc:
                        Simulator(scheme).roundtrip_many([(s, t)], engine=engine)
                    messages.add(str(exc.value))
                assert messages == {f"dictionary node {w} lacks entry for {dest}"}
                return
        pytest.skip("no remote pair found")

    def test_corrupted_direct_table_detected(self):
        inst = make_instance(seed=2)
        rtz = RTZStretch3(inst.metric, random.Random(3))
        # remove a mid-path direct entry: forwarding must raise, not loop
        for v in range(inst.graph.n):
            cluster = sorted(rtz.assignment.cluster(v))
            for u in cluster:
                path = inst.oracle.path(u, v)
                if len(path) > 2:
                    mid = path[1]
                    # the direct table is three aligned arrays sorted
                    # by (u, v); drop mid's entry for v from all three
                    keep = rtz._direct_keys != mid * inst.graph.n + v
                    for name in ("_direct_keys", "_direct_next", "_direct_port"):
                        setattr(rtz, name, getattr(rtz, name)[keep])
                    with pytest.raises(TableLookupError):
                        rtz.route_leg(u, v)
                    return
        pytest.skip("no multi-hop direct pair found")

    def test_wrong_port_leads_to_detection(self):
        # A scheme that forwards on arbitrary ports must be caught by
        # the hop limit, not wander forever.
        inst = make_instance(seed=4)
        scheme = StretchSixScheme(inst.metric, inst.naming, rng=random.Random(5))

        real_forward = scheme.forward

        def chaotic_forward(at, header):
            decision = real_forward(at, header)
            if isinstance(decision, Forward):
                ports = inst.graph.ports(at)
                return Forward(ports[0], decision.header)
            return decision

        scheme.forward = chaotic_forward  # type: ignore[method-assign]
        sim = Simulator(scheme, hop_limit=100)
        with pytest.raises((HopLimitExceeded, RoutingError, TableLookupError)):
            for t in range(1, inst.graph.n):
                sim.roundtrip(0, inst.naming.name_of(t))

    def test_truncated_waypoint_stack_detected(self):
        inst = make_instance(seed=6)
        scheme = ExStretchScheme(
            inst.metric, inst.naming, k=2, rng=random.Random(7)
        )

        real_forward = scheme.forward

        def stack_dropper(at, header):
            decision = real_forward(at, header)
            if isinstance(decision, Forward) and decision.header.get("stack"):
                h = dict(decision.header)
                h["stack"] = []  # drop all return handshakes
                return Forward(decision.port, h)
            return decision

        scheme.forward = stack_dropper  # type: ignore[method-assign]
        sim = Simulator(scheme)
        with pytest.raises((TableLookupError, RoutingError, HopLimitExceeded)):
            for t in range(1, inst.graph.n):
                sim.roundtrip(0, inst.naming.name_of(t))


class TestSimulatorGuards:
    def test_hop_limit_is_per_leg(self):
        inst = make_instance(seed=8)
        scheme = StretchSixScheme(inst.metric, inst.naming, rng=random.Random(9))
        # generous limit: everything fine
        sim = Simulator(scheme, hop_limit=8 * inst.graph.n)
        trace = sim.roundtrip(0, inst.naming.name_of(5))
        # absurdly small limit: must raise instead of returning junk
        tight = Simulator(scheme, hop_limit=max(0, trace.outbound.hops - 1))
        with pytest.raises(HopLimitExceeded):
            tight.roundtrip(0, inst.naming.name_of(5))

    def test_delivery_at_wrong_vertex_detected(self):
        inst = make_instance(seed=10)
        scheme = StretchSixScheme(inst.metric, inst.naming, rng=random.Random(11))

        from repro.runtime.scheme import Deliver

        real_forward = scheme.forward

        def early_deliver(at, header):
            decision = real_forward(at, header)
            if isinstance(decision, Forward) and at != 0:
                return Deliver(decision.header)
            return decision

        scheme.forward = early_deliver  # type: ignore[method-assign]
        with pytest.raises(RoutingError):
            Simulator(scheme).roundtrip(0, inst.naming.name_of(7))


class TestConstructionGuards:
    def test_coverage_invariant_check_fires(self):
        # holder_in_neighborhood raises if coverage is broken by hand.
        from repro.dictionary.distribution import BlockDistribution
        from repro.naming.blocks import sqrt_block_space

        inst = make_instance(16, seed=12)
        dist = BlockDistribution(
            inst.metric, sqrt_block_space(16), random.Random(13)
        )
        # wipe a block everywhere
        victim = 0
        for v in range(16):
            dist.sets[v].discard(victim)
        dist._holder_cache.clear()
        tau = dist.block_space.block_prefix(victim)
        with pytest.raises(ConstructionError):
            dist.holder_in_neighborhood(0, 1, tau)

    def test_verify_reports_broken_distribution(self):
        from repro.dictionary.distribution import BlockDistribution
        from repro.naming.blocks import sqrt_block_space

        inst = make_instance(16, seed=14)
        dist = BlockDistribution(
            inst.metric, sqrt_block_space(16), random.Random(15)
        )
        for v in range(16):
            dist.sets[v].discard(1)
        with pytest.raises(ConstructionError, match="uncovered"):
            dist.verify()
