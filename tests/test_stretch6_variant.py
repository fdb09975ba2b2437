"""Tests for the Section 2.2 via-source variant scheme."""

from __future__ import annotations

import random

import pytest

from repro.api import Network
from repro.graph.generators import random_strongly_connected
from repro.runtime.simulator import Simulator
from repro.runtime.stats import measure_stretch
from repro.schemes.stretch6 import StretchSixScheme
from repro.schemes.stretch6_variant import StretchSixViaSourceScheme


def build(n=24, seed=0, blocks_per_node=1):
    g = random_strongly_connected(n, rng=random.Random(seed))
    net = Network(g, seed=seed + 1, store=None)
    variant = StretchSixViaSourceScheme(
        net.metric(),
        net.naming(),
        rng=random.Random(seed + 2),
        blocks_per_node=blocks_per_node,
    )
    return net, variant


class TestVariantCorrectness:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_pairs_within_stretch6(self, seed: int):
        net, variant = build(seed=seed)
        report = measure_stretch(net.router(variant))
        assert report.max_stretch <= 6.0 + 1e-9

    def test_outbound_passes_through_source_after_lookup(self):
        net, variant = build(seed=5)
        sim = Simulator(variant)
        found = 0
        for s in range(net.graph.n):
            for t in range(net.graph.n):
                if s == t:
                    continue
                dest = net.naming().name_of(t)
                if variant._lookup_r3(s, dest) is not None:
                    continue
                found += 1
                trace = sim.roundtrip(s, dest)
                # the outbound path revisits s after the dictionary trip
                assert trace.outbound.path.count(s) >= 2
                assert trace.outbound.path[-1] == t
        assert found > 20, "variant path barely exercised"

    def test_local_destinations_identical_to_deployed(self):
        # When no dictionary trip is needed the two schemes route the
        # same journey.
        net, variant = build(seed=6, blocks_per_node=None)
        deployed = StretchSixScheme(
            net.metric(),
            net.naming(),
            substrate=variant.rtz,
            rng=random.Random(8),
        )
        sim_v = Simulator(variant)
        sim_d = Simulator(deployed)
        for s in range(0, net.graph.n, 4):
            for t in net.metric().sqrt_neighborhood(s):
                if t == s:
                    continue
                dest = net.naming().name_of(t)
                tv = sim_v.roundtrip(s, dest)
                td = sim_d.roundtrip(s, dest)
                assert tv.outbound.path == td.outbound.path

    def test_variant_never_beats_deployed_on_average(self):
        net, variant = build(n=30, seed=7)
        deployed = StretchSixScheme(
            net.metric(),
            net.naming(),
            substrate=variant.rtz,
            rng=random.Random(9),
            blocks_per_node=1,
        )
        rv = measure_stretch(
            net.router(variant), sample=200, rng=random.Random(10)
        )
        rd = measure_stretch(
            net.router(deployed), sample=200, rng=random.Random(10)
        )
        assert rd.mean_stretch <= rv.mean_stretch + 1e-9

    def test_headers_roundtrip_through_codec(self):
        from repro.runtime.codec import HeaderCodec
        from repro.runtime.scheme import Forward

        net, variant = build(seed=11)
        codec = HeaderCodec(net.graph.n)
        captured = []
        real_forward = variant.forward

        def tap(at, header):
            decision = real_forward(at, header)
            if isinstance(decision, Forward):
                captured.append(decision.header)
            return decision

        variant.forward = tap  # type: ignore[method-assign]
        Simulator(variant).roundtrip(0, net.naming().name_of(9))
        variant.forward = real_forward  # type: ignore[method-assign]
        for h in captured:
            assert codec.decode(codec.encode(h)) == h
