"""End-to-end integration tests: every scheme x every family x
adversarial namings and ports, through the full simulator.

These are the "does the whole stack hold together" tests: fresh
packets carrying nothing but a name, adversarial port numbers,
random permutation namings, every workload family, all four schemes.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.api import Network
from repro.graph.generators import standard_families
from repro.runtime.simulator import Simulator
from repro.runtime.stats import measure_stretch


FAMILIES = sorted(standard_families(25, seed=42).items())


@pytest.mark.parametrize("family_name,graph", FAMILIES)
@pytest.mark.parametrize(
    "scheme_label", ["stretch6", "exstretch", "polystretch", "rtz"]
)
def test_scheme_on_family(family_name: str, graph, scheme_label: str):
    # a stable seed per case: str hashes are salted per process
    seed = zlib.crc32(f"{family_name}|{scheme_label}".encode()) % 1000
    net = Network(graph, seed=seed, store=None)
    report = measure_stretch(
        net.router(scheme_label), sample=80, rng=random.Random(4)
    )
    bound = net.stretch_bound(scheme_label)
    assert report.max_stretch <= bound + 1e-9, (
        f"{scheme_label} on {family_name}: {report.max_stretch} > {bound}"
    )


class TestAdversarialSurface:
    """Adversarial ports and namings together."""

    def test_port_permutations_do_not_matter(self):
        # Same topology, three different adversarial port assignments:
        # stretch must stay within bound on each (routes may differ).
        from repro.graph.digraph import Digraph

        base_edges = []
        rng = random.Random(5)
        n = 18
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            base_edges.append((perm[i], perm[(i + 1) % n], 1.0 + (i % 3)))
        for i in range(n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and (a, b) not in {(u, v) for (u, v, _w) in base_edges}:
                base_edges.append((a, b, rng.uniform(1, 5)))
        for port_seed in range(3):
            g = Digraph(n)
            seen = set()
            for (u, v, w) in base_edges:
                if (u, v) not in seen:
                    seen.add((u, v))
                    g.add_edge(u, v, w)
            g.freeze(random.Random(port_seed))
            net = Network(g, seed=6, store=None)
            report = measure_stretch(
                net.router("stretch6"), sample=60, rng=random.Random(8)
            )
            assert report.max_stretch <= 6.0 + 1e-9

    def test_all_sources_to_one_destination(self):
        # Hot-spot pattern: everyone talks to one server.
        fams = standard_families(25, seed=1)
        g = fams["dht"]
        net = Network(g, seed=9, store=None)
        sim = Simulator(net.build_scheme("stretch6"))
        server = 0
        for s in range(1, g.n):
            trace = sim.roundtrip(s, net.naming().name_of(server))
            assert trace.total_cost <= 6 * net.oracle().r(s, server) + 1e-9

    def test_one_source_to_all_destinations(self):
        fams = standard_families(25, seed=2)
        g = fams["layered"]
        net = Network(g, seed=11, store=None)
        scheme = net.build_scheme("exstretch", k=2)
        sim = Simulator(scheme)
        for t in range(1, g.n):
            trace = sim.roundtrip(0, net.naming().name_of(t))
            assert trace.total_cost <= scheme.stretch_bound() * net.oracle().r(
                0, t
            ) + 1e-9

    def test_repeated_roundtrips_are_deterministic(self):
        fams = standard_families(25, seed=3)
        g = fams["random"]
        net = Network(g, seed=13, store=None)
        sim = Simulator(net.build_scheme("polystretch", k=2))
        a = sim.roundtrip(1, net.naming().name_of(9))
        b = sim.roundtrip(1, net.naming().name_of(9))
        assert a.outbound.path == b.outbound.path
        assert a.inbound.path == b.inbound.path


class TestSharedSubstrates:
    """Schemes sharing one substrate instance must not interfere."""

    def test_stretch6_and_rtz_share_substrate(self):
        fams = standard_families(25, seed=4)
        net = Network(fams["torus"], seed=14, store=None)
        s6 = net.build_scheme("stretch6")
        base = net.build_scheme("rtz")
        assert s6.rtz is base.rtz is net.rtz()
        r1 = measure_stretch(net.router(s6), sample=50, rng=random.Random(16))
        r2 = measure_stretch(net.router(base), sample=50, rng=random.Random(17))
        assert r1.max_stretch <= 6.0 + 1e-9
        assert r2.max_stretch <= 3.0 + 1e-9

    def test_exstretch_and_polystretch_share_hierarchy(self):
        fams = standard_families(25, seed=5)
        net = Network(fams["random"], seed=18, store=None)
        ex = net.build_scheme("exstretch", k=2)
        poly = net.build_scheme("polystretch", k=2)
        assert ex.spanner.hierarchy is poly.hierarchy is net.hierarchy(2)
        r1 = measure_stretch(net.router(ex), sample=50, rng=random.Random(19))
        r2 = measure_stretch(net.router(poly), sample=50, rng=random.Random(20))
        assert r1.max_stretch <= ex.stretch_bound() + 1e-9
        assert r2.max_stretch <= poly.stretch_bound() + 1e-9
