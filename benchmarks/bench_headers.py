"""E8 — Section 1.1.4: header budgets.

Fresh packets carry names only; headers grow as routing information is
learned, but must stay within O(log^2 n) (stretch-6) and o(k log^2 n)
(ExStretch's stack).  This experiment sweeps n and reports the worst
observed header against the budget.
"""

from __future__ import annotations

import random

from conftest import banner, bench_n

from repro.api import Network
from repro.graph.generators import random_strongly_connected
from repro.runtime.sizing import header_bits, log2_squared
from repro.runtime.stats import measure_stretch


def test_header_growth_sweep(benchmark):
    sizes = sorted({bench_n(n) for n in (16, 36, 64)})
    rows = []

    def run():
        for n in sizes:
            g = random_strongly_connected(n, rng=random.Random(n))
            net = Network(g, seed=n + 1, store=None)
            s6 = net.build_scheme("stretch6")
            ex = net.build_scheme("exstretch", k=2)
            rep6 = measure_stretch(
                net.router(s6), sample=120, rng=random.Random(1)
            )
            repx = measure_stretch(
                net.router(ex), sample=120, rng=random.Random(2)
            )
            fresh = header_bits(s6.new_packet_header(0), n)
            rows.append((n, fresh, rep6.max_header_bits, repx.max_header_bits))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E8 / Section 1.1.4 - header bits vs the log^2 budget")
    print(f"{'n':>6} {'fresh':>6} {'stretch6':>9} {'exstretch':>10} "
          f"{'log2(n)^2':>10}")
    for (n, fresh, h6, hx) in rows:
        budget = log2_squared(n)
        print(f"{n:>6} {fresh:>6} {h6:>9} {hx:>10} {budget:>10.0f}")
        # fresh packets are name-only: O(log n) bits
        assert fresh <= 3 * (n - 1).bit_length() + 8
        assert h6 <= 8 * budget
        assert hx <= 16 * budget  # k=2 stack


def test_real_wire_encoding(benchmark):
    """E8c — the codec's *actual* encoded header sizes (not the
    accounting estimate) against the log^2 budget."""
    from repro.runtime.codec import HeaderCodec
    from repro.runtime.scheme import Forward
    from repro.runtime.simulator import Simulator

    n = bench_n(48)
    g = random_strongly_connected(n, rng=random.Random(21))
    net = Network(g, seed=22, store=None)
    scheme = net.build_scheme("stretch6")
    codec = HeaderCodec(n)

    def run():
        captured = []
        real_forward = scheme.forward

        def tap(at, header):
            decision = real_forward(at, header)
            if isinstance(decision, Forward):
                captured.append(codec.encoded_bits(decision.header))
            return decision

        scheme.forward = tap  # type: ignore[method-assign]
        sim = Simulator(scheme)
        for t in range(1, n, 3):
            sim.roundtrip(0, net.naming().name_of(t))
        scheme.forward = real_forward  # type: ignore[method-assign]
        return captured

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E8c - real wire encoding of live headers (stretch-6, n={n})")
    print(f"headers encoded : {len(sizes)}")
    print(f"max bits        : {max(sizes)}")
    print(f"mean bits       : {sum(sizes) / len(sizes):.0f}")
    print(f"log2(n)^2       : {log2_squared(n):.0f}")
    assert max(sizes) <= 12 * log2_squared(n)


def test_headers_monotone_reasonable(benchmark):
    """Headers must never explode mid-route (every hop re-measured)."""
    n = bench_n(36)
    g = random_strongly_connected(n, rng=random.Random(9))
    net = Network(g, seed=10, store=None)

    def run():
        rep = measure_stretch(
            net.router("stretch6"), sample=200, rng=random.Random(12)
        )
        return rep.max_header_bits

    worst = benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"E8b - worst mid-route header (stretch-6, n={n})")
    print(f"max header anywhere: {worst} bits "
          f"(budget ~ {8 * log2_squared(n):.0f})")
    assert worst <= 8 * log2_squared(n)
