"""E9 — Theorem 15: the stretch-2 lower bound, executed.

Three parts: (1) the bidirection reduction's arithmetic chain on a
real scheme's measured paths; (2) the matching-gadget counting
demonstration (all matchings force distinct answer patterns, hence
Omega(n)-bit tables for stretch < 2); (3) the contrast: our stretch-6
scheme sits safely above the lower-bound threshold.
"""

from __future__ import annotations

import math
import random

from conftest import banner

from repro.api import Network
from repro.graph.generators import random_strongly_connected
from repro.lower_bound.construction import (
    IncompressibilityDemo,
    bidirected_instance,
    roundtrip_scheme_as_one_way,
)
from repro.runtime.simulator import Simulator


def test_reduction_chain(benchmark):
    g = random_strongly_connected(20, rng=random.Random(1))

    def run():
        doubled, oracle = bidirected_instance(g)
        net = Network(doubled, seed=2, store=None)
        report = roundtrip_scheme_as_one_way(
            net.build_scheme("stretch6"), net.oracle()
        )
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E9 / Theorem 15 - bidirection reduction (n=20 doubled)")
    print(f"pairs: {report.pairs}")
    print(f"max one-way stretch   : {report.max_one_way:.2f}")
    print(f"max roundtrip stretch : {report.max_roundtrip:.2f} (bound 6)")
    print("chain: roundtrip stretch < 2 would imply one-way stretch < 3")
    print("       everywhere, contradicting Gavoille-Gengler space.")
    assert report.max_roundtrip <= 6.0 + 1e-9


def test_incompressibility_counting(benchmark):
    def run():
        return {
            m: IncompressibilityDemo.run(m)
            for m in (3, 4, 5)
        }

    demos = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E9b / [20]-style counting - matching gadgets")
    print(f"{'pairs':>6} {'instances':>10} {'distinct':>9} "
          f"{'bits needed':>12} {'log2(m!)':>9}")
    for m, demo in demos.items():
        demo.verify()
        print(
            f"{m:>6} {demo.instances:>10} {demo.distinct_patterns:>9} "
            f"{demo.required_bits:>12.1f} "
            f"{math.log2(math.factorial(m)):>9.1f}"
        )
    # the information need grows superlinearly in the matching size
    assert demos[5].required_bits > demos[3].required_bits


def test_stretch6_is_above_threshold(benchmark):
    """The paper's scheme respects the lower bound: its stretch (6) is
    above 2, and on gadget instances it stays correct."""
    from repro.lower_bound.construction import matching_gadget

    matching = [2, 0, 3, 1, 4]
    g = matching_gadget(5, matching)

    def run():
        net = Network(g, seed=4, store=None)
        sim = Simulator(net.build_scheme("stretch6"))
        worst = 0.0
        for i, j in enumerate(matching):
            left, right = 1 + i, 1 + 5 + j
            trace = sim.roundtrip(left, net.naming().name_of(right))
            worst = max(worst, trace.total_cost / net.oracle().r(left, right))
        return worst

    worst = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E9c - stretch-6 on the hard gadget (matched pairs)")
    print(f"worst matched-pair stretch: {worst:.2f} "
          "(>= 2 is permitted; < 2 would need Omega(n) tables)")
    assert worst <= 6.0 + 1e-9
