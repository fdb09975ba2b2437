"""E14 — Section 6 (open problem): distributed table construction.

The paper leaves distributed construction open and notes centralized
construction is APSP-class.  Our message-passing simulation makes the
distributed cost concrete: rounds and messages per phase, verified to
compute exactly the centralized knowledge.  E14c measures maintenance
after one edge-weight change through ``Network.evolve``.
"""

from __future__ import annotations

import random

import numpy as np
from conftest import banner, bench_n

from repro.api import Network
from repro.distributed.preprocessing import DistributedPreprocessing
from repro.graph.delta import GraphDelta
from repro.graph.generators import random_strongly_connected
from repro.graph.roundtrip import level_size
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import random_naming


def test_distributed_phase_costs(benchmark):
    n = bench_n(24)
    g = random_strongly_connected(n, rng=random.Random(1))
    naming = random_naming(n, random.Random(2))

    def run():
        return DistributedPreprocessing(g, naming, seed=3)

    prep = benchmark.pedantic(run, rounds=1, iterations=1)
    oracle = DistanceOracle(g)
    prep.verify_against_oracle(oracle)
    prep.verify_cluster_decisions(oracle)
    banner(f"E14 / Section 6 - distributed construction (n={n}, m="
           f"{g.m})")
    print(f"{'phase':<18} {'rounds':>7} {'messages':>10}")
    for label, cost in prep.costs.items():
        print(f"{label:<18} {cost.rounds:>7} {cost.messages:>10}")
    print(f"{'total':<18} {prep.total_rounds():>7} "
          f"{prep.total_messages():>10}")
    print("verified: distances, next hops, cluster decisions, tree")
    print("addresses all equal the centralized construction's inputs")


def test_distributed_message_scaling(benchmark):
    rows = []

    def run():
        for n in sorted({bench_n(s) for s in (12, 24, 48)}):
            g = random_strongly_connected(n, rng=random.Random(n))
            naming = random_naming(n, random.Random(n + 1))
            prep = DistributedPreprocessing(g, naming, seed=n + 2)
            rows.append(
                (n, g.m, prep.total_rounds(), prep.total_messages())
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E14b - distributed construction scaling")
    print(f"{'n':>5} {'m':>5} {'rounds':>7} {'messages':>10} "
          f"{'msgs/(n*m)':>11}")
    for (n, m, rounds, msgs) in rows:
        print(f"{n:>5} {m:>5} {rounds:>7} {msgs:>10} "
              f"{msgs / (n * m):>11.1f}")
    # the honest shape of the naive protocol: Theta(n * m)-class
    if len(rows) > 1:
        (n0, m0, _r0, s0), (n1, m1, _r1, s1) = rows[0], rows[-1]
        assert s1 / s0 > 0.25 * (n1 * m1) / (n0 * m0)


def test_dynamic_update_cost(benchmark):
    """E14c — maintenance after one edge-weight change through
    ``Network.evolve``: how much of the table state is actually touched
    (the Section 6 dynamics)."""
    n = bench_n(24)
    g = random_strongly_connected(n, rng=random.Random(5))
    net = Network(g, seed=6, store=None)
    net.oracle()  # the repair starts from the oracle in memory
    names = net.naming()  # ... and carries the names it holds
    edge = random.Random(8).choice(list(g.edges()))
    delta = GraphDelta.reweight(edge.tail, edge.head, edge.weight * 3)

    child = benchmark.pedantic(
        lambda: net.evolve(delta), rounds=1, iterations=1
    )
    repair = child.stats().repair
    assert repair.incremental == 1
    cold = DistanceOracle(child.graph)
    assert np.array_equal(child.oracle().d_matrix, cold.d_matrix)
    assert np.array_equal(child.oracle().parent_matrix(), cold.parent_matrix())
    size = level_size(n, 1, 2)
    changed_nb = sum(
        set(before) != set(after)
        for before, after in zip(
            net.metric().neighborhoods(size).tolist(),
            child.metric().neighborhoods(size).tolist(),
        )
    )
    assert child.naming() is names
    names_changed = sum(
        child.naming().name_of(v) != names.name_of(v) for v in range(n)
    )
    banner(f"E14c / Section 6 - one edge-weight update (n={n})")
    rows = repair.rows_recomputed + repair.rows_reused
    print(f"oracle rows recomputed     : {repair.rows_recomputed} of {rows}")
    print(f"distance entries changed   : {repair.entries_changed} "
          f"of {n * n}")
    print(f"artifacts carried          : {repair.artifacts_carried} "
          "(the naming)")
    print(f"neighborhoods changed      : {changed_nb} of {n} nodes")
    print(f"node names changed         : {names_changed} "
          "(the TINN promise)")
    assert names_changed == 0
