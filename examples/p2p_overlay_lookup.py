#!/usr/bin/env python3
"""Peer-to-peer overlay lookup with topology-independent names.

Section 6 of the paper suggests compact roundtrip routing as a tool
for routing and searching peer-to-peer networks.  This example builds a
Chord-like directed overlay (a ring plus one-way finger links), lets
every peer pick an arbitrary 48-bit identifier (no coordination, as a
real DHT would), applies the paper's universal-hashing reduction to
map those identifiers to the compact name space, and then performs
request/acknowledgment exchanges with the stretch-6 scheme.

The punchline: lookups work with ~sqrt(n)-row tables per peer even
though node identifiers carry zero topological information — the exact
property a dynamic overlay needs, since peers keep their identifiers
as the topology churns.

Run:
    python examples/p2p_overlay_lookup.py [n] [seed]
"""

from __future__ import annotations

import random
import sys

from repro import (
    HashedNaming,
    Network,
    Simulator,
    measure_tables,
    random_dht_overlay,
    random_wild_names,
)

UNIVERSE = 2 ** 48


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 11
    rng = random.Random(seed)

    print(f"== building a directed DHT-style overlay (n={n}) ==")
    g = random_dht_overlay(n, chords_per_node=3, rng=rng)
    print(f"   ring + fingers: {g.m} directed links")

    print("== peers choose arbitrary 48-bit identifiers ==")
    wild = random_wild_names(n, UNIVERSE, rng)
    hashed = HashedNaming(wild, UNIVERSE, rng)
    print(
        f"   universal hash drawn after identifiers fixed: "
        f"max bucket {hashed.max_load()}, "
        f"{hashed.collision_count()} colliding pairs"
    )

    # The reduction: compact names are the hash slots; buckets resolve
    # collisions inside the dictionary entries (constant blow-up).
    net = Network(g, seed=seed + 1, store=None)
    naming, oracle = net.naming(), net.oracle()
    scheme = net.build_scheme("stretch6")
    tables = measure_tables(scheme)
    print(
        f"== compact tables: max {tables.max_entries} rows/peer "
        f"(full routing would need {n - 1}) =="
    )

    print("== lookups: request + ack as one measured roundtrip ==")
    sim = Simulator(scheme)
    total_stretch = 0.0
    lookups = 12
    done = 0
    while done < lookups:
        requester = rng.randrange(n)
        wild_key = rng.choice(wild)
        owner = hashed.resolve(wild_key)
        if owner == requester:
            continue
        done += 1
        # The requester knows only the wild identifier; hashing gives
        # the compact name, the TINN scheme does the rest.
        compact_name = naming.name_of(owner)
        trace = sim.roundtrip(requester, compact_name)
        stretch = trace.total_cost / oracle.r(requester, owner)
        total_stretch += stretch
        print(
            f"   peer {requester:3d} fetches key {wild_key:>15d} "
            f"from peer {owner:3d}: {trace.total_hops:3d} hops, "
            f"stretch {stretch:.2f}"
        )
        assert stretch <= 6.0 + 1e-9
    print(f"== mean lookup stretch {total_stretch / lookups:.2f} (bound 6) ==")


if __name__ == "__main__":
    main()
