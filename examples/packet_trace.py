#!/usr/bin/env python3
"""Anatomy of one ExStretch packet: the prefix-matching ladder.

Reproduces Fig. 5's schematic live: inject a packet with only a
topology-independent destination name, and watch it climb the
distributed dictionary — each waypoint holds a block matching one more
digit of the destination's base-n^{1/k} name, each hop is covered by a
handshake label pushed onto the header stack, and the acknowledgment
unwinds the stack.

Run:
    python examples/packet_trace.py [n] [k] [seed]
"""

from __future__ import annotations

import random
import sys

from repro import ExStretchScheme, Network, random_strongly_connected
from repro.runtime.scheme import Deliver, Forward


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 27
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 9

    g = random_strongly_connected(n, rng=random.Random(seed))
    net = Network(g, seed=seed + 1, store=None)
    naming = net.naming()
    # A deliberately lean dictionary (one block per node) so the walk
    # shows several rungs of the prefix ladder even on a small graph;
    # Lemma 4's patching keeps coverage sound regardless.
    scheme = ExStretchScheme(
        net.metric(),
        naming,
        k=k,
        rng=random.Random(seed + 2),
        blocks_per_node=1,
    )
    bs = scheme.blocks

    def ladder_length(s: int, t: int) -> int:
        """Waypoints the dictionary walk would visit (replayed)."""
        dest = naming.name_of(t)
        if scheme._near.get(s, dest) >= 0:  # the N_1 shortcut
            return 1
        at, hop, count = s, 0, 0
        while at != t and hop < k:
            hop += 1
            nxt, _ = scheme._next_stop(at, hop, dest)
            if nxt != at:
                count += 1
            at = nxt
        return count

    # Pick the pair with the longest prefix-matching ladder so the
    # trace actually shows the Fig. 5 mechanism.
    rng = random.Random(seed + 3)
    candidates = [
        (s, t) for s in range(n) for t in range(n) if s != t
    ]
    s, t = max(
        rng.sample(candidates, min(len(candidates), 300)),
        key=lambda p: ladder_length(*p),
    )
    dest_name = naming.name_of(t)

    print(f"== ExStretch k={k} over base-{bs.q} names ==")
    print(f"   source vertex {s}, destination name {dest_name}")
    print(f"   destination digits: {bs.digits(dest_name)}")

    # Walk the forwarding function manually to annotate each step.
    header = scheme.new_packet_header(dest_name)
    at = s
    hops = 0
    last_stack = 0
    print("\n-- outbound --")
    while True:
        decision = scheme.forward(at, header)
        if isinstance(decision, Deliver):
            print(f"   [{hops:3d}] vertex {at}: DELIVER to host")
            header = decision.header
            break
        assert isinstance(decision, Forward)
        new_header = decision.header
        depth = len(new_header.get("stack", []))
        if depth != last_stack:
            wp = new_header["next_id"]
            wp_name = naming.name_of(wp)
            held = scheme.distribution.augmented_blocks_of(wp, wp_name)
            dest_digits = bs.digits(dest_name)

            def matched_digits(block: int) -> int:
                pref = bs.block_prefix(block)
                h = 0
                while h < len(pref) and pref[h] == dest_digits[h]:
                    h += 1
                return h

            best = max(matched_digits(b) for b in held)
            if wp_name == dest_name:
                note = "the destination itself"
            else:
                note = f"holds a block matching {best} digit(s)"
            print(
                f"   [{hops:3d}] vertex {at}: waypoint -> vertex {wp} "
                f"(name {wp_name}; {note}); stack depth {depth}"
            )
            last_stack = depth
        header = new_header
        at = g.head_of_port(at, decision.port)
        hops += 1

    print("\n-- acknowledgment (stack unwind) --")
    header = scheme.make_return_header(header)
    back_hops = 0
    while True:
        decision = scheme.forward(at, header)
        if isinstance(decision, Deliver):
            print(f"   [{back_hops:3d}] vertex {at}: DELIVER to source host")
            break
        assert isinstance(decision, Forward)
        new_depth = len(decision.header.get("stack", []))
        if new_depth != last_stack:
            print(
                f"   [{back_hops:3d}] vertex {at}: pop -> heading to "
                f"vertex {decision.header['next_id']} "
                f"(stack depth {new_depth})"
            )
            last_stack = new_depth
        header = decision.header
        at = g.head_of_port(at, decision.port)
        back_hops += 1

    r = net.oracle().r(s, t)
    print(
        f"\n== roundtrip done: {hops + back_hops} hops; optimal roundtrip "
        f"{r:.1f}, bound {scheme.stretch_bound():.1f}x =="
    )


if __name__ == "__main__":
    main()
