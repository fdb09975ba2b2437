"""Shortest-path baseline: stretch 1, linear tables.

The trivial comparison point for Fig. 1: every node stores a next-hop
port for every destination *name* (``n - 1`` entries), giving optimal
one-way paths in both directions and hence roundtrip stretch exactly 1.
Its tables are linear in ``n`` — precisely what compact schemes exist
to avoid.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_scheme
from repro.exceptions import TableLookupError
from repro.graph.blocked import next_hop_slots
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Digraph
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import Naming
from repro.runtime.engine import NextHopTable
from repro.runtime.scheme import (
    Decision,
    Deliver,
    Forward,
    Header,
    RoutingScheme,
)


class ShortestPathScheme(RoutingScheme):
    """Full-table optimal routing (the non-compact baseline).

    The tables are one read-only ``(n, n)`` int32 matrix: entry
    ``[u, t]`` is the CSR out-edge slot of the first hop on the
    canonical shortest path ``u -> t``
    (:func:`~repro.graph.blocked.next_hop_slots`).  ``forward`` sends a
    packet on that slot's port, and the compiled engine reads the same
    matrix.

    Args:
        oracle: distance oracle of the graph.
        naming: adversarial node naming.
    """

    name = "shortest-path"

    def __init__(self, oracle: DistanceOracle, naming: Naming):
        self._oracle = oracle
        self._naming = naming
        self._out_heads = CSRGraph.from_digraph(oracle.graph).out_heads
        self._next_hop = NextHopTable(next_hop_slots(oracle))

    @property
    def graph(self) -> Digraph:
        return self._oracle.graph

    def name_of(self, vertex: int) -> int:
        return self._naming.name_of(vertex)

    def vertex_of(self, name: int) -> int:
        return self._naming.vertex_of(name)

    def forward(self, at: int, header: Header) -> Decision:
        mode = header["mode"]
        if mode == "ret":
            # The acknowledgment simply targets the original source.
            out = dict(header)
            out["mode"] = "back"
            out["dest"], out["src"] = out["src"], out["dest"]
            header = out
        elif mode == "new":
            out = dict(header)
            out["mode"] = "out"
            out["src"] = self._naming.name_of(at)
            header = out
        dest_name = header["dest"]
        if self._naming.name_of(at) == dest_name:
            return Deliver(header)
        slot = int(self._next_hop.slots[at, self._naming.vertex_of(dest_name)])
        if slot < 0:
            raise TableLookupError(
                f"no next hop at vertex {at} toward name {dest_name}"
            )
        head = int(self._out_heads[slot])
        return Forward(self.graph.port_of(at, head), header)

    def table_entries(self, vertex: int) -> int:
        return int(np.count_nonzero(self._next_hop.slots[vertex] >= 0))

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def compile_tables(self):
        """The scheme's one next-hop table, at every graph size: it is
        the ``(n, n)`` matrix the scheme already holds, so compiling
        allocates no table.  One leg per direction, headers of constant
        shape (``mode``/``dest``/``src``)."""
        from repro.runtime.engine import (
            CompiledRoutes,
            JourneyPlan,
            Segment,
            constant_bits,
        )
        from repro.runtime.scheme import NEW_PACKET, RETURN_PACKET
        from repro.runtime.sizing import header_bits

        n = self.graph.n
        fresh = {"mode": NEW_PACKET, "dest": 0}
        out = {"mode": "out", "dest": 0, "src": 0}
        ret = dict(out)
        ret["mode"] = RETURN_PACKET
        back = {"mode": "back", "dest": 0, "src": 0}
        b_fresh = header_bits(fresh, n)
        b_out = header_bits(out, n)
        b_ret = header_bits(ret, n)
        b_back = header_bits(back, n)

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            return JourneyPlan(
                legs=[
                    [Segment(dests.copy(), constant_bits(b_out, batch))],
                    [Segment(sources.copy(), constant_bits(b_back, batch))],
                ],
                leg_init_bits=[
                    constant_bits(b_fresh, batch),
                    constant_bits(b_ret, batch),
                ],
            )

        return CompiledRoutes(self.graph, self._next_hop, planner)


@register_scheme(
    "shortest_path",
    summary="full-table optimal routing (the non-compact baseline)",
    stretch_bound=lambda s: 1.0,
    bound_text="1",
    name_independent=False,
)
def _build_shortest_path(net, rng):
    return ShortestPathScheme(net.oracle(), net.naming())
