"""Shortest-path baseline: stretch 1, linear tables.

The trivial comparison point for Fig. 1: every node stores a next-hop
port for every destination *name* (``n - 1`` entries), giving optimal
one-way paths in both directions and hence roundtrip stretch exactly 1.
Its tables are linear in ``n`` — precisely what compact schemes exist
to avoid.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.api.registry import register_scheme
from repro.graph.blocked import default_block_rows
from repro.graph.csr import edge_ports
from repro.graph.digraph import Digraph
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import Naming
from repro.runtime.scheme import (
    Decision,
    Deliver,
    Forward,
    Header,
    RoutingScheme,
)


class ShortestPathScheme(RoutingScheme):
    """Full-table optimal routing (the non-compact baseline).

    Args:
        oracle: distance oracle of the graph.
        naming: adversarial node naming.
    """

    name = "shortest-path"

    def __init__(self, oracle: DistanceOracle, naming: Naming):
        self._oracle = oracle
        self._naming = naming
        g = oracle.graph
        n = g.n
        names = [naming.name_of(t) for t in range(n)]
        # table[u][dest_name] = port of the first hop, one row block of
        # the first-hop matrix at a time
        self._table: List[Dict[int, int]] = []
        step = default_block_rows(n)
        for lo in range(0, n, step):
            first = oracle.first_hop_block(lo, min(n, lo + step))
            tails = np.repeat(np.arange(lo, lo + first.shape[0]), n)
            ports = edge_ports(g, tails, first.reshape(-1))
            for u, row in enumerate(ports.reshape(first.shape).tolist(), lo):
                del row[u]
                self._table.append(dict(zip(names[:u] + names[u + 1:], row)))

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
        return Forward(self._table[at][dest_name], header)

    def table_entries(self, vertex: int) -> int:
        return len(self._table[vertex])

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def compile_tables(self, tables: str = "dense"):
        """Next-hop tables: one leg per direction, headers of constant
        shape (``mode``/``dest``/``src``)."""
        from repro.runtime.engine import (
            CompiledRoutes,
            JourneyPlan,
            Segment,
            compile_next_hop,
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
        step_tables = compile_next_hop(self._oracle, tables)

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

        return CompiledRoutes(self.graph, step_tables, planner, family=tables)


@register_scheme(
    "shortest_path",
    summary="full-table optimal routing (the non-compact baseline)",
    stretch_bound=lambda s: 1.0,
    bound_text="1",
    name_independent=False,
)
def _build_shortest_path(net, rng):
    return ShortestPathScheme(net.oracle(), net.naming())
