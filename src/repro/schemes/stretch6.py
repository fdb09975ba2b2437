"""The stretch-6 TINN roundtrip scheme (Section 2, Fig. 3).

The paper's first headline result: topology-independent names,
``~O(sqrt n)`` tables, ``O(log^2 n)`` headers, roundtrip stretch 6.

Per-node storage (Section 2.1), at node ``u``:

1. for every ``v`` in the roundtrip neighborhood ``N(u)`` (first
   ``ceil(sqrt n)`` of ``Init_u``): ``(name(v), R3(v))``;
2. for every block index ``i``: the neighbor ``t in N(u)`` holding
   block ``B_i`` (exists by Lemma 1);
3. for every block in ``S_u`` and every name ``j`` in it:
   ``(j, R3(vertex(j)))`` — the dictionary slice ``u`` serves;
4. ``Tab3(u)`` — the Lemma 2 substrate tables.

Routing ``s -> t``: if ``R3(t)`` is known locally (cases 1/3) route the
leg directly; otherwise route to the dictionary node ``w`` (case 2),
read ``R3(t)`` there, and continue — three Lemma 2 legs
(``s -> w -> t`` then ``t -> s`` using ``R3(s)`` carried in the
header), each bounded by ``r + d``, giving stretch 6 (Lemma 3).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.dictionary.distribution import BlockDistribution
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.digraph import Digraph
from repro.graph.roundtrip import RoundtripMetric
from repro.naming.blocks import BlockSpace, sqrt_block_space
from repro.naming.permutation import Naming
from repro.runtime.scheme import (
    Decision,
    Deliver,
    Forward,
    Header,
    NEW_PACKET,
    RETURN_PACKET,
    RoutingScheme,
)
from repro.api.registry import ParamSpec, register_scheme
from repro.rtz.routing import R3Label, RTZStretch3

#: internal modes (Fig. 3's Outbound/Inbound)
_OUTBOUND = "s6o"
_INBOUND = "s6i"


class StretchSixScheme(RoutingScheme):
    """Section 2's TINN compact roundtrip routing scheme.

    Args:
        metric: roundtrip metric (its tie-break ids should be the
            naming's names for full TINN fidelity).
        naming: adversarial node naming.
        rng: randomness for landmark sampling and block distribution.
        substrate: optionally share a pre-built :class:`RTZStretch3`.
        blocks_per_node: override the dictionary sampling budget
            (defaults to the Lemma 1 ``O(log n)`` constant; on small
            test graphs that default stores every block everywhere, so
            tests pass a smaller value to exercise remote lookups).
    """

    name = "stretch-6 (TINN)"

    #: worst-case roundtrip stretch proved in Lemma 3
    STRETCH_BOUND = 6.0

    def __init__(
        self,
        metric: RoundtripMetric,
        naming: Naming,
        rng: Optional[random.Random] = None,
        substrate: Optional[RTZStretch3] = None,
        blocks_per_node: Optional[int] = None,
    ):
        rng = rng or random.Random(0)
        n = metric.n
        if naming.n != n:
            raise ConstructionError(
                f"naming covers {naming.n} nodes, graph has {n}"
            )
        self._metric = metric
        self._naming = naming
        self.rtz = substrate if substrate is not None else RTZStretch3(metric, rng)
        self.blocks: BlockSpace = sqrt_block_space(n)
        self.distribution = BlockDistribution(
            metric, self.blocks, rng, blocks_per_node=blocks_per_node
        )

        # (1) neighborhood labels: per node, name -> R3 label.
        self._near: List[Dict[int, R3Label]] = [dict() for _ in range(n)]
        for u in range(n):
            for v in metric.sqrt_neighborhood(u):
                self._near[u][naming.name_of(v)] = self.rtz.label(v)
        # (2) block pointers: per node, block index -> dictionary vertex.
        self._block_ptr: List[Dict[int, int]] = [dict() for _ in range(n)]
        for u in range(n):
            for b in range(self.blocks.num_blocks()):
                tau = self.blocks.block_prefix(b)
                holder = self.distribution.holder_in_neighborhood(u, 1, tau)
                self._block_ptr[u][b] = holder
        # (3) dictionary slices: per node, name -> R3 label for every
        # name in every stored block.
        self._dict: List[Dict[int, R3Label]] = [dict() for _ in range(n)]
        for u in range(n):
            for b in self.distribution.blocks_of(u):
                for j in self.blocks.block_members(b):
                    self._dict[u][j] = self.rtz.label(naming.vertex_of(j))

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        return self._metric.oracle.graph

    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric."""
        return self._metric

    def name_of(self, vertex: int) -> int:
        return self._naming.name_of(vertex)

    def vertex_of(self, name: int) -> int:
        return self._naming.vertex_of(name)

    # ------------------------------------------------------------------
    # local lookups (packet-time legal: only u's own tables)
    # ------------------------------------------------------------------
    def _lookup_r3(self, u: int, dest_name: int) -> Optional[R3Label]:
        """``GetR3Label`` of Fig. 3: cases (1) then (3)."""
        label = self._near[u].get(dest_name)
        if label is None:
            label = self._dict[u].get(dest_name)
        return label

    def _lookup_dict_node(self, u: int, dest_name: int) -> int:
        """``GetLookupNodeID`` of Fig. 3 (case 2)."""
        block = self.blocks.block_of(dest_name)
        return self._block_ptr[u][block]

    # ------------------------------------------------------------------
    # forwarding (Fig. 3)
    # ------------------------------------------------------------------
    def forward(self, at: int, header: Header) -> Decision:
        mode = header["mode"]
        if mode == NEW_PACKET:
            header = self._start_outbound(at, header)
        elif mode == RETURN_PACKET:
            src_label: R3Label = header["src_label"]
            header = {
                "mode": _INBOUND,
                "dest": header["dest"],
                "src_label": src_label,
                "next_label": src_label,
                "dict_node": None,
                "leg": self.rtz.begin_leg(at, src_label),
            }
        elif mode == _OUTBOUND and at == header["dict_node"]:
            # Remote dictionary lookup: this node serves the block.
            dest_label = self._dict[at].get(header["dest"])
            if dest_label is None:
                raise TableLookupError(
                    f"dictionary node {at} lacks entry for {header['dest']}"
                )
            header = dict(header)
            header["dict_node"] = None
            header["next_label"] = dest_label
            header["leg"] = self.rtz.begin_leg(at, dest_label)

        label: R3Label = header["next_label"]
        port, leg_mode = self.rtz.leg_step(at, label, header["leg"])
        if port is None:
            # Arrived at the current leg's endpoint.
            if header["mode"] == _OUTBOUND and header["dict_node"] is None:
                return Deliver(header)
            if header["mode"] == _INBOUND:
                return Deliver(header)
            # Arrived at the dictionary node: reprocess in this call.
            return self.forward(at, header)
        out = dict(header)
        out["leg"] = leg_mode
        return Forward(port, out)

    def _start_outbound(self, at: int, header: Header) -> Header:
        dest_name = header["dest"]
        src_label = self.rtz.label(at)
        dest_label = self._lookup_r3(at, dest_name)
        if dest_label is not None:
            return {
                "mode": _OUTBOUND,
                "dest": dest_name,
                "src_label": src_label,
                "next_label": dest_label,
                "dict_node": None,
                "leg": self.rtz.begin_leg(at, dest_label),
            }
        dict_node = self._lookup_dict_node(at, dest_name)
        dict_label = self._near[at][self._naming.name_of(dict_node)]
        return {
            "mode": _OUTBOUND,
            "dest": dest_name,
            "src_label": src_label,
            "next_label": dict_label,
            "dict_node": dict_node,
            "leg": self.rtz.begin_leg(at, dict_label),
        }

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def _compiled_knowledge(self, tables: str = "dense"):
        """Planner inputs: does ``u`` hold ``R3(v)`` locally (cases 1/3
        of Fig. 3) and the per-source dictionary-node matrix (case 2),
        stored per the table family."""
        from repro.runtime.engine import compile_knowledge

        return compile_knowledge(
            self._metric.n,
            (self._near, self._dict),
            self.vertex_of,
            self._block_ptr,
            self.blocks.num_blocks(),
            lambda v: self.blocks.block_of(self.name_of(v)),
            tables=tables,
        )

    def compile_tables(self, tables: str = "dense"):
        """Outbound = optional dictionary segment + destination
        segment; the header is structurally constant within each
        (``dict_node`` is an id until the lookup, ``None`` after)."""
        return compile_fig3_routes(
            self, _OUTBOUND, _INBOUND, self._compiled_knowledge(tables),
            tables=tables,
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def table_entries(self, vertex: int) -> int:
        return (
            len(self._near[vertex])
            + len(self._block_ptr[vertex])
            + len(self._dict[vertex])
            + self.rtz.table_entries(vertex)
        )


def compile_fig3_routes(
    scheme, outbound_mode: str, inbound_mode: str, knowledge,
    tables: str = "dense",
):
    """The shared Fig. 3 journey compiler (see
    :mod:`repro.runtime.engine`).

    Both the permutation-name scheme and the wild-name variant route
    identically — an optional dictionary segment then the destination
    segment outbound, a single acknowledgment segment back — differing
    only in their mode tags and in how the planner's ``knowledge``
    matrices were keyed.

    Args:
        scheme: a built scheme exposing ``rtz``, ``graph``, and
            ``make_return_header``.
        outbound_mode: the scheme's outbound header mode tag.
        inbound_mode: the scheme's inbound header mode tag.
        knowledge: a :class:`repro.runtime.engine.Knowledge` from
            :func:`repro.runtime.engine.compile_knowledge`.
        tables: compiled-table family for the substrate step tables.
    """
    import numpy as np

    from repro.runtime.engine import (
        CompiledRoutes,
        JourneyPlan,
        Segment,
        compile_substrate_tables,
        constant_bits,
    )
    from repro.runtime.sizing import header_bits
    from repro.rtz.routing import TO_CENTER

    n = scheme.graph.n
    label = scheme.rtz.label(0)
    fresh = {"mode": NEW_PACKET, "dest": 0}
    outbound = {
        "mode": outbound_mode,
        "dest": 0,
        "src_label": label,
        "next_label": label,
        "dict_node": None,
        "leg": TO_CENTER,
    }
    to_dict = dict(outbound)
    to_dict["dict_node"] = 0
    inbound = dict(outbound)
    inbound["mode"] = inbound_mode
    b_fresh = header_bits(fresh, n)
    b_out = header_bits(outbound, n)
    b_dict = header_bits(to_dict, n)
    b_ret = header_bits(scheme.make_return_header(outbound), n)
    b_in = header_bits(inbound, n)
    step_tables = compile_substrate_tables(scheme.rtz, tables)

    def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
        batch = sources.shape[0]
        local = knowledge.local(sources, dests)
        dict_node = knowledge.dict_node(sources, dests)
        return JourneyPlan(
            legs=[
                [
                    Segment(
                        np.where(local, -1, dict_node),
                        constant_bits(b_dict, batch),
                    ),
                    Segment(dests.copy(), constant_bits(b_out, batch)),
                ],
                [Segment(sources.copy(), constant_bits(b_in, batch))],
            ],
            leg_init_bits=[
                constant_bits(b_fresh, batch),
                constant_bits(b_ret, batch),
            ],
        )

    return CompiledRoutes(scheme.graph, step_tables, planner, family=tables)


@register_scheme(
    "stretch6",
    summary="Section 2 stretch-6 TINN scheme (~sqrt(n) tables)",
    params=(
        ParamSpec("blocks_per_node", int, None,
                  "dictionary sampling budget override"),
    ),
    stretch_bound=lambda s: StretchSixScheme.STRETCH_BOUND,
    bound_text="6",
)
def _build_stretch6(net, rng, blocks_per_node=None):
    return StretchSixScheme(
        net.metric(),
        net.naming(),
        rng=rng,
        substrate=net.rtz(),
        blocks_per_node=blocks_per_node,
    )
