"""End-to-end routing on self-chosen ("wild") node names.

Section 1.1.2 argues the permutation-name assumption is harmless: let
nodes pick arbitrary unique names from a large universe, hash them to
``{0..n-1}`` with a universal hash drawn *after* the names are fixed,
and run the compact scheme over hash slots, with each dictionary entry
holding the short bucket of wild names sharing a slot — a constant
table blow-up.

:class:`WildNameStretchSix` makes that reduction an executable scheme
rather than a statistic: it is the Section 2 scheme re-keyed end to
end by wild names.

* Packets arrive carrying the destination's *wild* name only.
* The source hashes it locally to find the responsible block; the
  dictionary node resolves the wild name inside the slot's bucket to
  the destination's ``R3`` label.
* Delivery compares the node's own wild name, so slot collisions can
  never misdeliver.

Storage differences against the permutation-name scheme: dictionary
slices and neighborhood tables key on wild names (same entry counts,
wider keys), plus bucket lists whose total size is ``n`` spread over
the slots — the constant blow-up the paper claims, measured by
:meth:`table_entries`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.dictionary.distribution import BlockDistribution
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.digraph import Digraph
from repro.graph.roundtrip import RoundtripMetric
from repro.naming.blocks import BlockSpace, sqrt_block_space
from repro.naming.hashing import HashedNaming
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

_OUTBOUND = "w6o"
_INBOUND = "w6i"


class WildNameStretchSix(RoutingScheme):
    """Stretch-6 TINN routing addressed by arbitrary unique names.

    Args:
        metric: roundtrip metric of the graph.
        hashed: the :class:`HashedNaming` mapping wild names to slots
            (drawn after the adversary fixed the names).
        rng: randomness for landmarks and the block distribution.
        substrate: optionally share a pre-built :class:`RTZStretch3`.
        blocks_per_node: dictionary sampling budget override.
    """

    name = "stretch-6 (wild names)"

    STRETCH_BOUND = 6.0

    def __init__(
        self,
        metric: RoundtripMetric,
        hashed: HashedNaming,
        rng: Optional[random.Random] = None,
        substrate: Optional[RTZStretch3] = None,
        blocks_per_node: Optional[int] = None,
    ):
        rng = rng or random.Random(0)
        n = metric.n
        if hashed.n != n:
            raise ConstructionError(
                f"hashed naming covers {hashed.n} nodes, graph has {n}"
            )
        self._metric = metric
        self._hashed = hashed
        self.rtz = substrate if substrate is not None else RTZStretch3(metric, rng)
        self.blocks: BlockSpace = sqrt_block_space(n)
        self.distribution = BlockDistribution(
            metric, self.blocks, rng, blocks_per_node=blocks_per_node
        )

        # (1) neighborhood labels keyed by WILD name.
        self._near: List[Dict[int, R3Label]] = [dict() for _ in range(n)]
        for u in range(n):
            for v in metric.sqrt_neighborhood(u):
                self._near[u][hashed.wild_of_vertex(v)] = self.rtz.label(v)
        # (2) block pointers over hash slots.
        self._block_ptr: List[Dict[int, int]] = [dict() for _ in range(n)]
        for u in range(n):
            for b in range(self.blocks.num_blocks()):
                tau = self.blocks.block_prefix(b)
                self._block_ptr[u][b] = self.distribution.holder_in_neighborhood(
                    u, 1, tau
                )
        # (3) dictionary slices: for every stored block, every slot in
        # it, and every vertex in the slot's bucket, one entry keyed by
        # the vertex's wild name.
        self._dict: List[Dict[int, R3Label]] = [dict() for _ in range(n)]
        for u in range(n):
            for b in self.distribution.blocks_of(u):
                for slot in self.blocks.block_members(b):
                    for vertex in hashed.bucket(slot):
                        self._dict[u][
                            hashed.wild_of_vertex(vertex)
                        ] = self.rtz.label(vertex)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        return self._metric.oracle.graph

    @property
    def hashed(self) -> HashedNaming:
        """The wild-name reduction in effect."""
        return self._hashed

    def name_of(self, vertex: int) -> int:
        """The vertex's wild name (this scheme's address space)."""
        return self._hashed.wild_of_vertex(vertex)

    def vertex_of(self, name: int) -> int:
        """Resolve a wild name (preprocessing/verification only)."""
        return self._hashed.resolve(name)

    # ------------------------------------------------------------------
    # local lookups
    # ------------------------------------------------------------------
    def _lookup_r3(self, u: int, wild: int) -> Optional[R3Label]:
        label = self._near[u].get(wild)
        if label is None:
            label = self._dict[u].get(wild)
        return label

    def _lookup_dict_node(self, u: int, wild: int) -> int:
        slot = self._hashed.slot_of_wild(wild)
        return self._block_ptr[u][self.blocks.block_of(slot)]

    # ------------------------------------------------------------------
    # forwarding (same machine as Fig. 3, wild-name keyed)
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
            dest_label = self._dict[at].get(header["dest"])
            if dest_label is None:
                raise TableLookupError(
                    f"dictionary node {at} lacks wild entry "
                    f"{header['dest']}"
                )
            header = dict(header)
            header["dict_node"] = None
            header["next_label"] = dest_label
            header["leg"] = self.rtz.begin_leg(at, dest_label)

        label: R3Label = header["next_label"]
        port, leg_mode = self.rtz.leg_step(at, label, header["leg"])
        if port is None:
            if header["mode"] == _OUTBOUND and header["dict_node"] is None:
                return Deliver(header)
            if header["mode"] == _INBOUND:
                return Deliver(header)
            return self.forward(at, header)
        out = dict(header)
        out["leg"] = leg_mode
        return Forward(port, out)

    def _start_outbound(self, at: int, header: Header) -> Header:
        wild = header["dest"]
        src_label = self.rtz.label(at)
        dest_label = self._lookup_r3(at, wild)
        if dest_label is not None:
            return {
                "mode": _OUTBOUND,
                "dest": wild,
                "src_label": src_label,
                "next_label": dest_label,
                "dict_node": None,
                "leg": self.rtz.begin_leg(at, dest_label),
            }
        dict_node = self._lookup_dict_node(at, wild)
        dict_label = self._near[at][self._hashed.wild_of_vertex(dict_node)]
        return {
            "mode": _OUTBOUND,
            "dest": wild,
            "src_label": src_label,
            "next_label": dict_label,
            "dict_node": dict_node,
            "leg": self.rtz.begin_leg(at, dict_label),
        }

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def compile_tables(self, tables: str = "dense"):
        """Identical journey shape to the permutation-name scheme —
        only the planner's knowledge matrices are keyed through the
        wild-name hash reduction."""
        from repro.runtime.engine import compile_knowledge
        from repro.schemes.stretch6 import compile_fig3_routes

        knowledge = compile_knowledge(
            self._metric.n,
            (self._near, self._dict),
            self._hashed.resolve,
            self._block_ptr,
            self.blocks.num_blocks(),
            lambda v: self.blocks.block_of(self._hashed.slot_of_vertex(v)),
            tables=tables,
        )
        return compile_fig3_routes(
            self, _OUTBOUND, _INBOUND, knowledge, tables=tables
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

    def blow_up_factor(self, reference_entries: Sequence[int]) -> float:
        """Ratio of this scheme's mean table to a reference scheme's
        (the paper claims a constant)."""
        mine = sum(self.table_entries(v) for v in range(self._metric.n))
        ref = sum(reference_entries)
        return mine / ref if ref else float("inf")


@register_scheme(
    "wild_names",
    summary="stretch-6 scheme addressed by arbitrary unique names "
    "(the §1.1.2 hash reduction, end to end)",
    params=(
        ParamSpec("universe", int, None,
                  "exclusive wild-name upper bound (default 2^48)"),
        ParamSpec("blocks_per_node", int, None,
                  "dictionary sampling budget override"),
    ),
    stretch_bound=lambda s: WildNameStretchSix.STRETCH_BOUND,
    bound_text="6",
)
def _build_wild_names(net, rng, universe=None, blocks_per_node=None):
    hashed = (
        net.hashed_naming() if universe is None else net.hashed_naming(universe)
    )
    return WildNameStretchSix(
        net.metric(),
        hashed,
        rng=rng,
        substrate=net.rtz(),
        blocks_per_node=blocks_per_node,
    )
