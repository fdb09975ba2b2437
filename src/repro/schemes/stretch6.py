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
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from repro.dictionary.distribution import BlockDistribution
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.digraph import Digraph
from repro.graph.roundtrip import RoundtripMetric, level_size
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

        # (1) neighborhood labels, (2) block pointers and (3) dictionary
        # slices, keyed by name; block b's slice holds the labels of the
        # vertices named by its members.
        names = np.asarray(naming.all_names(), dtype=np.int64)
        vertex_of_name = np.argsort(names).astype(np.int32)
        self._block_vertices = [
            vertex_of_name[self.blocks.block_members(b)]
            for b in range(self.blocks.num_blocks())
        ]
        self._near, self._block_ptr, self._dict = fig3_tables(
            self, names, self._block_vertices
        )

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
    def compile_tables(self, tables: str = "dense"):
        """Outbound = optional dictionary segment + destination
        segment; the header is structurally constant within each
        (``dict_node`` is an id until the lookup, ``None`` after)."""
        return compile_fig3_routes(
            self, _OUTBOUND, _INBOUND, fig3_knowledge(self, tables),
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


def fig3_tables(scheme, keys: np.ndarray, block_vertices: Sequence[np.ndarray]):
    """Fig. 3's per-node tables (1)-(3) from the construction's arrays.

    Both the permutation-name scheme and the wild-name variant store
    the same three tables and differ only in the key a vertex is
    addressed by.

    Args:
        scheme: a scheme exposing ``_metric``, ``rtz`` and its
            ``distribution`` (a ``k = 2`` :class:`BlockDistribution`).
        keys: ``(n,)`` int64, the key (name) of each vertex.
        block_vertices: per block, the vertices whose labels its
            dictionary slice holds, in entry order.

    Returns:
        ``(near, block_ptr, dictionary)``: per node, key -> ``R3``
        label over ``N(u)``; block index -> the closest holder of the
        block in ``N(u)``; key -> ``R3`` label over every block of
        ``S_u``.

    Raises:
        ConstructionError: if some block has no holder in some ``N(u)``
            (Lemma 1; cannot happen after patching).
    """
    n = scheme._metric.n
    labels = np.empty(n, dtype=object)
    labels[:] = [scheme.rtz.label(v) for v in range(n)]
    near_v = scheme._metric.neighborhoods(level_size(n, 1, 2))
    near = [
        dict(zip(row_keys, row_labels))
        for row_keys, row_labels in zip(
            keys[near_v].tolist(), labels[near_v].tolist()
        )
    ]
    holders = scheme.distribution.holders(1)
    if (holders < 0).any():
        u, b = (int(x[0]) for x in np.nonzero(holders < 0))
        raise ConstructionError(
            f"coverage violated: no holder of block {b} in N({u})"
        )
    block_ptr = [dict(enumerate(row)) for row in holders.tolist()]
    entries = [
        list(zip(keys[verts].tolist(), labels[verts].tolist()))
        for verts in block_vertices
    ]
    dictionary = [
        dict(chain.from_iterable(
            entries[b] for b in scheme.distribution.blocks_of(u)
        ))
        for u in range(n)
    ]
    return near, block_ptr, dictionary


def fig3_knowledge(scheme, tables: str = "dense"):
    """Planner inputs for a scheme built by :func:`fig3_tables` (which
    keeps the ``block_vertices`` it passed as ``_block_vertices``): does
    ``u`` hold ``R3(v)`` locally (cases 1/3 of Fig. 3: ``v`` in ``N(u)``
    or in one of ``u``'s stored blocks) and the per-source
    dictionary-node matrix (case 2), stored per the table family."""
    from repro.runtime.engine import compile_knowledge

    n = scheme._metric.n
    near_v = scheme._metric.neighborhoods(level_size(n, 1, 2))
    block_vertices = scheme._block_vertices
    known = [
        np.concatenate([near_v[u]] + [
            block_vertices[b] for b in scheme.distribution.sets[u]
        ])
        for u in range(n)
    ]
    block_of_vertex = np.empty(n, dtype=np.int64)
    for b, verts in enumerate(block_vertices):
        block_of_vertex[verts] = b
    return compile_knowledge(
        known, scheme.distribution.holders(1), block_of_vertex, tables
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
    only in their mode tags and in which vertices their blocks hold
    (the planner's ``knowledge``, from :func:`fig3_knowledge`).

    Args:
        scheme: a built scheme exposing ``rtz``, ``graph``, and
            ``make_return_header``.
        outbound_mode: the scheme's outbound header mode tag.
        inbound_mode: the scheme's inbound header mode tag.
        knowledge: a :class:`repro.runtime.engine.Knowledge` from
            :func:`repro.runtime.engine.compile_knowledge`.
        tables: compiled-table family for the substrate step tables.
    """
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
