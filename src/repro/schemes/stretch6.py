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

The scheme holds these tables once, as the arrays they are built from:
the ``N(u)`` rows, the first-holder matrix, which blocks each node
serves, and each vertex's key and block.  Both engines read them: the
python engine resolves a key to its vertex by binary search and takes
the label from the substrate (``rtz.label(v)``); the compiled planner
asks the same two questions of a whole batch.

Routing ``s -> t``: if ``R3(t)`` is known locally (cases 1/3) route the
leg directly; otherwise route to the dictionary node ``w`` (case 2),
read ``R3(t)`` there, and continue — three Lemma 2 legs
(``s -> w -> t`` then ``t -> s`` using ``R3(s)`` carried in the
header), each bounded by ``r + d``, giving stretch 6 (Lemma 3).
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Dict, Optional, Tuple

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

    #: internal modes (Fig. 3's Outbound/Inbound)
    _outbound = "s6o"
    _inbound = "s6i"

    def __init__(
        self,
        metric: RoundtripMetric,
        naming: Naming,
        rng: Optional[random.Random] = None,
        substrate: Optional[RTZStretch3] = None,
        blocks_per_node: Optional[int] = None,
    ):
        if naming.n != metric.n:
            raise ConstructionError(
                f"naming covers {naming.n} nodes, graph has {metric.n}"
            )
        self._naming = naming
        names = np.asarray(naming.all_names(), dtype=np.int64)
        self._build(metric, names, names, rng, substrate, blocks_per_node)

    def _build(
        self,
        metric: RoundtripMetric,
        keys: np.ndarray,
        slots: np.ndarray,
        rng: Optional[random.Random],
        substrate: Optional[RTZStretch3],
        blocks_per_node: Optional[int],
    ) -> None:
        """Fig. 3's tables for vertices addressed by ``keys``, vertex
        ``v``'s dictionary entry living in the block of ``slots[v]``.

        Raises:
            ConstructionError: if some block has no holder in some
                ``N(u)`` (Lemma 1; cannot happen after patching).
        """
        rng = rng or random.Random(0)
        n = metric.n
        self._metric = metric
        self.rtz = substrate if substrate is not None else RTZStretch3(metric, rng)
        self.blocks: BlockSpace = sqrt_block_space(n)
        self.distribution = BlockDistribution(
            metric, self.blocks, rng, blocks_per_node=blocks_per_node
        )
        holders = self.distribution.holders(1)
        if (holders < 0).any():
            u, b = (int(x[0]) for x in np.nonzero(holders < 0))
            raise ConstructionError(
                f"coverage violated: no holder of block {b} in N({u})"
            )
        # (1) the N(u) rows, (2) each block's closest holder in N(u) and
        # (3) the blocks each node serves
        self._near = metric.neighborhoods(level_size(n, 1, 2))
        self._holders = holders
        sets = self.distribution.sets
        self._serves = np.zeros((n, self.blocks.num_blocks()), dtype=bool)
        self._serves[
            np.repeat(np.arange(n), [len(held) for held in sets]),
            list(chain.from_iterable(sets)),
        ] = True
        # each vertex's key and the block holding its dictionary entry;
        # keys resolve to vertices by binary search over the sorted keys
        self._key = keys
        self._block = slots // self.blocks.q
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]

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
    def _vertex_of_key(self, key: int) -> int:
        """The vertex a destination key names.

        Raises:
            TableLookupError: if no vertex carries ``key``.
        """
        keys = self._sorted_keys
        pos = int(keys.searchsorted(key))
        if pos == keys.shape[0] or keys.item(pos) != key:
            raise TableLookupError(f"no vertex carries key {key}")
        return self._key_order.item(pos)

    # The two source-side lookups take the vertex ``v`` that
    # ``dest_key`` names when the caller has resolved it: a packet's
    # first forward() call asks both, and resolves its key once.

    def _lookup_r3(
        self, u: int, dest_key: int, v: Optional[int] = None
    ) -> Optional[R3Label]:
        """``GetR3Label`` of Fig. 3: cases (1) then (3)."""
        if v is None:
            v = self._vertex_of_key(dest_key)
        # a sqrt(n)-long row scans faster as a list than through numpy
        if v in self._near[u].tolist() or self._serves[u, self._block[v]]:
            return self.rtz.label(v)
        return None

    def _lookup_dict_node(
        self, u: int, dest_key: int, v: Optional[int] = None
    ) -> int:
        """``GetLookupNodeID`` of Fig. 3 (case 2)."""
        if v is None:
            v = self._vertex_of_key(dest_key)
        return int(self._holders[u, self._block[v]])

    def _lookup_slice(self, w: int, dest_key: int) -> R3Label:
        """Case (3) at the dictionary node ``w``, which must serve the
        destination's block."""
        v = self._vertex_of_key(dest_key)
        if not self._serves[w, self._block[v]]:
            raise TableLookupError(
                f"dictionary node {w} lacks entry for {dest_key}"
            )
        return self.rtz.label(v)

    # ------------------------------------------------------------------
    # forwarding (Fig. 3)
    # ------------------------------------------------------------------
    def forward(self, at: int, header: Header) -> Decision:
        mode = header["mode"]
        if mode == NEW_PACKET:
            header = self._start_outbound(at, header)
        elif mode == RETURN_PACKET:
            header = self._start_inbound(at, header)
        elif mode == self._outbound and at == header["dict_node"]:
            # Remote dictionary lookup: this node serves the block.
            dest_label = self._lookup_slice(at, header["dest"])
            header = dict(header)
            header["dict_node"] = None
            header["next_label"] = dest_label
            header["leg"] = self.rtz.begin_leg(at, dest_label)

        label: R3Label = header["next_label"]
        port, leg_mode = self.rtz.leg_step(at, label, header["leg"])
        if port is None:
            # Arrived at the current leg's endpoint.
            if header["mode"] == self._outbound and header["dict_node"] is None:
                return Deliver(header)
            if header["mode"] == self._inbound:
                return Deliver(header)
            # Arrived at the dictionary node: reprocess in this call.
            return self.forward(at, header)
        out = dict(header)
        out["leg"] = leg_mode
        return Forward(port, out)

    def _start_outbound(
        self, at: int, header: Header, dict_mode: Optional[str] = None
    ) -> Header:
        """Aim a fresh packet at its destination when ``at`` knows its
        label, else at the dictionary node (in ``dict_mode``, by default
        the outbound mode)."""
        dest_key = header["dest"]
        dest = self._vertex_of_key(dest_key)
        label = self._lookup_r3(at, dest_key, dest)
        mode, dict_node = self._outbound, None
        if label is None:
            dict_node = self._lookup_dict_node(at, dest_key, dest)
            label = self.rtz.label(dict_node)
            mode = dict_mode or self._outbound
        return {
            "mode": mode,
            "dest": dest_key,
            "src_label": self.rtz.label(at),
            "next_label": label,
            "dict_node": dict_node,
            "leg": self.rtz.begin_leg(at, label),
        }

    def _start_inbound(self, at: int, header: Header) -> Header:
        """The acknowledgment: one leg back to the label the packet
        carried from its source."""
        src_label: R3Label = header["src_label"]
        return {
            "mode": self._inbound,
            "dest": header["dest"],
            "src_label": src_label,
            "next_label": src_label,
            "dict_node": None,
            "leg": self.rtz.begin_leg(at, src_label),
        }

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def _planner_lookups(self):
        """Fig. 3's two questions for a batch, answered from the arrays
        :meth:`forward` reads: does each source know its destination's
        label (``t`` in ``N(s)``, or ``t``'s block served at ``s``), and
        which dictionary node would it ask.  The returned function
        holds the arrays themselves, not the scheme, so compiled routes
        cached on the scheme form no reference cycle with it.

        The function raises :class:`TableLookupError` where a
        dictionary node does not serve the destination's block, as
        :meth:`forward` does there.
        """
        near, serves, holders = self._near, self._serves, self._holders
        block_of, key = self._block, self._key

        def lookups(
            sources: np.ndarray, dests: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray]:
            block = block_of[dests]
            local = (near[sources] == dests[:, None]).any(axis=1)
            local |= serves[sources, block]
            dict_node = holders[sources, block].astype(np.int64)
            lacking = ~local & ~serves[dict_node, block]
            if lacking.any():
                i = int(np.flatnonzero(lacking)[0])
                raise TableLookupError(
                    f"dictionary node {int(dict_node[i])} lacks entry for "
                    f"{int(key[dests[i]])}"
                )
            return local, dict_node

        return lookups

    def compile_tables(self):
        """Outbound = optional dictionary segment + destination
        segment; the header is structurally constant within each
        (``dict_node`` is an id until the lookup, ``None`` after)."""
        from repro.runtime.engine import (
            CompiledRoutes,
            JourneyPlan,
            Segment,
            compile_substrate_tables,
            constant_bits,
        )
        from repro.runtime.sizing import header_bits
        from repro.rtz.routing import TO_CENTER

        n = self.graph.n
        label = self.rtz.label(0)
        fresh = {"mode": NEW_PACKET, "dest": 0}
        outbound = {
            "mode": self._outbound,
            "dest": 0,
            "src_label": label,
            "next_label": label,
            "dict_node": None,
            "leg": TO_CENTER,
        }
        to_dict = dict(outbound, dict_node=0)
        inbound = dict(outbound, mode=self._inbound)
        b_fresh = header_bits(fresh, n)
        b_out = header_bits(outbound, n)
        b_dict = header_bits(to_dict, n)
        b_ret = header_bits(self.make_return_header(outbound), n)
        b_in = header_bits(inbound, n)
        step_tables = compile_substrate_tables(self.rtz)
        lookups = self._planner_lookups()

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            local, dict_node = lookups(sources, dests)
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

        return CompiledRoutes(self.graph, step_tables, planner)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count_table_items(self) -> Dict[str, np.ndarray]:
        n = self._metric.n
        return {
            "(1) neighborhood labels": np.count_nonzero(self._near >= 0, axis=1),
            "(2) block pointers": np.count_nonzero(self._holders >= 0, axis=1),
            "(3) dictionary slice": self._serves @ np.bincount(
                self._block, minlength=self._serves.shape[1]
            ),
            "(4) Tab3 substrate": np.array(
                [self.rtz.table_entries(v) for v in range(n)]
            ),
        }


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
