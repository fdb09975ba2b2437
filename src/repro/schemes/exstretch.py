"""The ExStretch TINN scheme (Section 3, Figs. 4-6).

The exponential space/stretch tradeoff: with dictionary blocks over the
base-``n^{1/k}`` representation of names, a packet walks a sequence of
waypoints ``s = v_0, v_1, ..., v_k = t`` whose stored blocks match ever
longer prefixes of the destination name, covering each hop with a
handshake label ``R2(v_i, v_{i+1})`` read from the local dictionary and
pushed onto a header stack for the return trip.

Lemma 8 bounds hop ``i``'s roundtrip by ``2^i r(s, t)``; summing and
multiplying by the spanner's per-hop roundtrip stretch gives
Theorem 9's ``(2^k - 1)(2k + eps)`` — with our Theorem 13-based
substrate the per-hop factor is ``8k - 3`` worst case (see DESIGN.md,
substitutions).

Per-node storage (Section 3.3), at node ``u``:

1. ``Tab(u)`` — the double-tree hierarchy state;
2. for every ``v`` in ``N_1(u)``: ``(name(v), R2(u, v))`` — also used
   as a direct shortcut when the destination is a close neighbor;
3. for each block in ``S'_u = S_u + own block``:
   (a) for every level ``0 <= i < k-1`` and digit ``tau``:
   ``R2(u, v)`` for the nearest ``v`` holding a block matching
   ``prefix_i(own block) . tau``;
   (b) for every digit ``tau``: ``R2(u, v)`` for the node ``v`` named
   ``prefix_{k-1}(block) . tau`` (when that name exists).

The scheme holds rules 2 and 3 once, as two sorted-key tables of the
vertices ``v`` (:meth:`ExStretchScheme._build_tables`); both engines
read them, and each handshake ``R2(u, v)`` is derived from the vertex
found (:meth:`~repro.rtz.spanner.HandshakeSpanner.r2`).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dictionary.distribution import BlockDistribution, first_holders
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.csr import PairTable
from repro.graph.digraph import Digraph
from repro.graph.roundtrip import RoundtripMetric, level_size
from repro.naming.blocks import BlockSpace
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
from repro.rtz.spanner import HandshakeSpanner, R2Label

#: internal modes (Fig. 6's Outbound/Inbound)
_OUTBOUND = "exo"
_INBOUND = "exi"


class ExStretchScheme(RoutingScheme):
    """Section 3's exponential-tradeoff TINN roundtrip scheme.

    Args:
        metric: roundtrip metric.
        naming: adversarial node naming.
        k: the tradeoff parameter (``k >= 2``); ``k = 2`` mirrors the
            ``sqrt(n)`` regime.
        rng: randomness for the block distribution.
        spanner: optionally share a pre-built :class:`HandshakeSpanner`.
        blocks_per_node: override the dictionary sampling budget
            (defaults to the Lemma 4 ``O(log n)`` constant; smaller
            values exercise longer waypoint ladders on small graphs).
    """

    name = "exstretch (TINN)"

    def __init__(
        self,
        metric: RoundtripMetric,
        naming: Naming,
        k: int = 2,
        rng: Optional[random.Random] = None,
        spanner: Optional[HandshakeSpanner] = None,
        blocks_per_node: Optional[int] = None,
    ):
        if k < 2:
            raise ConstructionError(f"ExStretch requires k >= 2, got {k}")
        rng = rng or random.Random(0)
        n = metric.n
        self._metric = metric
        self._naming = naming
        self.k = k
        self.spanner = spanner or HandshakeSpanner(metric, k)
        self.blocks = BlockSpace(n, k)
        self.distribution = BlockDistribution(
            metric, self.blocks, rng, blocks_per_node=blocks_per_node
        )

        self._near, self._rows = self._build_tables()

    def _build_tables(self) -> Tuple[PairTable, PairTable]:
        """Storage rules 2, 3a and 3b as array operations.

        Returns two sorted-key tables of vertices.  ``near[u, name(v)]``
        is ``v`` for ``v`` in ``N_1(u)`` minus ``u`` (rule 2, the direct
        shortcut).  ``rows[u, col]`` is the vertex waypoint hop ``h``
        reads at ``u``, with ``col = (h - 1) q^k +`` the value of the
        destination's ``h``-digit prefix: for ``h < k`` (rule 3a) the
        first node of ``Init_u`` holding a block that extends the
        prefix, which Lemma 4 places in ``N_h(u)``, for every prefix
        extending the ``(h - 1)``-prefix of a block of ``S'_u``; for
        ``h = k`` (rule 3b, the prefix is the name) the vertex named,
        for every name of a block of ``S'_u``.  A row's vertex may be
        ``u`` itself.

        Raises:
            ConstructionError: for a rule-3a prefix with no holder in
                ``N_h(u)`` (a Lemma 4 coverage gap).
        """
        metric, naming, blocks = self._metric, self._naming, self.blocks
        n, k, q = metric.n, self.k, blocks.q
        width = q ** k
        names = np.asarray(naming.all_names(), dtype=np.int64)
        vertex_of = np.empty(n, dtype=np.int64)
        vertex_of[names] = np.arange(n)
        # S'_u = S_u + own block, as an (n, blocks) matrix
        num_blocks = blocks.num_blocks()
        aug = np.zeros((n, num_blocks), dtype=bool)
        for u, held in enumerate(self.distribution.sets):
            aug[u, list(held)] = True
        aug[np.arange(n), names // q] = True

        # (2) close neighbors: N_1(u) minus u.
        near = metric.neighborhoods(level_size(n, 1, k))
        near_u = np.repeat(np.arange(n), near.shape[1])
        near_v = near.ravel().astype(np.int64)
        keep = near_v != near_u
        near_u, near_v = near_u[keep], near_v[keep]

        # (3a) prefix rows, level by level.  Rows are keyed by the
        # *target* (i+1)-prefix they resolve, which is equivalent to the
        # paper's (own block, i, tau) keying but stores no duplicate
        # rows for blocks sharing prefixes.  Lemma 4 puts a holder of
        # every (i+1)-prefix inside N_{i+1}(u), a prefix of Init_u (the
        # distribution patches any gap, and S'_u only adds blocks), so
        # the first holder in N_{i+1}(u) is the first in Init_u.
        row_keys, row_v = [], []
        for i in range(k - 1):
            span = q ** (k - 2 - i)  # blocks per (i+1)-prefix
            # own[u, p]: u holds a block whose i-prefix is p; the rows
            # are every (i+1)-prefix extending one
            own = np.logical_or.reduceat(
                aug, np.arange(0, num_blocks, span * q), axis=1
            )
            count = -(-num_blocks // span)  # (i+1)-prefixes
            us, ps = np.nonzero(own[:, np.arange(count) // q])
            near = metric.neighborhoods(level_size(n, i + 1, k))
            first = first_holders(near, aug, span)[us, ps]
            if (first < 0).any():
                j = np.flatnonzero(first < 0)[0]
                tau = blocks.block_prefix(int(ps[j]) * span)[:i + 1]
                raise ConstructionError(
                    f"(u={us[j]}, level={i + 1}, prefix={tau}) has no holder "
                    f"in N_{i + 1}(u): Lemma 4 coverage violated")
            row_keys.append(us * (k * width) + i * width + ps)
            row_v.append(first.astype(np.int64))

        # (3b) final rows: every name of every block of S'_u.  Block b
        # holds the names [b q, min(b q + q, n)); laid end to end, entry
        # t of the range starting at offset o is start + (t - o).
        final_u, final_b = np.nonzero(aug)
        starts = final_b * q
        sizes = np.minimum(starts + q, n) - starts
        offsets = np.cumsum(sizes) - sizes
        final_names = np.repeat(starts - offsets, sizes) + np.arange(sizes.sum())
        final_u = np.repeat(final_u, sizes)
        row_keys.append(final_u * (k * width) + (k - 1) * width + final_names)
        row_v.append(vertex_of[final_names])
        return (
            PairTable.from_entries(n, near_u * n + names[near_v], near_v),
            PairTable.from_entries(
                k * width, np.concatenate(row_keys), np.concatenate(row_v)
            ),
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

    def stretch_bound(self) -> float:
        """The end-to-end bound with our substrate:
        ``(2^k - 1) * (8k - 3)`` (Theorem 9 shape)."""
        return (2.0 ** self.k - 1.0) * (8.0 * self.k - 3.0)

    # ------------------------------------------------------------------
    # waypoint computation (Fig. 4's NextStop, packet-time legal)
    # ------------------------------------------------------------------
    def _next_stop(
        self, at: int, hop: int, dest_name: int
    ) -> Tuple[int, Optional[R2Label]]:
        """The next waypoint from ``at`` given the current hop index
        (the packet has matched ``hop - 1`` digits so far).

        Returns:
            ``(vertex, label)``; ``label`` is ``None`` when the next
            waypoint is ``at`` itself (no travel needed).
        """
        k, q = self.k, self.blocks.q
        nxt = self._rows.get(
            at, (hop - 1) * q ** k + dest_name // q ** (k - hop)
        )
        if nxt < 0:
            if hop >= k:
                raise TableLookupError(
                    f"final row for name {dest_name} missing at {at}"
                )
            raise TableLookupError(
                f"prefix row {self.blocks.digits(dest_name)[:hop]} missing "
                f"at {at} (Lemma 4 coverage violated?)"
            )
        return nxt, None if nxt == at else self.spanner.r2(at, nxt)

    # ------------------------------------------------------------------
    # forwarding (Fig. 6)
    # ------------------------------------------------------------------
    def forward(self, at: int, header: Header) -> Decision:
        mode = header["mode"]
        if mode == NEW_PACKET:
            header = self._start_outbound(at, header)
        elif mode == RETURN_PACKET:
            header = self._start_inbound(at, header)

        # Delivery checks come before waypoint processing so the final
        # pop is never attempted at the source itself.  Outbound
        # delivery requires the destination to be the current waypoint:
        # merely walking over it mid-hop (as tree infrastructure) must
        # not deliver, because the return leg could then start in a
        # tree where the destination holds no routing state.
        if (
            header["mode"] == _OUTBOUND
            and self.name_of(at) == header["dest"]
            and at == header["next_id"]
        ):
            return Deliver(header)
        if header["mode"] == _INBOUND and at == header["src_id"]:
            return Deliver(header)

        if header["mode"] == _OUTBOUND and at == header["next_id"]:
            header = self._advance_waypoint(at, header)
        elif header["mode"] == _INBOUND and at == header["next_id"]:
            header = self._pop_waypoint(at, header)

        label: R2Label = header["label"]
        port, phase = self.spanner.hop_step(at, label, header["phase"])
        if port is None:
            # Arrived at the current waypoint; reprocess immediately.
            return self.forward(at, header)
        out = dict(header)
        out["phase"] = phase
        return Forward(port, out)

    def _start_outbound(self, at: int, header: Header) -> Header:
        dest_name = header["dest"]
        if self.name_of(at) == dest_name:
            raise TableLookupError("packet injected at its own destination")
        base: Header = {
            "mode": _OUTBOUND,
            "dest": dest_name,
            "src_id": at,
            "hop": 0,
            "stack": [],
            "next_id": at,
            "label": None,
            "phase": "",
        }
        # Direct shortcut: destination is a level-1 neighbor (storage 2).
        near = self._near.get(at, dest_name)
        if near >= 0:
            label = self.spanner.r2(at, near)
            base["hop"] = self.k
            base["next_id"] = near
            base["label"] = label
            base["phase"] = self.spanner.begin_hop(at, label)
            base["stack"] = [(at, label)]
            return base
        return self._advance_waypoint(at, base)

    def _advance_waypoint(self, at: int, header: Header) -> Header:
        """At waypoint ``v_i``: compute ``v_{i+1}``, push the return
        handshake, and aim the packet (skipping self-waypoints)."""
        out = dict(header)
        hop = out["hop"]
        while True:
            hop += 1
            if hop > self.k:
                raise TableLookupError(
                    "waypoint advance overran the prefix ladder"
                )
            nxt, label = self._next_stop(at, hop, out["dest"])
            if nxt != at:
                break
        out["hop"] = hop
        out["next_id"] = nxt
        out["label"] = label
        out["phase"] = self.spanner.begin_hop(at, label)
        stack = list(out["stack"])
        stack.append((at, label))
        out["stack"] = stack
        return out

    def _start_inbound(self, at: int, header: Header) -> Header:
        out = dict(header)
        out["mode"] = _INBOUND
        return self._pop_waypoint(at, out)

    def _pop_waypoint(self, at: int, header: Header) -> Header:
        out = dict(header)
        stack = list(out["stack"])
        if not stack:
            raise TableLookupError("return stack empty before reaching source")
        prev_id, label = stack.pop()
        out["stack"] = stack
        out["next_id"] = prev_id
        rev = label.reversed()
        out["label"] = rev
        out["phase"] = self.spanner.begin_hop(at, rev)
        return out

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def compile_tables(self, tables: str = "dense"):
        """Every hop between waypoints is one double-tree segment
        (:class:`~repro.runtime.engine.DoubleTreeStepTables` over the
        hierarchy's own tables); the planner resolves each pair's
        waypoint ladder — the ``_near`` shortcut, then up to ``k``
        passes over the prefix and final rows — with array lookups,
        and the acknowledgment replays the stack in reverse.  Header bits depend only on the stack depth.
        The tables are the same for both families, and the planner
        reads the scheme's own two at plan time; each hop's tree is the
        best-tree matrix's entry for its two waypoints (the tree of
        their ``R2`` label)."""
        from repro.runtime.engine import (
            CompiledRoutes,
            DoubleTreeStepTables,
            JourneyPlan,
            Segment,
            constant_bits,
        )
        from repro.runtime.sizing import header_bits
        from repro.rtz.spanner import UP
        from repro.tree_routing.fixed_port import TreeAddress

        hierarchy = self.spanner.hierarchy
        hierarchy.best_tree_indices()  # built now, read at plan time
        # the planner holds the tables, not the scheme (no cycle through
        # the compiled-routes cache)
        near, rows = self._near, self._rows
        n, k, q = self.graph.n, self.k, self.blocks.q
        width = q ** k
        names = np.array(
            [self.name_of(v) for v in range(n)], dtype=np.int64
        )

        label = R2Label(0, TreeAddress(0, 0), TreeAddress(0, 0))

        def bits(mode: str, depth: int) -> int:
            return header_bits({
                "mode": mode, "dest": 0, "src_id": 0, "hop": 0,
                "stack": [(0, label)] * depth, "next_id": 0,
                "label": label, "phase": UP,
            }, n)

        b_fresh = header_bits(self.new_packet_header(0), n)
        b_out = [bits(_OUTBOUND, d) for d in range(k + 1)]
        b_ret = np.array([bits(RETURN_PACKET, d) for d in range(k + 1)])
        b_in = np.array([bits(_INBOUND, d) for d in range(k + 1)])

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            if (sources == dests).any():
                raise TableLookupError("packet injected at its own destination")
            # way[p, j] is waypoint v_j (v_0 = s); hop_tree[p, j] the
            # tree of the hop v_j -> v_{j+1}; depth[p] the stack depth.
            way = np.full((batch, k + 1), -1, dtype=np.int64)
            way[:, 0] = sources
            hop_tree = np.full((batch, k), -1, dtype=np.int64)
            depth = np.zeros(batch, dtype=np.int64)
            best = hierarchy.best_tree_indices()
            shortcut = near[sources, names[dests]]
            hit = shortcut >= 0
            way[hit, 1] = shortcut[hit]
            hop_tree[hit, 0] = best[sources[hit], shortcut[hit]]
            depth[hit] = 1
            live = np.flatnonzero(~hit)
            for hop in range(1, k + 1):
                if not live.shape[0]:
                    break
                at = way[live, depth[live]]
                t = dests[live]
                col = (hop - 1) * width + names[t] // q ** (k - hop)
                nxt = rows[at, col]
                if (nxt < 0).any():
                    bad = int(np.flatnonzero(nxt < 0)[0])
                    raise TableLookupError(
                        f"row for name {int(names[t[bad]])} at hop {hop} "
                        f"missing at {int(at[bad])}"
                    )
                # A self-waypoint adds no segment; reaching t delivers.
                move = nxt != at
                m = live[move]
                way[m, depth[m] + 1] = nxt[move]
                hop_tree[m, depth[m]] = best[at[move], nxt[move]]
                depth[m] += 1
                live = live[~(move & (nxt == t))]
            if (hop_tree[way[:, 1:] >= 0] < 0).any():
                p, j = np.argwhere((way[:, 1:] >= 0) & (hop_tree < 0))[0]
                raise ConstructionError(
                    f"no double tree contains both {way[p, j]} and "
                    f"{way[p, j + 1]}; hierarchy is broken"
                )
            outbound = [
                Segment(way[:, j + 1], constant_bits(b_out[j + 1], batch),
                        tree=hop_tree[:, j])
                for j in range(k)
            ]
            # The acknowledgment pops the stack: segment i returns to
            # v_j, j = depth - 1 - i, in the tree of hop v_j -> v_{j+1}.
            inbound = []
            pidx = np.arange(batch)
            for i in range(k):
                j = depth - 1 - i
                jj = np.maximum(j, 0)
                inbound.append(Segment(
                    np.where(j >= 0, way[pidx, jj], -1), b_in[jj],
                    tree=hop_tree[pidx, jj],
                ))
            return JourneyPlan(
                legs=[outbound, inbound],
                leg_init_bits=[constant_bits(b_fresh, batch), b_ret[depth]],
                # forward() delivers the acknowledgment whenever it
                # stands on the source, whatever is left on the stack.
                ends_on_arrival=[False, True],
            )

        return CompiledRoutes(
            self.graph, DoubleTreeStepTables(hierarchy.tables), planner,
            family=tables,
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count_table_items(self) -> Dict[str, np.ndarray]:
        n = self._metric.n
        owner, col = np.divmod(self._rows.keys, self._rows.n)
        final = col >= (self.k - 1) * self.blocks.q ** self.k
        return {
            "(1) Tab / tree state": self.spanner.hierarchy.table_entry_counts(),
            "(2) N_1 handshakes": np.bincount(
                self._near.keys // n, minlength=n
            ),
            "(3a) prefix rows": np.bincount(owner[~final], minlength=n),
            "(3b) final rows": np.bincount(owner[final], minlength=n),
        }


@register_scheme(
    "exstretch",
    summary="Section 3 exponential tradeoff: (2^k - 1)(8k - 3) stretch, "
    "~n^(1/k) tables",
    params=(
        ParamSpec("k", int, 2, "tradeoff parameter (k >= 2)"),
        ParamSpec("blocks_per_node", int, None,
                  "dictionary sampling budget override"),
    ),
    stretch_bound=lambda s: s.stretch_bound(),
    bound_text="(2^k - 1)(8k - 3)",
)
def _build_exstretch(net, rng, k=2, blocks_per_node=None):
    return ExStretchScheme(
        net.metric(),
        net.naming(),
        k=k,
        rng=rng,
        spanner=net.spanner(k),
        blocks_per_node=blocks_per_node,
    )
