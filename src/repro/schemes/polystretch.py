"""The PolynomialStretch TINN scheme (Section 4, Figs. 9-11).

The polynomial space/stretch tradeoff: route inside increasingly tall
home double-trees, prefix-matching the destination name within each
tree through the tree's center, until a level is reached whose home
tree contains the destination; stretch is at most ``8k^2 + 4k - 4``.

Per-node storage (Section 4.1), at node ``u``, for every level and
every double tree ``C`` containing ``u``:

* an identifier of ``u``'s home double-tree per level;
* ``TreeTab(C, u)`` and ``TreeR(C, u)`` (tree-routing state: accounted
  through the hierarchy) and the first link toward ``RTCenter(C)``;
* for every position ``j < k`` and digit ``tau``: ``TreeR(C, v)`` for
  the nearest ``v`` in ``C`` with ``prefix_j(v) == prefix_j(u)`` and
  digit ``j+1`` equal to ``tau``, if such a ``v`` exists.

Routing (Fig. 11): at the current node ``c`` with match length ``h``
against the destination name, the usable dictionary row is
``(h, digit_{h+1}(t))`` — it names a node matching at least ``h + 1``
digits.  A missing row means the destination is not in this tree:
the packet returns to the source and the search restarts one level up
(the level doubling that caps total cost at twice the last level's).

The scheme holds the home-tree ids as one ``(n, levels)`` array and the
dictionary rows as one sorted-key table of vertices; both engines read
them, and each row's tree address is derived from the vertex found.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

import numpy as np

from repro.api.registry import ParamSpec, register_scheme
from repro.covers.hierarchy import TreeHierarchy
from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.csr import PairTable
from repro.graph.digraph import Digraph
from repro.graph.roundtrip import RoundtripMetric
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
from repro.tree_routing.fixed_port import TreeAddress

#: internal modes (Fig. 11 uses a single Enroute mode; we keep the
#: outbound/inbound distinction only for the acknowledgment leg)
_ENROUTE = "pse"
_INBOUND = "psi"

#: hop phases within a double tree
_UP = "pu"
_DOWN = "pd"

#: (member, candidate) pairs per block of the dictionary-row build
_CANDIDATE_BLOCK = 1 << 18


class PolynomialStretchScheme(RoutingScheme):
    """Section 4's polynomial-tradeoff TINN roundtrip scheme.

    Args:
        metric: roundtrip metric.
        naming: adversarial node naming.
        k: tradeoff parameter (``k >= 2``).
        rng: reserved for interface symmetry (construction is
            deterministic given the hierarchy).
        hierarchy: optionally share a pre-built :class:`TreeHierarchy`.
    """

    name = "polystretch (TINN)"

    def __init__(
        self,
        metric: RoundtripMetric,
        naming: Naming,
        k: int = 2,
        rng: Optional[random.Random] = None,
        hierarchy: Optional[TreeHierarchy] = None,
    ):
        if k < 2:
            raise ConstructionError(
                f"PolynomialStretch requires k >= 2, got {k}"
            )
        n = metric.n
        self._metric = metric
        self._naming = naming
        self.k = k
        self.blocks = BlockSpace(n, k)
        self.hierarchy = hierarchy or TreeHierarchy(metric, k)

        # Home-tree ids per (vertex, level).
        self._home_id = np.array(
            [
                [
                    self.hierarchy.home_tree(v, level).tree_id
                    for level in range(self.hierarchy.num_levels)
                ]
                for v in range(n)
            ],
            dtype=np.int64,
        )
        # The dictionary rows of every tree: rows[tree_id * n + u,
        # j * q + tau] is the nearest matching member.
        self._rows = self._index_rows()

    def _index_rows(self) -> PairTable:
        """Every tree's (j, tau) dictionary rows, by array work per tree.

        Row ``(j, tau)`` of member ``u`` is the member ``v != u`` first
        in ``Init_u`` order (:meth:`RoundtripMetric.nearest`: least
        ``(r(u, v), d(v, u), id(v))``) among the group of members whose
        name shares ``u``'s first ``j`` digits and has digit ``tau``
        next.  Per tree and position ``j``, the members are ordered by
        their first ``j + 1`` digits, so each group is a run of columns
        and one ``minimum.reduceat`` per key takes every row's
        lexicographic minimum in every group at once.  Members are
        taken a block of rows at a time, so the ``(block, members)``
        arrays stay small in big trees.
        """
        n, k, q = self._metric.n, self.k, self.blocks.q
        oracle = self._metric.oracle
        r, d_to = oracle.r_matrix, oracle.d_matrix.T  # d_to[u, v] = d(v, u)
        ids = np.asarray(self._metric.ids, dtype=np.int64)
        by_id, no_id = np.argsort(ids, kind="stable"), ids.max() + 1
        names = np.array(
            [self._naming.name_of(v) for v in range(n)], dtype=np.int64
        )
        keys, found = [names[:0]], [names[:0]]
        for cov in self.hierarchy.levels:
            for tree in cov.trees:
                cand = np.array(tree.members, dtype=np.int64)
                m = cand.shape[0]
                if m < 2:
                    continue
                step = max(1, _CANDIDATE_BLOCK // m)
                for j in range(k):
                    # the groups: members by their first j + 1 digits
                    prefix = names[cand] // q ** (k - 1 - j)
                    order = np.argsort(prefix, kind="stable")
                    col = cand[order]
                    group, starts = np.unique(prefix[order], return_index=True)
                    sizes = np.diff(np.append(starts, m))
                    for lo in range(0, m, step):
                        u = cand[lo:lo + step, None]
                        # u is no candidate of its own rows
                        rr = np.where(col == u, np.inf, r[u, col])
                        dd = d_to[u, col]
                        least_r = np.minimum.reduceat(rr, starts, axis=1)
                        best = rr == np.repeat(least_r, sizes, axis=1)
                        least_d = np.minimum.reduceat(
                            np.where(best, dd, np.inf), starts, axis=1
                        )
                        best &= dd == np.repeat(least_d, sizes, axis=1)
                        least_id = np.minimum.reduceat(
                            np.where(best, ids[col], no_id), starts, axis=1
                        )
                        # a row exists where the group holds a member
                        # other than u and extends u's first j digits
                        ok = np.isfinite(least_r)
                        if j:
                            ok &= group // q == names[u] // q ** (k - j)
                        node = (tree.tree_id * n + u) * (k * q) + j * q
                        keys.append((node + group % q)[ok])
                        found.append(by_id[
                            np.searchsorted(ids, least_id[ok], sorter=by_id)
                        ])
        return PairTable.from_entries(
            k * q, np.concatenate(keys), np.concatenate(found)
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
        """Section 4.3's bound ``8k^2 + 4k - 4``."""
        return 8.0 * self.k * self.k + 4.0 * self.k - 4.0

    # ------------------------------------------------------------------
    # NextNode (Section 4.2, packet-time legal)
    # ------------------------------------------------------------------
    def _next_node(
        self, c: int, tree_id: int, dest_name: int
    ) -> Optional[Tuple[int, TreeAddress]]:
        """The next waypoint from ``c`` inside tree ``tree_id``, or
        ``None`` when the tree lacks a longer-prefix match (failure:
        return to source and climb a level)."""
        h = self.blocks.match_length(self._naming.name_of(c), dest_name)
        tau = self.blocks.digits(dest_name)[h]
        v = self._rows.get(tree_id * self._metric.n + c, h * self.blocks.q + tau)
        if v < 0:
            return None
        return v, self.hierarchy.tables.address_of(tree_id, v)

    # ------------------------------------------------------------------
    # forwarding (Fig. 11)
    # ------------------------------------------------------------------
    def forward(self, at: int, header: Header) -> Decision:
        mode = header["mode"]
        if mode == NEW_PACKET:
            if self.name_of(at) == header["dest"]:
                raise TableLookupError("packet injected at its own destination")
            header = self._start_level(at, header["dest"], level=0)
        elif mode == RETURN_PACKET:
            header = self._start_return(at, header)

        # Deliver only when the destination is the current waypoint:
        # walking over it as tree infrastructure mid-hop must not
        # deliver, or the acknowledgment would start inside a tree
        # where the destination holds no routing state.
        if (
            header["mode"] == _ENROUTE
            and self.name_of(at) == header["dest"]
            and at == header["next_id"]
        ):
            return Deliver(header)
        if header["mode"] == _INBOUND and at == header["src_id"]:
            return Deliver(header)

        if at == header["next_id"]:
            # Waypoint reached without being the endpoint: pick the next
            # waypoint in this tree, fail upward, or (inbound) done.
            if header["mode"] == _INBOUND:
                raise TableLookupError(
                    "inbound packet stalled before the source"
                )
            if at == header["src_id"] and header["returning"]:
                # Failed search came home: climb one level.
                header = self._start_level(
                    at, header["dest"], header["level"] + 1
                )
            else:
                header = self._advance(at, header)

        # one in-tree decision: up to the center, then down the out-tree
        if header["phase"] not in (_UP, _DOWN):
            raise TableLookupError(f"unknown tree phase {header['phase']!r}")
        port, up = self.hierarchy.tables.next_port(
            at, header["tree_id"], header["next_addr"], header["phase"] == _UP
        )
        if port is None:
            return self.forward(at, header)
        out = dict(header)
        out["phase"] = _UP if up else _DOWN
        return Forward(port, out)

    def _start_level(self, src: int, dest_name: int, level: int) -> Header:
        """Begin (or restart) the search at ``level``."""
        if level >= self.hierarchy.num_levels:
            raise TableLookupError(
                "search exhausted all levels; hierarchy is broken"
            )
        tree_id = self._home_id.item(src, level)
        src_addr = self.hierarchy.tables.address_of(tree_id, src)
        header: Header = {
            "mode": _ENROUTE,
            "dest": dest_name,
            "src_id": src,
            "src_addr": src_addr,
            "level": level,
            "tree_id": tree_id,
            "returning": False,
            "next_id": src,
            "next_addr": src_addr,
            "phase": _UP,
        }
        return self._advance(src, header)

    def _advance(self, at: int, header: Header) -> Header:
        """At a waypoint: aim at the next prefix-matching node, or turn
        back to the source on failure."""
        out = dict(header)
        entry = self._next_node(at, out["tree_id"], out["dest"])
        if entry is None:
            # Failure in this tree: return to the source (footnote 6).
            out["returning"] = True
            out["next_id"] = out["src_id"]
            out["next_addr"] = out["src_addr"]
            out["phase"] = _UP
            return out
        nxt, addr = entry
        out["returning"] = False
        out["next_id"] = nxt
        out["next_addr"] = addr
        out["phase"] = _UP
        return out

    def _start_return(self, at: int, header: Header) -> Header:
        """The acknowledgment: one extra trip through the center back
        to the source, inside the tree that succeeded (Fig. 10)."""
        out = dict(header)
        out["mode"] = _INBOUND
        out["next_id"] = out["src_id"]
        out["next_addr"] = out["src_addr"]
        out["phase"] = _UP
        return out

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def compile_tables(self, tables: str = "dense"):
        """Every hop between waypoints is one double-tree segment
        (:class:`~repro.runtime.engine.DoubleTreeStepTables` over the
        hierarchy's own tables).  The planner runs Fig. 11's search
        with array lookups: per level, at most ``k + 1`` passes over
        the rows keyed (tree, node, h, tau); a miss sends the packet
        back to the source in the same tree and climbs one level.  The
        acknowledgment is one segment back to the source in the tree
        that succeeded.  Every forwarded header has the same bit size,
        and the tables are the same for both families.  The planner
        reads the scheme's home-tree ids and dictionary rows at plan
        time."""
        from repro.runtime.engine import (
            CompiledRoutes,
            DoubleTreeStepTables,
            JourneyPlan,
            Segment,
            constant_bits,
        )
        from repro.runtime.sizing import header_bits

        trees = self.hierarchy.tables
        n, k, q = self.graph.n, self.k, self.blocks.q
        names = np.array([self.name_of(v) for v in range(n)], dtype=np.int64)
        digits = (names[:, None] // q ** np.arange(k - 1, -1, -1)) % q
        # the planner holds the tables, not the scheme (no cycle through
        # the compiled-routes cache)
        home_id, rows = self._home_id, self._rows

        addr = TreeAddress(0, 0)
        enroute = {
            "mode": _ENROUTE, "dest": 0, "src_id": 0, "src_addr": addr,
            "level": 0, "tree_id": 0, "returning": False, "next_id": 0,
            "next_addr": addr, "phase": _UP,
        }
        inbound = dict(enroute, mode=_INBOUND)
        b_fresh = header_bits(self.new_packet_header(0), n)
        b_fwd = header_bits(enroute, n)
        b_ret = header_bits(self.make_return_header(enroute), n)
        b_in = header_bits(inbound, n)

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            if (sources == dests).any():
                raise TableLookupError("packet injected at its own destination")
            segments = []
            found_in = np.full(batch, -1, dtype=np.int64)
            for level in range(home_id.shape[1]):
                live = np.flatnonzero(found_in < 0)
                if not live.shape[0]:
                    break
                tree_id = home_id[sources, level]
                tree = np.searchsorted(trees.tree_ids, tree_id)
                at = sources.copy()
                for _pass in range(k + 1):
                    if not live.shape[0]:
                        break
                    c, t = at[live], dests[live]
                    h = np.cumprod(digits[c] == digits[t], axis=1).sum(axis=1)
                    tau = digits[t, h]  # h < k: c is not t
                    v = rows[tree_id[live] * n + c, h * q + tau]
                    hit = v >= 0
                    # A miss away from the source returns to it (a
                    # miss at the source climbs without moving).
                    back = ~hit & (c != sources[live])
                    target = np.full(batch, -1, dtype=np.int64)
                    target[live[hit]] = v[hit]
                    target[live[back]] = sources[live[back]]
                    if hit.any() or back.any():
                        segments.append(Segment(
                            target, constant_bits(b_fwd, batch), tree=tree
                        ))
                    at[live[hit]] = v[hit]
                    done = live[hit][v[hit] == t[hit]]
                    found_in[done] = tree[done]
                    live = live[hit & (v != t)]
            if (found_in < 0).any():
                raise TableLookupError(
                    "search exhausted all levels; hierarchy is broken"
                )
            return JourneyPlan(
                legs=[
                    segments,
                    [Segment(sources.copy(), constant_bits(b_in, batch),
                             tree=found_in)],
                ],
                leg_init_bits=[
                    constant_bits(b_fresh, batch),
                    constant_bits(b_ret, batch),
                ],
            )

        return CompiledRoutes(
            self.graph, DoubleTreeStepTables(trees), planner, family=tables
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count_table_items(self) -> Dict[str, np.ndarray]:
        n = self._metric.n
        owner = self._rows.keys // self._rows.n % n
        return {
            "(1) home-tree ids": np.count_nonzero(self._home_id >= 0, axis=1),
            "(2) tree state": self.hierarchy.table_entry_counts(),
            "(2c) dictionary rows": np.bincount(owner, minlength=n),
        }


@register_scheme(
    "polystretch",
    summary="Section 4 polynomial tradeoff: 8k^2 + 4k - 4 stretch via "
    "level-doubling home-tree search",
    params=(ParamSpec("k", int, 2, "tradeoff parameter (k >= 2)"),),
    stretch_bound=lambda s: s.stretch_bound(),
    bound_text="8k^2 + 4k - 4",
)
def _build_polystretch(net, rng, k=2):
    return PolynomialStretchScheme(
        net.metric(), net.naming(), k=k, rng=rng, hierarchy=net.hierarchy(k)
    )
