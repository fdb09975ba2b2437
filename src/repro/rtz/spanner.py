"""The handshake spanner — the Lemma 5 substrate with ``R2`` labels.

Sections 3.3 and 4 route between consecutive waypoints using
``R2(u, v)``: "the name of the most convenient double tree ``T``
containing both ``u`` and ``v``, plus the topology-dependent addresses
of ``u`` and ``v`` within ``T``".  We build the double trees with the
paper's own Theorem 13 cover hierarchy (the paper argues in §4.4 this
cover is *stronger* than the one in [35]); DESIGN.md records the
resulting worst-case per-hop roundtrip stretch ``8k - 3`` versus the
original ``2k + eps``.

A hop ``u -> v`` inside tree ``T`` goes up ``u``'s in-pointers to the
root and down the out-tree to ``v``'s address; the return hop reuses
the same label in the opposite orientation.  Both orientations cost at
most ``r(u, root) + r(root, v)`` together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.covers.double_tree import DoubleTree
from repro.covers.hierarchy import TreeHierarchy
from repro.exceptions import TableLookupError
from repro.graph.roundtrip import RoundtripMetric
from repro.tree_routing.fixed_port import TreeAddress, id_bits

#: hop-forwarding phases
UP = "hup"
DOWN = "hdn"


@dataclass(frozen=True)
class R2Label:
    """Handshake routing information for one ordered pair ``(u, v)``.

    Attributes:
        tree_id: the chosen double tree (global id across levels).
        addr_from: ``u``'s out-tree address (used by the return hop).
        addr_to: ``v``'s out-tree address (used by the forward hop).
    """

    tree_id: int
    addr_from: TreeAddress
    addr_to: TreeAddress

    def header_bits(self, n: int) -> int:
        """Encoded size: a tree name plus two tree addresses —
        the paper's ``o(log^2 n)`` handshake."""
        return 2 * id_bits(n) + self.addr_from.bit_size(n) + self.addr_to.bit_size(n)

    def reversed(self) -> "R2Label":
        """The same handshake oriented for the return hop."""
        return R2Label(self.tree_id, self.addr_to, self.addr_from)


class HandshakeSpanner:
    """The Lemma 5 substrate: double-tree hierarchy + ``R2`` lookups.

    Args:
        metric: roundtrip metric.
        k: the tradeoff parameter of the underlying Theorem 13 covers.
        hierarchy: optionally share a pre-built hierarchy.
    """

    def __init__(
        self,
        metric: RoundtripMetric,
        k: int,
        hierarchy: Optional[TreeHierarchy] = None,
    ):
        self._metric = metric
        self.hierarchy = hierarchy or TreeHierarchy(metric, k)

    # ------------------------------------------------------------------
    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric."""
        return self._metric

    @property
    def k(self) -> int:
        """The cover parameter."""
        return self.hierarchy.k

    def r2(self, u: int, v: int) -> R2Label:
        """``R2(u, v)``: the tree is the best-tree matrix's entry
        (:meth:`~repro.covers.hierarchy.TreeHierarchy.best_tree_indices`),
        the addresses its DFS numbers.  The TINN schemes store the
        vertex ``v`` of each dictionary row and derive its handshake
        here."""
        tree_id = self.hierarchy.best_tree_for_pair(u, v).tree_id
        address_of = self.hierarchy.tables.address_of
        return R2Label(tree_id, address_of(tree_id, u), address_of(tree_id, v))

    def tree_of(self, label: R2Label) -> DoubleTree:
        """The double tree a label routes in."""
        return self.hierarchy.tree_by_id(label.tree_id)

    # ------------------------------------------------------------------
    # hop forwarding (pure local decisions)
    # ------------------------------------------------------------------
    def begin_hop(self, at: int, label: R2Label) -> str:
        """Phase at the first vertex of a hop toward ``addr_to``."""
        tree = self.tree_of(label)
        if at == tree.root:
            return DOWN
        return UP

    def hop_step(
        self, at: int, label: R2Label, phase: str
    ) -> Tuple[Optional[int], str]:
        """One forwarding decision of a hop toward ``label.addr_to``:
        the hierarchy's one tree step
        (:meth:`~repro.covers.double_tree.DoubleTreeTables.next_port`)
        under this scheme's phase names.

        Returns:
            ``(port, next_phase)`` with ``port`` ``None`` at arrival.
        """
        if phase not in (UP, DOWN):
            raise TableLookupError(f"unknown hop phase {phase!r}")
        port, up = self.hierarchy.tables.next_port(
            at, label.tree_id, label.addr_to, phase == UP
        )
        return port, UP if up else DOWN

    def route_hop(self, x: int, y: int) -> List[int]:
        """Drive a full hop ``x -> y`` (analysis helper)."""
        label = self.r2(x, y)
        return self._drive(x, label)

    def route_hop_back(self, y: int, label: R2Label) -> List[int]:
        """Drive the return hop using the stored handshake."""
        return self._drive(y, label.reversed())

    def _drive(self, start: int, label: R2Label) -> List[int]:
        g = self._metric.oracle.graph
        phase = self.begin_hop(start, label)
        at = start
        path = [at]
        for _ in range(4 * g.n + 8):
            port, phase = self.hop_step(at, label, phase)
            if port is None:
                return path
            at = g.head_of_port(at, port)
            path.append(at)
        raise TableLookupError("hop failed to terminate")

    # ------------------------------------------------------------------
    # bounds / accounting
    # ------------------------------------------------------------------
    def hop_roundtrip_bound(self, u: int, v: int) -> float:
        """Worst-case roundtrip cost of hop + return hop via the chosen
        tree (Theorem 13 shape; see DESIGN.md substitution note)."""
        return self.hierarchy.spanner_hop_bound(u, v)

    def table_entries(self, v: int) -> int:
        """Tree-state rows charged to ``v`` across the hierarchy."""
        return self.hierarchy.table_entries_at(v)
