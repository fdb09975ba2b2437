"""The routing-scheme interface (Section 1.1.1).

A roundtrip routing scheme must specify (1) per-node tables, (2) a
forwarding function ``F(table(x), header(P))`` returning the outgoing
port and the new header.  :class:`RoutingScheme` captures exactly that
contract; the simulator in :mod:`repro.runtime.simulator` executes it
hop by hop, giving schemes no access to anything but the current
vertex's table and the packet header.

Headers are plain dicts of named fields (sized by
:mod:`repro.runtime.sizing`).  Two fields are universal, following the
paper's pseudocode (Figs. 3, 6, 11):

* ``"mode"`` — ``NEW_PACKET`` when first injected at the source,
  ``RETURN_PACKET`` set by the *destination host* when it emits the
  acknowledgment; schemes rewrite it to their internal modes
  (Outbound/Inbound/Enroute/...).
* ``"dest"`` — the topology-independent destination *name*; the only
  topological hint a fresh packet carries is nothing at all.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.graph.digraph import Digraph

#: header mode constants shared across schemes
NEW_PACKET = "new"
RETURN_PACKET = "ret"

Header = Dict[str, object]


@dataclass(frozen=True)
class Forward:
    """Forwarding decision: send on ``port`` with ``header``."""

    port: int
    header: Header


@dataclass(frozen=True)
class Deliver:
    """Forwarding decision: hand the packet to the local host."""

    header: Header


Decision = Union[Forward, Deliver]


class RoutingScheme(abc.ABC):
    """A compact roundtrip routing scheme over a fixed graph + naming.

    Subclasses build all tables in ``__init__`` (centralized
    preprocessing, as the paper allows) and expose the local forwarding
    function plus table-size accounting.
    """

    #: short scheme identifier used in experiment tables
    name: str = "abstract"

    @property
    @abc.abstractmethod
    def graph(self) -> Digraph:
        """The underlying digraph."""

    @abc.abstractmethod
    def name_of(self, vertex: int) -> int:
        """The adversarial name of ``vertex`` (naming is part of the
        instance a scheme is built for)."""

    @abc.abstractmethod
    def vertex_of(self, name: int) -> int:
        """Inverse of :meth:`name_of` (preprocessing-time only)."""

    def new_packet_header(self, dest_name: int) -> Header:
        """The header a fresh packet arrives with: destination name
        only (TINN model)."""
        return {"mode": NEW_PACKET, "dest": dest_name}

    def make_return_header(self, header: Header) -> Header:
        """Header of the acknowledgment the destination host emits.

        Per the paper: "When a reply packet is sent, Mode is set to
        ReturnPacket before the routing algorithm receives it"; learned
        topological information stays in the header.
        """
        out = dict(header)
        out["mode"] = RETURN_PACKET
        return out

    @abc.abstractmethod
    def forward(self, at: int, header: Header) -> Decision:
        """The local forwarding function ``F(table(at), header)``.

        Args:
            at: the vertex currently holding the packet.
            header: the packet header (never mutated; return a new one).

        Returns:
            :class:`Forward` or :class:`Deliver`.
        """

    # ------------------------------------------------------------------
    # compiled execution (the batched fast path)
    # ------------------------------------------------------------------
    def compile_tables(self):
        """Compile this scheme's forwarding function into vectorized
        decision tables.

        Returns a :class:`repro.runtime.engine.CompiledRoutes` when the
        scheme's header changes only at segment boundaries (see
        :mod:`repro.runtime.engine`); every registered scheme does.
        The default returns ``None``: such a scheme runs on the
        hop-by-hop Python simulator, and an explicit
        ``engine="vectorized"`` request is refused.
        """
        return None

    def compiled_routes(self):
        """Cached :meth:`compile_tables` result (``None`` means "not
        compilable"): compiled once per scheme instance."""
        if "_compiled_routes" not in self.__dict__:
            self._compiled_routes = self.compile_tables()
        return self._compiled_routes

    # ------------------------------------------------------------------
    # table accounting
    # ------------------------------------------------------------------
    def table_items(self) -> Optional[Dict[str, np.ndarray]]:
        """The scheme's storage items (the paper's numbered per-node
        tables) as ``(n,)`` entry-count arrays keyed by item name, in
        the paper's order; ``None`` when the scheme does not itemize its
        storage.  Counted once, on first use, from the tables
        themselves (:meth:`_count_table_items`)."""
        cache = self.__dict__
        if "_table_items" not in cache:
            cache["_table_items"] = self._count_table_items()
        return cache["_table_items"]

    def _count_table_items(self) -> Optional[Dict[str, np.ndarray]]:
        """Count :meth:`table_items` (itemizing schemes override)."""
        return None

    def table_entries(self, vertex: int) -> int:
        """Number of stored table rows at ``vertex`` (identifier-sized
        fields are counted by :meth:`table_bits`): the sum of
        :meth:`table_items` there.  Schemes that do not itemize their
        storage override this.

        Raises:
            NotImplementedError: for a scheme that does neither.
        """
        items = self.table_items()
        if items is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not count its table entries"
            )
        return sum(int(counts[vertex]) for counts in items.values())

    def table_bits(self, vertex: int) -> int:
        """Approximate bit size of the local table; default charges two
        identifier fields per entry."""
        from repro.runtime.sizing import entries_to_bits

        return entries_to_bits(self.table_entries(vertex), self.graph.n)

    def max_table_entries(self) -> int:
        """Max table rows over all vertices."""
        return max(self.table_entries(v) for v in self.graph.vertices())

    def mean_table_entries(self) -> float:
        """Mean table rows over all vertices."""
        total = sum(self.table_entries(v) for v in self.graph.vertices())
        return total / self.graph.n
