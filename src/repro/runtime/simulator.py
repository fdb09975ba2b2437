"""Hop-by-hop network simulator.

Executes a :class:`~repro.runtime.scheme.RoutingScheme`'s forwarding
function exactly as the network would: the packet sits at a vertex, the
local algorithm sees only (local table, header) and returns a port; the
*network* (this simulator) moves the packet along that port.  The
simulator also:

* accounts path cost (sum of edge weights) and hop count,
* tracks the maximum header size in bits across the journey,
* enforces a hop budget, raising :class:`HopLimitExceeded` on loops,
* runs the full roundtrip protocol: outbound delivery at the
  destination host, acknowledgment emission, inbound delivery at the
  source host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import HopLimitExceeded, RoutingError
from repro.runtime.scheme import Deliver, Forward, Header, RoutingScheme
from repro.runtime.sizing import header_bits

#: engine names understood by the batched entry points (resolved by
#: :meth:`Simulator.resolve_engine`; also re-exported by
#: :mod:`repro.runtime.engine`)
EXECUTION_ENGINES = ("auto", "vectorized", "python")


@dataclass
class LegTrace:
    """One direction of a journey.

    Attributes:
        path: vertices visited, inclusive of both endpoints.
        cost: total edge weight traversed.
        max_header_bits: largest header observed on this leg.
    """

    path: List[int]
    cost: float
    max_header_bits: int

    @property
    def hops(self) -> int:
        """Edge count of the leg."""
        return len(self.path) - 1


class RoundtripTrace:
    """Result of a full roundtrip ``s -> t -> s``.

    A trace is either eager, holding both legs from construction (the
    python engine), or backed by its batch (the vectorized engine): its
    legs are built from the batch's sweep log on first read, and its
    totals are read from the batch's columns without building them.

    Attributes:
        outbound: the forward leg trace.
        inbound: the acknowledgment leg trace.
    """

    __slots__ = ("_legs", "_batch", "_index")

    def __init__(self, outbound: LegTrace, inbound: LegTrace):
        self._legs: Optional[Tuple[LegTrace, LegTrace]] = (outbound, inbound)
        self._batch = None
        self._index = -1

    @classmethod
    def in_batch(cls, batch, index: int) -> "RoundtripTrace":
        """The ``index``-th trace of ``batch``: an object with ``cost``,
        ``hops`` and ``max_header_bits`` array columns (of the values
        :attr:`total_cost`, :attr:`total_hops` and
        :attr:`max_header_bits` return, as Python numbers) and a
        thread-safe ``legs(index)`` that returns the same ``(outbound,
        inbound)`` pair on every call."""
        trace = cls.__new__(cls)
        trace._legs = None
        trace._batch = batch
        trace._index = index
        return trace

    def _read_legs(self) -> Tuple[LegTrace, LegTrace]:
        legs = self._legs
        if legs is None:
            legs = self._legs = self._batch.legs(self._index)
        return legs

    @property
    def outbound(self) -> LegTrace:
        """The forward leg trace."""
        return self._read_legs()[0]

    @property
    def inbound(self) -> LegTrace:
        """The acknowledgment leg trace."""
        return self._read_legs()[1]

    @property
    def total_cost(self) -> float:
        """Roundtrip path cost (outbound plus inbound)."""
        if self._batch is not None:
            return self._batch.cost[self._index].item()
        return self.outbound.cost + self.inbound.cost

    @property
    def total_hops(self) -> int:
        """Roundtrip hop count."""
        if self._batch is not None:
            return self._batch.hops[self._index].item()
        return self.outbound.hops + self.inbound.hops

    @property
    def max_header_bits(self) -> int:
        """Largest header observed anywhere in the journey."""
        if self._batch is not None:
            return self._batch.max_header_bits[self._index].item()
        return max(self.outbound.max_header_bits, self.inbound.max_header_bits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._read_legs() == other._read_legs()

    __hash__ = None  # mutable legs, as for the dataclass it replaces

    def __repr__(self) -> str:
        out, back = self._read_legs()
        return f"RoundtripTrace(outbound={out!r}, inbound={back!r})"

    def __reduce__(self):
        # copies and pickles are eager: the batch holds a lock
        return (RoundtripTrace, self._read_legs())


class TraceBatch(list):
    """One batch's traces in input order, with each pair's numbers as
    array columns: float64 ``cost`` and int64 ``hops`` and
    ``max_header_bits``, whose ``[i]`` equal trace ``i``'s
    :attr:`~RoundtripTrace.total_cost`,
    :attr:`~RoundtripTrace.total_hops` and
    :attr:`~RoundtripTrace.max_header_bits`.  Consumers that need only
    the numbers read the columns and never touch a path."""

    __slots__ = ("cost", "hops", "max_header_bits")

    def __init__(
        self,
        traces: Iterable[RoundtripTrace] = (),
        columns: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ):
        super().__init__(traces)
        if columns is None:
            columns = (
                np.array([t.total_cost for t in self], dtype=np.float64),
                np.array([t.total_hops for t in self], dtype=np.int64),
                np.array([t.max_header_bits for t in self], dtype=np.int64),
            )
        self.cost, self.hops, self.max_header_bits = columns


class Simulator:
    """Executes packets against a scheme.

    Args:
        scheme: the routing scheme under test.
        hop_limit: per-leg hop budget; ``None`` (the default) means
            ``8 * n + 64``, far above any correct scheme's needs but
            small enough to catch loops quickly.  ``0`` allows no hop.

    Raises:
        RoutingError: for a negative ``hop_limit``.
    """

    def __init__(self, scheme: RoutingScheme, hop_limit: Optional[int] = None):
        if hop_limit is not None and hop_limit < 0:
            raise RoutingError(f"hop_limit must be >= 0, got {hop_limit}")
        self._scheme = scheme
        self._g = scheme.graph
        self._hop_limit = (
            8 * self._g.n + 64 if hop_limit is None else hop_limit
        )

    def _run_leg(
        self, start: int, header: Header, expect_end: int
    ) -> Tuple[LegTrace, Header]:
        """Drive the packet until delivery; return the trace and the
        header as delivered (the host sees that header)."""
        at = start
        path = [at]
        cost = 0.0
        max_bits = header_bits(header, self._g.n)
        for _hop in range(self._hop_limit + 1):
            decision = self._scheme.forward(at, header)
            if isinstance(decision, Deliver):
                if at != expect_end:
                    raise RoutingError(
                        f"scheme {self._scheme.name} delivered at vertex "
                        f"{at}, expected {expect_end}"
                    )
                return LegTrace(path, cost, max_bits), decision.header
            if not isinstance(decision, Forward):
                raise RoutingError(
                    f"scheme returned {type(decision).__name__}, expected "
                    "Forward or Deliver"
                )
            nxt = self._g.head_of_port(at, decision.port)
            cost += self._g.weight(at, nxt)
            at = nxt
            path.append(at)
            header = decision.header
            max_bits = max(max_bits, header_bits(header, self._g.n))
        raise HopLimitExceeded(
            f"scheme {self._scheme.name} exceeded {self._hop_limit} hops "
            f"routing from {start} to {expect_end} (loop?)"
        )

    def one_way(self, source: int, dest_name: int) -> LegTrace:
        """Route a fresh packet ``source -> dest`` and stop at delivery
        (used for leg-level substrate experiments)."""
        dest_vertex = self._scheme.vertex_of(dest_name)
        header = self._scheme.new_packet_header(dest_name)
        trace, _final = self._run_leg(source, header, dest_vertex)
        return trace

    def roundtrip(self, source: int, dest_name: int) -> RoundtripTrace:
        """Run the full protocol: inject at ``source`` a packet for
        ``dest_name``; deliver; let the destination host emit the
        acknowledgment; deliver back at the source.

        Args:
            source: source *vertex* (where the packet enters the
                network).
            dest_name: destination *name* (all the packet knows).
        """
        dest_vertex = self._scheme.vertex_of(dest_name)
        header = self._scheme.new_packet_header(dest_name)
        outbound, delivered = self._run_leg(source, header, dest_vertex)
        # The destination host flips the packet around; learned routing
        # information stays in the header (Section 1.1.1).
        return_header = self._scheme.make_return_header(delivered)
        inbound, _final = self._run_leg(dest_vertex, return_header, source)
        return RoundtripTrace(outbound, inbound)

    def resolve_engine(self, engine: str = "auto") -> str:
        """The concrete engine a batched call would use.

        ``"auto"`` resolves to ``"vectorized"`` exactly when the scheme
        compiles (see
        :meth:`~repro.runtime.scheme.RoutingScheme.compile_tables`;
        every registered scheme does), ``"python"`` otherwise.

        Raises:
            RoutingError: for an unknown engine name, or for an
                explicit ``"vectorized"`` request on a scheme that does
                not compile.
        """
        if engine not in EXECUTION_ENGINES:
            raise RoutingError(
                f"unknown execution engine {engine!r}; choose from "
                f"{EXECUTION_ENGINES}"
            )
        if engine == "python":
            return "python"
        if self._scheme.compiled_routes() is not None:
            return "vectorized"
        if engine == "vectorized":
            raise RoutingError(
                f"scheme {self._scheme.name} does not support compiled "
                "vectorized execution (compile_tables() returned None); "
                "use engine='auto' or 'python'"
            )
        return "python"

    def roundtrip_many(
        self,
        pairs: Iterable[Tuple[int, int]],
        by_name: bool = False,
        engine: str = "auto",
    ) -> TraceBatch:
        """Run the full roundtrip protocol for a batch of pairs.

        This is the entry point for traffic workloads (see
        :mod:`repro.runtime.traffic`): one simulator instance amortizes
        scheme/graph lookups across the whole batch, and every journey
        is executed under the same hop budget.

        Args:
            pairs: ``(source, destination)`` pairs, or a ``(B, 2)``
                integer array of them (what
                :func:`~repro.runtime.traffic.check_pairs` returns; the
                vectorized engine reads it without converting it
                again).  Sources are always vertex ids.  Destinations
                are vertex ids by default (translated through the
                scheme's naming, matching how workload generators
                produce pairs); pass ``by_name=True`` when destinations
                already are names.
            engine: ``"vectorized"`` executes the batch as frontier
                sweeps over the scheme's compiled decision tables
                (:mod:`repro.runtime.engine`); ``"python"`` runs the
                hop-by-hop reference loop; ``"auto"`` (default) uses
                the vectorized engine whenever the scheme compiles.
                All engines produce bit-identical traces.

        Returns:
            A :class:`TraceBatch`: one :class:`RoundtripTrace` per
            pair, in input order, and the per-pair columns.  The
            vectorized engine builds the hop-by-hop paths only when
            some trace's legs are first read.

        Raises:
            RoutingError: propagated from any journey — batch
                measurement never hides a delivery bug — and for
                unsupported engine requests (see :meth:`resolve_engine`).
            HopLimitExceeded: when any journey exceeds the hop budget.
        """
        resolved = self.resolve_engine(engine)
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        elif by_name or resolved == "python":
            pairs = pairs.tolist()  # Python ints for the scalar paths
        if resolved == "vectorized":
            from repro.runtime.engine import run_roundtrips

            if by_name:
                vertex_of = self._scheme.vertex_of
                pairs = [(s, vertex_of(t)) for (s, t) in pairs]
            return run_roundtrips(
                self._scheme.compiled_routes(),
                pairs,
                self._hop_limit,
                scheme_name=self._scheme.name,
            )
        name_of = self._scheme.name_of
        return TraceBatch(
            self.roundtrip(s, t if by_name else name_of(t))
            for (s, t) in pairs
        )
