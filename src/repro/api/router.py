"""The :class:`Router` session: query serving over one built scheme.

A router wraps a :class:`~repro.runtime.simulator.Simulator` around a
constructed scheme and serves roundtrip queries — single
(:meth:`Router.route`, on the hop-by-hop python engine) or batched
(:meth:`Router.route_many`, on the compiled engine whenever the scheme
compiles) — counting each engine's batches, pairs and time
(:meth:`Router.stats`).  Every per-query number is in the
:class:`RouteResult`; a workload's totals are in its
:class:`~repro.runtime.traffic.TrafficSummary`.

Obtained from a network::

    router = net.router("stretch6")
    r = router.route(0, 9)              # RouteResult with stretch
    batch = router.route_many(pairs)    # list of RouteResults
    print(router.stats().format())
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

import numpy as np

from repro.graph.shortest_paths import DistanceOracle
from repro.runtime.scheme import RoutingScheme
from repro.runtime.simulator import RoundtripTrace, Simulator, TraceBatch
from repro.runtime.stats import TableReport, measure_tables
from repro.runtime.traffic import (
    TrafficSummary,
    Workload,
    check_pairs,
    chunk_starts,
    require_integer_endpoints,
    run_workload,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.stats import RouterStats


@dataclass(frozen=True)
class RouteResult:
    """One served roundtrip query.

    Attributes:
        source: source vertex.
        dest: destination vertex.
        dest_name: the name the packet carried.
        cost: total roundtrip path cost.
        hops: total roundtrip hop count.
        max_header_bits: largest header observed on the journey.
        stretch: ``cost / r(source, dest)`` (``nan`` without an oracle).
        trace: the full hop-by-hop trace.
    """

    source: int
    dest: int
    dest_name: int
    cost: float
    hops: int
    max_header_bits: int
    stretch: float
    trace: RoundtripTrace


def _route_results(*columns) -> List[RouteResult]:
    """One :class:`RouteResult` per row of ``columns`` (one sequence
    per field, in field order), each instance's ``__dict__`` filled
    directly: the frozen dataclass's ``__init__`` would make one
    ``object.__setattr__`` call per field.  The results are ordinary
    instances: equal to, and with the same repr as, constructor-built
    ones, and still frozen."""
    new = object.__new__
    out = []
    append = out.append
    for s, t, name, cost, hops, bits, stretch, trace in zip(*columns):
        r = new(RouteResult)
        d = r.__dict__
        d["source"] = s
        d["dest"] = t
        d["dest_name"] = name
        d["cost"] = cost
        d["hops"] = hops
        d["max_header_bits"] = bits
        d["stretch"] = stretch
        d["trace"] = trace
        append(r)
    return out


class Router:
    """Serves roundtrip queries against one constructed scheme.

    Args:
        scheme: the scheme under load.
        oracle: ground-truth distances of the same graph; enables the
            ``stretch`` column of results (optional).
        hop_limit: per-leg hop budget override for the simulator.

    Batches run on the compiled engine when the scheme compiles its
    tables and on the hop-by-hop simulator when it does not; both give
    bit-identical results, and the batch entry points take a per-call
    ``engine=`` that tests use to route on the python reference.
    """

    def __init__(
        self,
        scheme: RoutingScheme,
        oracle: Optional[DistanceOracle] = None,
        hop_limit: Optional[int] = None,
    ):
        self._scheme = scheme
        self._oracle = oracle
        self._sim = Simulator(scheme, hop_limit=hop_limit)
        self._hop_limit = hop_limit
        self._tables: Optional[TableReport] = None
        self._engine_stats: Dict[str, Dict[str, float]] = {
            name: {"batches": 0, "pairs": 0, "seconds": 0.0, "shards": 0}
            for name in ("vectorized", "python")
        }

    # ------------------------------------------------------------------
    @property
    def scheme(self) -> RoutingScheme:
        """The scheme this session serves."""
        return self._scheme

    @property
    def oracle(self) -> Optional[DistanceOracle]:
        """The attached ground-truth oracle, if any."""
        return self._oracle

    def resolve_engine(self, engine: Optional[str] = None) -> str:
        """The concrete engine a batched call would use (``None`` is
        ``"auto"``); the first call compiles the scheme's tables."""
        return self._sim.resolve_engine(engine or "auto")

    def _account_batch(
        self, engine: str, pairs: int, seconds: float, shards: int = 1
    ) -> None:
        stats = self._engine_stats[engine]
        stats["batches"] += 1
        stats["pairs"] += pairs
        stats["seconds"] += seconds
        stats["shards"] += shards

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def route(self, source: int, dest: int, by_name: bool = False) -> RouteResult:
        """Serve one roundtrip query ``source -> dest -> source``.

        Args:
            source: source vertex id.
            dest: destination vertex id, or destination *name* when
                ``by_name`` is set.
            by_name: treat ``dest`` as a name the packet carries.

        Raises:
            GraphError: for an endpoint that is not an integer, out of
                range, or ``source == dest``
                (:func:`~repro.runtime.traffic.check_pairs`).
        """
        if by_name:
            require_integer_endpoints([(source, dest)])
        vertex = self._scheme.vertex_of(dest) if by_name else dest
        pairs = check_pairs(self._scheme.graph.n, [(source, vertex)])
        name = dest if by_name else self._scheme.name_of(dest)
        t0 = time.perf_counter()
        trace = self._sim.roundtrip(source, name)
        self._account_batch("python", 1, time.perf_counter() - t0)
        return self._results(pairs, [name], TraceBatch([trace]))[0]

    def route_many(
        self,
        pairs: "np.ndarray | Iterable[Tuple[int, int]]",
        by_name: bool = False,
        engine: Optional[str] = None,
    ) -> List[RouteResult]:
        """Serve a batch of roundtrip queries, in input order.

        ``pairs`` may be a ``(B, 2)`` integer array (an int64 one is
        routed uncopied).  The batch executes through the compiled
        vectorized engine when the scheme supports it (or as the
        per-call ``engine`` override requests); results are identical
        either way.

        Raises:
            GraphError: for a pair, destination names resolved, with an
                endpoint that is not an integer (names are checked
                before they are resolved), out of range, or ``source ==
                dest`` (:func:`~repro.runtime.traffic.check_pairs`);
                nothing is routed then.
        """
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        elif by_name:
            pairs = pairs.tolist()  # names stay Python ints
        if by_name:
            require_integer_endpoints(pairs)
            vertex_of = self._scheme.vertex_of
            names = [t for _, t in pairs]
            pairs = [(s, vertex_of(t)) for s, t in pairs]
        checked = check_pairs(self._scheme.graph.n, pairs)
        if not by_name:
            name_of = self._scheme.name_of
            names = [name_of(t) for t in checked[:, 1].tolist()]
        resolved = self.resolve_engine(engine)
        t0 = time.perf_counter()
        traces = self._sim.roundtrip_many(checked, engine=resolved)
        self._account_batch(
            resolved, len(checked), time.perf_counter() - t0
        )
        return self._results(checked, names, traces)

    def _results(
        self,
        pairs: np.ndarray,
        names: List[int],
        traces: TraceBatch,
    ) -> List[RouteResult]:
        """One :class:`RouteResult` per row of the checked ``(B, 2)``
        pair array, read from the batch's columns."""
        if not traces:
            return []
        sources, dests = pairs.T
        costs = traces.cost
        if self._oracle is not None:
            # elementwise float64 division rounds exactly as the scalar
            stretch = (costs / self._oracle.r_matrix[sources, dests]).tolist()
        else:
            stretch = [math.nan] * len(traces)
        return _route_results(
            sources.tolist(), dests.tolist(), names, costs.tolist(),
            traces.hops.tolist(), traces.max_header_bits.tolist(), stretch,
            traces,
        )

    def serve_workload(
        self, workload: Union[Workload, Sequence[Tuple[int, int]]]
    ) -> TrafficSummary:
        """Route a traffic workload and return the aggregate summary.

        Delegates to :func:`repro.runtime.traffic.run_workload` on the
        resolved execution engine.  The session counters absorb the
        workload as one batch, with its engine calls counted as
        ``shards`` (see :meth:`stats`).
        """
        resolved = self.resolve_engine()
        summary = run_workload(
            self._scheme,
            workload,
            oracle=self._oracle,
            hop_limit=self._hop_limit,
            engine=resolved,
        )
        self._account_batch(
            resolved, summary.pairs, summary.elapsed_s,
            shards=len(chunk_starts(summary.pairs)),
        )
        return summary

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def table_report(self) -> TableReport:
        """The scheme's per-node table footprint (computed once)."""
        if self._tables is None:
            self._tables = measure_tables(self._scheme)
        return self._tables

    def stats(self) -> "RouterStats":
        """Per-engine serving statistics as a
        :class:`repro.api.stats.RouterStats` (the unified
        ``as_dict()``/``format()`` protocol)."""
        from repro.api.stats import RouterStats

        return RouterStats.from_counters(self._engine_stats)
