"""Incremental repair of canonical APSP state under graph deltas.

A :class:`~repro.graph.delta.GraphDelta` usually invalidates only a
small fraction of the all-pairs solution.  This module repairs a
``(d, parent)`` pair in place of a full rebuild by exploiting two
structural facts about the canonical APSP engine
(:mod:`repro.graph.apsp`):

* **Per-source row independence.**  Row ``s`` of the solution depends
  only on the graph and on ``s``; rows can be recomputed individually
  (:func:`~repro.graph.apsp.apsp_rows`) with the identical warm start
  + canonical sweep kernel the full build uses.
* **Unique fixpoint.**  Any distance row unchanged by one canonical
  sweep *is* the canonical solution for its source (see the
  :mod:`repro.graph.apsp` docstring).  So if we can certify that an
  op leaves row ``s`` a fixpoint of the *new* graph's sweep, the old
  row equals the new canonical row — floats and parents both — with
  no computation at all.

Per op, a superset of the rows the op can affect is read off the
current solution (the certificates below); those rows are recomputed
exactly, the rest are carried over verbatim.  The result is therefore
**bit-identical** to a full rebuild — the property the churn
differential suite (``tests/test_churn.py``) locks for every compiled
scheme.

Affected-row certificates (op on edge ``u -> v``, tie tolerance
``TIE_EPS``; sources whose row might change):

* ``Reweight(u, v, w)`` — ``parent[s][v] == u`` (the edge is in
  ``s``'s tree, so its cost flows into the row) **or**
  ``d[s][u] + w <= d[s][v] + TIE_EPS`` (the re-priced edge reaches
  ``v``'s tie window and can win it).
* ``LinkDown(u, v)`` — ``parent[s][v] == u``.  A non-tree edge's
  removal deletes a candidate that neither defines ``d[s][v]`` nor
  wins the window; the row stays a fixpoint.
* ``LinkUp(u, v, w)`` — ``d[s][u] + w <= d[s][v] + TIE_EPS``.  A new
  candidate strictly above the window changes nothing.

These certificates are exact in the regime the vectorized engine
already requires (:func:`~repro.graph.apsp.vectorized_engine_supported`:
edge weights, hence distinct path-length groups, separated by far
more than ``TIE_EPS``).  Ops apply *sequentially* through intermediate
graphs — each step is exact, so the composition is exact.

Node :class:`~repro.graph.delta.Arrival`/:class:`~repro.graph.delta.Departure`
ops renumber rows and columns; the repair protocol does not cover
them, and :func:`repair_apsp` returns ``None`` so the caller falls
back to a keyed full rebuild (:meth:`repro.api.network.Network.evolve`
does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.apsp import TIE_EPS, apsp_rows, vectorized_engine_supported
from repro.graph.csr import CSRGraph
from repro.graph.delta import (
    DeltaOp,
    GraphDelta,
    LinkDown,
    LinkUp,
    Reweight,
)
from repro.graph.digraph import Digraph
from repro.graph.shortest_paths import DistanceOracle


@dataclass
class RepairReport:
    """Accounting for one repair.

    Attributes:
        rows_recomputed: source rows recomputed, summed over ops (a row
            touched by two ops counts twice — it was recomputed twice).
        rows_reused: source rows certified unchanged, summed over ops.
        entries_changed: distance entries whose float value actually
            changed across the whole repair.
    """

    rows_recomputed: int = 0
    rows_reused: int = 0
    entries_changed: int = 0


@dataclass
class RepairedAPSP:
    """Result of :func:`repair_apsp`.

    Attributes:
        graph: the new frozen graph (delta applied).
        d: ``(n, n)`` repaired distance matrix.
        parent: ``(n, n)`` repaired canonical parent matrix.
        report: the accounting.
    """

    graph: Digraph
    d: np.ndarray
    parent: np.ndarray
    report: RepairReport = field(default_factory=RepairReport)


def delta_supports_repair(delta: GraphDelta) -> bool:
    """Whether every op is in the repair protocol's regime (same-``n``:
    reweights and link up/down; arrivals/departures renumber vertices
    and force a rebuild)."""
    return delta.same_n


def affected_sources(
    d: np.ndarray, parent: np.ndarray, op: DeltaOp
) -> np.ndarray:
    """The certificate: indices of every source row ``op`` can affect,
    read off the current ``(d, parent)`` solution (see the module
    docstring for why the complement provably keeps its rows)."""
    if isinstance(op, Reweight):
        mask = (parent[:, op.head] == op.tail) | (
            d[:, op.tail] + op.weight <= d[:, op.head] + TIE_EPS
        )
    elif isinstance(op, LinkDown):
        mask = parent[:, op.head] == op.tail
    elif isinstance(op, LinkUp):
        mask = d[:, op.tail] + op.weight <= d[:, op.head] + TIE_EPS
    else:
        raise ValueError(f"op {op!r} is outside the repair protocol")
    return np.flatnonzero(mask)


def repair_apsp(
    graph: Digraph,
    d: np.ndarray,
    parent: np.ndarray,
    delta: GraphDelta,
) -> Optional[RepairedAPSP]:
    """Repair an all-pairs solution across ``delta``, or signal rebuild.

    Args:
        graph: the frozen graph ``(d, parent)`` solves.
        d: its ``(n, n)`` canonical distance matrix.
        parent: its ``(n, n)`` canonical parent matrix.
        delta: the mutation to fold in.

    Returns:
        A :class:`RepairedAPSP` whose matrices are bit-identical to a
        full rebuild on the new graph — or ``None`` when the protocol
        does not apply (node arrival/departure ops, or an intermediate
        graph outside the vectorized engine's safe-weight regime) and
        the caller should rebuild from scratch.
    """
    if not delta_supports_repair(delta):
        return None
    n = graph.n
    d = np.array(d, dtype=np.float64)
    parent = np.array(parent, dtype=np.int64)
    report = RepairReport()
    g = graph
    for op in delta.ops:
        g = g.apply_delta(GraphDelta((op,)))
        csr = CSRGraph.from_digraph(g)
        if not vectorized_engine_supported(csr):
            return None
        rows = affected_sources(d, parent, op)
        report.rows_recomputed += int(rows.size)
        report.rows_reused += n - int(rows.size)
        if rows.size:
            nd, npar = apsp_rows(csr, rows)
            report.entries_changed += int(np.count_nonzero(nd != d[rows]))
            d[rows] = nd
            parent[rows] = npar
    return RepairedAPSP(graph=g, d=d, parent=parent, report=report)


def repair_oracle(
    oracle: DistanceOracle, delta: GraphDelta
) -> Optional[Tuple[DistanceOracle, RepairedAPSP]]:
    """Repair a :class:`~repro.graph.shortest_paths.DistanceOracle`
    across ``delta``.

    On success, returns the successor oracle (rehydrated via
    :meth:`DistanceOracle.from_arrays` on the new graph, so it is
    indistinguishable from a cold build) plus the repair record.  Only
    ``d`` and the parents are repaired; everything derived from them is
    rebuilt from the successor.

    Returns ``None`` when the repair protocol does not apply *or* the
    repaired graph is not strongly connected — in both cases the
    caller falls back to the ordinary keyed (re)build path, which
    reports such graphs through its usual errors.
    """
    result = repair_apsp(
        oracle.graph, oracle.d_matrix, oracle.parent_matrix(), delta
    )
    if result is None or np.isinf(result.d).any():
        return None
    new_oracle = DistanceOracle.from_arrays(
        result.graph, result.d, result.parent, engine=oracle.engine
    )
    return new_oracle, result


__all__: List[str] = [
    "RepairReport",
    "RepairedAPSP",
    "affected_sources",
    "delta_supports_repair",
    "repair_apsp",
    "repair_oracle",
]
