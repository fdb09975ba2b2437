"""Churn: topology mutation interleaved with traffic.

The paper's model is a *dynamic* network — links reweight, fail and
recover, nodes arrive and depart — while traffic keeps flowing and
names stay stable (the TINN promise).  A ``repro-scenario/1`` phase
(:mod:`repro.scenarios`) may carry churn ``events``; this module turns
them into topology changes:

* an **event** is a document ``{"op": <name>, ...}``.  A bare event
  (``{"op": "reweight"}``) is materialized against the *current*
  generation's graph from a seeded stream — link removals and
  departures only pick candidates that preserve strong connectivity —
  while an event carrying operands is applied as given
  (:func:`explicit_op`; the operand keys per op are
  :data:`EVENT_KEYS`)::

      {"op": "link_up", "tail": 0, "head": 5, "weight": 2.5}
      {"op": "reweight", "tail": 3, "head": 4, "factor": 1.5}

* :func:`evolve_epoch` folds one phase's events into a
  :class:`~repro.graph.delta.GraphDelta` and steps the network through
  :meth:`~repro.api.network.Network.evolve` (incremental oracle repair
  where the protocol applies); :func:`attach_epoch_row` records the
  phase's :class:`~repro.runtime.traffic.EpochStretch` row.

Everything is seeded: phase ``i``'s events materialize from
``random.Random(f"{seed}|churn|{i}")``, so a scenario walks the same
generation chain on every run.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Mapping, Optional, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graph.delta import (
    OP_NAMES,
    Arrival,
    Departure,
    DeltaOp,
    GraphDelta,
    LinkDown,
    LinkUp,
    Reweight,
    is_number,
    op_from_doc,
)
from repro.graph.digraph import Digraph
from repro.graph.scc import is_strongly_connected
from repro.runtime.traffic import EpochStretch, TrafficSummary

#: new-node degree for materialized arrivals (capped by n)
ARRIVAL_DEGREE = 3

#: the operand keys an event document may carry, per op.  They are the
#: keys of :meth:`GraphDelta.to_doc`'s op documents, plus reweight's
#: ``factor`` (scales the current weight; an alternative to ``weight``)
#: and link_up's optional ``weight`` (default 1.0).
EVENT_KEYS = {
    "reweight": ("tail", "head", "weight", "factor"),
    "link_down": ("tail", "head"),
    "link_up": ("tail", "head", "weight"),
    "departure": ("node",),
    "arrival": ("out", "in"),
}

#: weight grid for materialized reweights/link-ups/arrivals.  Two
#: decimals keep distinct path sums separated by >= 0.01 — far above
#: the vectorized sweep's tie window — so the incremental repair
#: certificates (:mod:`repro.graph.repair`) are airtight.
_WEIGHT_LO, _WEIGHT_HI = 0.5, 8.0


def _random_weight(rng: random.Random) -> float:
    return round(rng.uniform(_WEIGHT_LO, _WEIGHT_HI), 2)


# ----------------------------------------------------------------------
# event materialization
# ----------------------------------------------------------------------

def _keeps_strong_connectivity(g: Digraph, op: DeltaOp) -> bool:
    return is_strongly_connected(g.apply_delta(GraphDelta((op,))))


def _pick_reweight(g: Digraph, rng: random.Random) -> Reweight:
    edges = list(g.edges())
    e = edges[rng.randrange(len(edges))]
    return Reweight(e.tail, e.head, _random_weight(rng))


def explicit_op(
    spec: Mapping[str, Any], g: Optional[Digraph] = None
) -> Optional[DeltaOp]:
    """The op an event document names by its operands, or ``None`` for a
    bare event (``{"op": <name>}`` alone), which
    :func:`materialize_event` draws at run time.

    Operands parse as :meth:`GraphDelta.from_doc` parses an op
    (:func:`~repro.graph.delta.op_from_doc`), with two event-only
    conveniences: link_up's ``weight`` defaults to 1.0, and a reweight
    may give a ``factor`` instead of a ``weight``, scaling the edge's
    weight in ``g`` (a factor of 1.0 when it gives neither).  Without
    ``g`` (checking a spec before it runs) a factor reweight returns a
    weight of 1.0 times the factor.

    Raises:
        GraphError: for an unknown op or key, a missing operand, a
            vertex that is not an integer, a weight or factor that is
            not a number, a reweight giving both ``weight`` and
            ``factor``, or a factor reweight of an edge ``g`` lacks.
    """
    op = spec.get("op")
    if op not in OP_NAMES:
        raise GraphError(f"unknown event op {op!r}; expected one of {OP_NAMES}")
    operands = {key: value for key, value in spec.items() if key != "op"}
    unknown = sorted(str(key) for key in operands if key not in EVENT_KEYS[op])
    if unknown:
        raise GraphError(
            f"unknown {op!r} event key(s): {', '.join(unknown)}; expected "
            f"{', '.join(EVENT_KEYS[op])}"
        )
    if not operands:
        return None
    if "weight" in operands and "factor" in operands:
        raise GraphError("a reweight event gives a weight or a factor, not both")
    if op == "link_up":
        operands.setdefault("weight", 1.0)
    if op != "reweight" or "weight" in operands:
        return op_from_doc({"op": op, **operands})
    factor = operands.pop("factor", 1.0)
    if not is_number(factor):
        raise GraphError(f"reweight 'factor' must be a number, got {factor!r}")
    edge = op_from_doc({"op": op, **operands, "weight": 1.0})
    weight = 1.0
    if g is not None:
        if not g.has_edge(edge.tail, edge.head):
            raise GraphError(f"no edge ({edge.tail}, {edge.head}) to reweight")
        weight = g.weight(edge.tail, edge.head)
    return replace(edge, weight=weight * float(factor))


def materialize_event(
    g: Digraph, spec: Mapping[str, Any], rng: random.Random
) -> DeltaOp:
    """Turn one event document into a concrete :class:`DeltaOp`.

    Events carrying operands are taken as given (:func:`explicit_op`;
    ``apply_delta`` checks them against the graph); bare events draw
    their operands from ``rng`` against the current graph ``g``.
    Materialized link removals and departures only pick candidates
    whose application keeps the graph strongly connected; when no
    candidate qualifies (or the graph has no room for a ``link_up``),
    the event degrades to a random reweight so the scenario always
    stays routable.

    Raises:
        GraphError: for what :func:`explicit_op` rejects.
    """
    explicit = explicit_op(spec, g)
    if explicit is not None:
        return explicit
    op = spec["op"]
    if op == "reweight":
        return _pick_reweight(g, rng)
    if op == "link_down":
        edges = list(g.edges())
        rng.shuffle(edges)
        for e in edges:
            cand = LinkDown(e.tail, e.head)
            if _keeps_strong_connectivity(g, cand):
                return cand
        return _pick_reweight(g, rng)
    if op == "link_up":
        free = [
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and not g.has_edge(u, v)
        ]
        if not free:
            return _pick_reweight(g, rng)
        u, v = free[rng.randrange(len(free))]
        return LinkUp(u, v, _random_weight(rng))
    if op == "departure":
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        for x in nodes:
            if g.n <= 2:
                break
            cand = Departure(x)
            if _keeps_strong_connectivity(g, cand):
                return cand
        return _pick_reweight(g, rng)
    k = min(ARRIVAL_DEGREE, g.n)
    out_targets = rng.sample(range(g.n), k)
    in_targets = rng.sample(range(g.n), k)
    return Arrival(
        tuple((v, _random_weight(rng)) for v in out_targets),
        tuple((t, _random_weight(rng)) for t in in_targets),
    )


def materialize_delta(
    g: Digraph, events: Sequence[Mapping[str, Any]], rng: random.Random
) -> Optional[GraphDelta]:
    """Fold an epoch's event documents into one :class:`GraphDelta`.

    Events materialize sequentially against the intermediate graphs
    (the same composition order ``apply_delta`` and the repair
    protocol use), so a bare ``link_down`` never targets an edge an
    earlier op in the same epoch already removed.  Returns ``None``
    for an empty event list.
    """
    ops = []
    cur = g
    for spec in events:
        op = materialize_event(cur, spec, rng)
        ops.append(op)
        cur = cur.apply_delta(GraphDelta((op,)))
    return GraphDelta(tuple(ops)) if ops else None


# ----------------------------------------------------------------------
# the epoch step
# ----------------------------------------------------------------------

def evolve_epoch(
    network, events: Sequence[Mapping[str, Any]], seed: int, index: int
) -> Tuple[Any, Optional[GraphDelta]]:
    """Step ``network`` across epoch ``index``'s events.

    The events materialize against the current generation's graph from
    ``random.Random(f"{seed}|churn|{index}")`` and the network evolves
    across the resulting delta (incremental oracle repair where the
    protocol applies).  Returns ``(network, delta)``; a quiet epoch
    returns the input network and ``None``.  The scenario runner steps
    its phases through it, and the golden ``evolve`` chains pin what it
    does.
    """
    if not events:
        return network, None
    delta = materialize_delta(
        network.graph, events, random.Random(f"{seed}|churn|{index}")
    )
    return network.evolve(delta), delta


def attach_epoch_row(
    part: TrafficSummary, index: int, network, delta: Optional[GraphDelta]
) -> TrafficSummary:
    """``part`` (one epoch's summary, routed on ``network``) with its
    :class:`~repro.runtime.traffic.EpochStretch` row attached.

    The row's repair mode is ``"none"`` for a quiet epoch, else
    ``"incremental"`` or ``"rebuild"`` as the network's repair stats
    record how the oracle crossed ``delta``.
    """
    if delta is None:
        repair = "none"
    else:
        stats = network.stats().repair
        repair = (
            "incremental" if stats is not None and stats.incremental
            else "rebuild"
        )
    row = EpochStretch(
        index=index,
        generation=network.generation,
        pairs=part.pairs,
        events=tuple(delta.op_names()) if delta is not None else (),
        repair=repair,
        mean_stretch=part.mean_stretch,
        max_stretch=part.max_stretch,
        worst_pair=part.worst_pair,
    )
    return replace(part, epochs=(row,))


__all__ = [
    "ARRIVAL_DEGREE",
    "EVENT_KEYS",
    "attach_epoch_row",
    "evolve_epoch",
    "explicit_op",
    "materialize_delta",
    "materialize_event",
]
