"""Churn timelines: topology mutation interleaved with traffic.

The paper's model is a *dynamic* network — links reweight, fail and
recover, nodes arrive and depart — while traffic keeps flowing and
names stay stable (the TINN promise).  This module makes that regime a
first-class workload:

* a **timeline** is a JSON document describing epochs, each routing a
  batch of pairs and (optionally) preceded by mutation events::

      {"version": 1, "seed": 7, "workload": "mixed",
       "epochs": [
         {"pairs": 200},
         {"pairs": 200, "events": [{"op": "reweight"},
                                   {"op": "link_down"}]},
         {"pairs": 100, "events": [
             {"op": "link_up", "tail": 0, "head": 5, "weight": 2.5}]}]}

  Bare events (``{"op": "reweight"}``) are materialized against the
  *current* generation's graph from the timeline seed — link removals
  and departures only pick candidates that preserve strong
  connectivity — while events carrying explicit fields are applied
  verbatim;

* :func:`run_timeline` walks the epochs: it folds each epoch's events
  into a :class:`~repro.graph.delta.GraphDelta`, steps the network
  through :meth:`~repro.api.network.Network.evolve` (incremental
  oracle repair where the protocol applies), rebuilds the scheme on
  the new generation, routes the epoch's workload with
  :func:`~repro.runtime.traffic.run_workload`, and merges everything
  into one :class:`~repro.runtime.traffic.TrafficSummary` whose
  :attr:`~repro.runtime.traffic.TrafficSummary.epochs` rows record the
  per-epoch stretch trajectory.

Everything is seeded: event materialization draws from
``random.Random(f"{seed}|churn|{i}")`` and epoch pairs from
``random.Random(f"{seed}|pairs|{i}")``, both independent of
``--jobs``, so a timeline run is bit-identical across ``--jobs``
values (the same guarantee static workloads already make).

Exposed on the command line as ``repro traffic --events FILE``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

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
)
from repro.graph.digraph import Digraph
from repro.graph.scc import is_strongly_connected
from repro.runtime.traffic import (
    WORKLOAD_KINDS,
    EpochStretch,
    TrafficSummary,
    generate_workload,
    run_workload,
)

#: current timeline document version
TIMELINE_VERSION = 1

#: new-node degree for materialized arrivals (capped by n)
ARRIVAL_DEGREE = 3

#: weight grid for materialized reweights/link-ups/arrivals.  Two
#: decimals keep distinct path sums separated by >= 0.01 — far above
#: the vectorized sweep's tie window — so the incremental repair
#: certificates (:mod:`repro.graph.repair`) are airtight.
_WEIGHT_LO, _WEIGHT_HI = 0.5, 8.0


def _random_weight(rng: random.Random) -> float:
    return round(rng.uniform(_WEIGHT_LO, _WEIGHT_HI), 2)


# ----------------------------------------------------------------------
# timeline documents
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EpochSpec:
    """One timeline epoch: optional mutation events, then traffic.

    Attributes:
        pairs: journeys to route in this epoch.
        events: event documents applied (in order) before the epoch's
            traffic; each is ``{"op": <name>, ...}`` with optional
            explicit fields (see :func:`materialize_event`).
        workload: per-epoch workload-kind override (``None`` uses the
            timeline default).
    """

    pairs: int
    events: Tuple[Mapping[str, Any], ...] = ()
    workload: Optional[str] = None


@dataclass(frozen=True)
class Timeline:
    """A parsed churn timeline (see the module docstring's format)."""

    seed: int = 0
    workload: str = "mixed"
    epochs: Tuple[EpochSpec, ...] = ()

    @classmethod
    def from_doc(cls, doc: Any) -> "Timeline":
        """Validate and parse a timeline document.

        Raises:
            GraphError: for malformed documents.
        """
        if not isinstance(doc, dict):
            raise GraphError("timeline must be a JSON object")
        version = doc.get("version", TIMELINE_VERSION)
        if version != TIMELINE_VERSION:
            raise GraphError(
                f"unsupported timeline version {version!r} "
                f"(expected {TIMELINE_VERSION})"
            )
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise GraphError(f"timeline 'seed' must be an integer, got {seed!r}")
        workload = doc.get("workload", "mixed")
        if workload not in WORKLOAD_KINDS:
            raise GraphError(
                f"unknown timeline workload {workload!r}; "
                f"choose from {WORKLOAD_KINDS}"
            )
        raw_epochs = doc.get("epochs")
        if not isinstance(raw_epochs, list) or not raw_epochs:
            raise GraphError("timeline needs a non-empty 'epochs' list")
        epochs = []
        for i, ep in enumerate(raw_epochs):
            if not isinstance(ep, dict):
                raise GraphError(f"epochs[{i}] must be an object")
            pairs = ep.get("pairs", 0)
            if isinstance(pairs, bool) or not isinstance(pairs, int) or pairs < 0:
                raise GraphError(
                    f"epochs[{i}].pairs must be a non-negative integer, "
                    f"got {pairs!r}"
                )
            kind = ep.get("workload")
            if kind is not None and kind not in WORKLOAD_KINDS:
                raise GraphError(
                    f"epochs[{i}].workload {kind!r} unknown; "
                    f"choose from {WORKLOAD_KINDS}"
                )
            events = ep.get("events", [])
            if not isinstance(events, list):
                raise GraphError(f"epochs[{i}].events must be a list")
            for j, ev in enumerate(events):
                if not isinstance(ev, dict) or ev.get("op") not in OP_NAMES:
                    raise GraphError(
                        f"epochs[{i}].events[{j}] must be an object with "
                        f"'op' in {OP_NAMES}, got {ev!r}"
                    )
            epochs.append(EpochSpec(
                pairs=pairs, events=tuple(events), workload=kind,
            ))
        return cls(seed=seed, workload=workload, epochs=tuple(epochs))

    def to_doc(self) -> Dict[str, Any]:
        """The plain-JSON document form (round-trips through
        :meth:`from_doc`)."""
        epochs = []
        for ep in self.epochs:
            doc: Dict[str, Any] = {"pairs": ep.pairs}
            if ep.events:
                doc["events"] = [dict(ev) for ev in ep.events]
            if ep.workload is not None:
                doc["workload"] = ep.workload
            epochs.append(doc)
        return {
            "version": TIMELINE_VERSION,
            "seed": self.seed,
            "workload": self.workload,
            "epochs": epochs,
        }

    @property
    def total_events(self) -> int:
        """Event documents across every epoch."""
        return sum(len(ep.events) for ep in self.epochs)


def load_timeline(source) -> Timeline:
    """Load a timeline from a file path, a JSON string, or a dict.

    Raises:
        GraphError: for unreadable files or malformed documents.
    """
    if isinstance(source, Timeline):
        return source
    if isinstance(source, dict):
        return Timeline.from_doc(source)
    text = str(source)
    if not text.lstrip().startswith("{"):
        try:
            text = Path(text).read_text(encoding="utf-8")
        except OSError as exc:
            raise GraphError(f"cannot read timeline file: {exc}")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise GraphError(f"timeline is not valid JSON: {exc}")
    return Timeline.from_doc(doc)


# ----------------------------------------------------------------------
# event materialization
# ----------------------------------------------------------------------

def _keeps_strong_connectivity(g: Digraph, op: DeltaOp) -> bool:
    return is_strongly_connected(g.apply_delta(GraphDelta((op,))))


def _pick_reweight(g: Digraph, rng: random.Random) -> Reweight:
    edges = list(g.edges())
    e = edges[rng.randrange(len(edges))]
    return Reweight(e.tail, e.head, _random_weight(rng))


def materialize_event(
    g: Digraph, spec: Mapping[str, Any], rng: random.Random
) -> DeltaOp:
    """Turn one event document into a concrete :class:`DeltaOp`.

    Events carrying explicit fields are taken verbatim (validation
    happens in ``apply_delta``); bare events draw their operands from
    ``rng`` against the current graph ``g``.  Materialized link
    removals and departures only pick candidates whose application
    keeps the graph strongly connected; when no candidate qualifies
    (or the graph has no room for a ``link_up``), the event degrades
    to a random reweight so the timeline always stays routable.

    Raises:
        GraphError: for unknown op names or malformed explicit fields.
    """
    op = spec.get("op")
    if op == "reweight":
        if "tail" in spec:
            weight = spec.get("weight")
            if weight is None:
                factor = float(spec.get("factor", 1.0))
                weight = g.weight(int(spec["tail"]), int(spec["head"])) * factor
            return Reweight(int(spec["tail"]), int(spec["head"]), float(weight))
        return _pick_reweight(g, rng)
    if op == "link_down":
        if "tail" in spec:
            return LinkDown(int(spec["tail"]), int(spec["head"]))
        edges = list(g.edges())
        rng.shuffle(edges)
        for e in edges:
            cand = LinkDown(e.tail, e.head)
            if _keeps_strong_connectivity(g, cand):
                return cand
        return _pick_reweight(g, rng)
    if op == "link_up":
        if "tail" in spec:
            return LinkUp(
                int(spec["tail"]), int(spec["head"]),
                float(spec.get("weight", 1.0)),
            )
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
        if "node" in spec:
            return Departure(int(spec["node"]))
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        for x in nodes:
            if g.n <= 2:
                break
            cand = Departure(x)
            if _keeps_strong_connectivity(g, cand):
                return cand
        return _pick_reweight(g, rng)
    if op == "arrival":
        if "out" in spec or "in" in spec:
            return GraphDelta.arrival(
                spec.get("out", []), spec.get("in", [])
            ).ops[0]
        k = min(ARRIVAL_DEGREE, g.n)
        out_targets = rng.sample(range(g.n), k)
        in_targets = rng.sample(range(g.n), k)
        return Arrival(
            tuple((v, _random_weight(rng)) for v in out_targets),
            tuple((t, _random_weight(rng)) for t in in_targets),
        )
    raise GraphError(f"unknown event op {op!r}; expected one of {OP_NAMES}")


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
# the epoch step and the timeline runner
# ----------------------------------------------------------------------

def evolve_epoch(
    network, events: Sequence[Mapping[str, Any]], seed: int, index: int
) -> Tuple[Any, Optional[GraphDelta]]:
    """Step ``network`` across epoch ``index``'s events.

    The events materialize against the current generation's graph from
    ``random.Random(f"{seed}|churn|{index}")`` and the network evolves
    across the resulting delta (incremental oracle repair where the
    protocol applies).  Returns ``(network, delta)``; a quiet epoch
    returns the input network and ``None``.  Shared by
    :func:`run_timeline` and the scenario runner, so both walk the same
    generation chain from the same seed.
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


def run_timeline(
    network,
    scheme: str,
    timeline,
    params: Optional[Dict[str, Any]] = None,
    hop_limit: Optional[int] = None,
    engine: str = "auto",
    shard_size: Optional[int] = None,
    jobs: Optional[int] = None,
    tables: str = "auto",
) -> Tuple[TrafficSummary, Any]:
    """Run a churn timeline end to end.

    Per epoch: step the network across the epoch's events
    (:func:`evolve_epoch`), rebuild the scheme on the new generation,
    and route the epoch's workload.  The per-epoch summaries merge into
    a single :class:`TrafficSummary` carrying one
    :class:`~repro.runtime.traffic.EpochStretch` row per epoch
    (:func:`attach_epoch_row`).

    Args:
        network: the generation-1 :class:`~repro.api.network.Network`.
        scheme: registered scheme label to rebuild each generation.
        timeline: a :class:`Timeline` (or anything
            :func:`load_timeline` accepts).
        params: scheme build parameters (e.g. ``{"k": 2}``).
        hop_limit / engine / shard_size / jobs / tables: forwarded to
            :func:`~repro.runtime.traffic.run_workload` per epoch, with
            the same bit-identical-across-``jobs`` guarantee.

    Returns:
        ``(summary, final_network)`` — the merged summary and the last
        generation's network (its :meth:`~repro.api.network.Network.stats`
        carry the final repair accounting).
    """
    timeline = load_timeline(timeline)
    params = dict(params or {})
    net = network
    parts = []
    for i, epoch in enumerate(timeline.epochs):
        net, delta = evolve_epoch(net, epoch.events, timeline.seed, i)
        kind = epoch.workload or timeline.workload
        workload = generate_workload(
            kind, net.n, epoch.pairs,
            rng=random.Random(f"{timeline.seed}|pairs|{i}"),
            oracle=net.oracle(),
        )
        built = net.build_scheme(scheme, **params)
        part = run_workload(
            built, workload, oracle=net.oracle(), hop_limit=hop_limit,
            engine=engine, shard_size=shard_size, jobs=jobs, tables=tables,
        )
        parts.append(attach_epoch_row(part, i, net, delta))
    return TrafficSummary.merge(parts), net


__all__ = [
    "ARRIVAL_DEGREE",
    "EpochSpec",
    "TIMELINE_VERSION",
    "Timeline",
    "attach_epoch_row",
    "evolve_epoch",
    "load_timeline",
    "materialize_delta",
    "materialize_event",
    "run_timeline",
]
