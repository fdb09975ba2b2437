"""The ``repro-serve/1`` wire protocol: versioned JSON over HTTP.

Every daemon response is a JSON object carrying ``"schema":
"repro-serve/1"``; request bodies are JSON objects that may carry the
same field (when present it must match — a client from a future
protocol version fails loudly instead of being half-understood).
Errors travel as a structured body::

    {"schema": "repro-serve/1",
     "error": {"code": "unknown-scheme", "message": "...",
               "choices": ["rtz", "stretch6", ...]}}

with the HTTP status mirroring the code (400 for malformed requests,
404 for unknown endpoints, 429 for shed load, 503 while draining, 500
for daemon bugs).

This module is deliberately transport-free: it only turns dicts into
validated request dataclasses and route results / traffic summaries
into dicts, so the daemon (:mod:`repro.serve.app`), the client
(:mod:`repro.serve.client`), and the golden round-trip tests all share
one source of truth for what the bytes mean.

Float fields round-trip exactly: Python's ``json`` emits
``repr``-faithful doubles (and accepts ``NaN``/``Infinity``), so a
served ``cost``/``stretch`` compares bit-identical to the direct
library call's value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exceptions import GraphError, ReproError
from repro.graph.delta import GraphDelta
from repro.runtime.traffic import EpochStretch, TrafficSummary, WORKLOAD_KINDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.router import RouteResult

#: protocol schema identifier (bump on any incompatible change)
SCHEMA = "repro-serve/1"

#: error codes the protocol defines, with their HTTP statuses
ERROR_STATUS = {
    "bad-request": 400,
    "unknown-scheme": 400,
    "unknown-endpoint": 404,
    "server-busy": 429,
    "draining": 503,
    "server-error": 500,
}


class ProtocolError(ReproError):
    """A request the daemon rejects (or a response the client cannot
    accept), carrying the protocol error code and any structured extras
    (e.g. ``choices`` for ``unknown-scheme``)."""

    def __init__(self, message: str, code: str = "bad-request", **extra: Any):
        super().__init__(message)
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown protocol error code {code!r}")
        self.code = code
        self.extra = dict(extra)

    @property
    def status(self) -> int:
        """The HTTP status this error travels under."""
        return ERROR_STATUS[self.code]

    def body(self) -> Dict[str, Any]:
        """The structured error body (schema envelope included)."""
        error: Dict[str, Any] = {"code": self.code, "message": str(self)}
        error.update(self.extra)
        return {"schema": SCHEMA, "error": error}


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------

def parse_request(raw: bytes) -> Dict[str, Any]:
    """Parse a request body into a schema-checked dict.

    An empty body is a valid empty request (GET-style endpoints and
    parameterless POSTs like a same-graph ``/reload``).

    Raises:
        ProtocolError: for non-JSON bodies, non-object documents, or a
            ``schema`` field naming a different protocol version.
    """
    if not raw:
        return {}
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(doc).__name__}"
        )
    schema = doc.get("schema")
    if schema is not None and schema != SCHEMA:
        raise ProtocolError(
            f"request schema {schema!r} does not match {SCHEMA!r}"
        )
    return doc


def _require_int(doc: Mapping[str, Any], field: str) -> int:
    value = doc.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"field {field!r} must be an integer, got {value!r}"
        )
    return value


def _optional_int(doc: Mapping[str, Any], field: str) -> Optional[int]:
    if doc.get(field) is None:
        return None
    return _require_int(doc, field)


def _optional_str(doc: Mapping[str, Any], field: str) -> Optional[str]:
    value = doc.get(field)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ProtocolError(
            f"field {field!r} must be a string, got {value!r}"
        )
    return value


def decode_pairs(value: Any) -> List[Tuple[int, int]]:
    """Validate a ``pairs`` field: a list of ``[source, dest]`` integer
    two-lists (tuples accepted on the encode side).

    Raises:
        ProtocolError: for anything else.
    """
    if not isinstance(value, list):
        raise ProtocolError(
            f"field 'pairs' must be a list of [source, dest] pairs, "
            f"got {type(value).__name__}"
        )
    pairs: List[Tuple[int, int]] = []
    for i, item in enumerate(value):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in item)
        ):
            raise ProtocolError(
                f"pairs[{i}] must be a [source, dest] integer pair, "
                f"got {item!r}"
            )
        pairs.append((item[0], item[1]))
    return pairs


@dataclass(frozen=True)
class RouteManyRequest:
    """``POST /route`` and ``POST /route_many``: route explicit pairs.

    ``scheme`` of ``None`` means the daemon's default scheme.
    """

    pairs: Tuple[Tuple[int, int], ...]
    scheme: Optional[str] = None

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "RouteManyRequest":
        if "pairs" in doc:
            if "source" in doc or "dest" in doc:
                raise ProtocolError(
                    "pass either 'pairs' or 'source'/'dest', not both"
                )
            pairs = decode_pairs(doc["pairs"])
        else:
            pairs = [(_require_int(doc, "source"), _require_int(doc, "dest"))]
        return cls(pairs=tuple(pairs), scheme=_optional_str(doc, "scheme"))

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": SCHEMA,
            "pairs": [[s, t] for s, t in self.pairs],
        }
        if self.scheme is not None:
            doc["scheme"] = self.scheme
        return doc


@dataclass(frozen=True)
class WorkloadRequest:
    """``POST /workload``: generate and route a workload.

    Two mutually exclusive forms:

    * **named** — ``kind``/``count``/``seed``: the daemon derives the
      pair sequence exactly as ``repro traffic`` does
      (``random.Random(seed + 3)`` against the loaded graph), so a
      served summary diffs bit-identically against the offline CLI run
      with the same parameters;
    * **scenario** — a full ``repro-scenario/1`` document
      (``{"scenario": {...}}``): the daemon replays the spec's phase
      sequence (seeded per phase, same derivation as ``repro scenario
      run``) against its *own* loaded graph and default scheme — the
      spec's ``graph`` and ``matrix`` blocks do not apply to a live
      daemon.  Phases carrying churn ``events`` are rejected with 400:
      the daemon's topology only mutates through ``/reload``.
    """

    kind: Optional[str] = None
    count: int = 0
    seed: int = 0
    scheme: Optional[str] = None
    scenario: Optional[Dict[str, Any]] = None

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "WorkloadRequest":
        scheme = _optional_str(doc, "scheme")
        scenario = doc.get("scenario")
        if scenario is not None:
            from repro.scenarios import ScenarioError, ScenarioSpec

            for forbidden in ("kind", "count"):
                if doc.get(forbidden) is not None:
                    raise ProtocolError(
                        "pass either 'scenario' or 'kind'/'count', not both"
                    )
            try:
                spec = ScenarioSpec.from_doc(scenario)
            except ScenarioError as exc:
                raise ProtocolError(f"malformed scenario: {exc}")
            if spec.total_events:
                raise ProtocolError(
                    "scenario workloads must not carry churn events (the "
                    "daemon's topology only mutates through /reload); "
                    "remove the phase 'events'"
                )
            return cls(scheme=scheme, scenario=spec.to_doc())
        kind = _optional_str(doc, "kind")
        if kind is None:
            raise ProtocolError("field 'kind' is required")
        if kind not in WORKLOAD_KINDS:
            raise ProtocolError(
                f"unknown workload kind {kind!r}",
                choices=list(WORKLOAD_KINDS),
            )
        count = _require_int(doc, "count")
        if count < 0:
            raise ProtocolError(f"field 'count' must be >= 0, got {count}")
        seed = _optional_int(doc, "seed")
        return cls(
            kind=kind,
            count=count,
            seed=0 if seed is None else seed,
            scheme=scheme,
        )

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"schema": SCHEMA}
        if self.scenario is not None:
            doc["scenario"] = self.scenario
        else:
            doc["kind"] = self.kind
            doc["count"] = self.count
            doc["seed"] = self.seed
        if self.scheme is not None:
            doc["scheme"] = self.scheme
        return doc


@dataclass(frozen=True)
class ReloadRequest:
    """``POST /reload``: swap in a new graph snapshot.

    Two mutually exclusive forms:

    * **snapshot** — ``family``/``n``/``seed`` (each defaulting to the
      current generation's value, so an empty body reloads the same
      graph: a fresh-artifact restart without downtime);
    * **delta** — a :class:`~repro.graph.delta.GraphDelta` document
      (``{"delta": {"ops": [...]}}``) evolved from the *current*
      generation's network through
      :meth:`~repro.api.network.Network.evolve`, carrying artifacts
      and repairing the oracle incrementally where the protocol
      applies.
    """

    family: Optional[str] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    delta: Optional[GraphDelta] = None

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ReloadRequest":
        delta_doc = doc.get("delta")
        delta: Optional[GraphDelta] = None
        if delta_doc is not None:
            if any(doc.get(f) is not None for f in ("family", "n", "seed")):
                raise ProtocolError(
                    "pass either 'delta' or 'family'/'n'/'seed', not both"
                )
            try:
                delta = GraphDelta.from_doc(delta_doc)
            except GraphError as exc:
                raise ProtocolError(f"malformed delta: {exc}")
            return cls(delta=delta)
        n = _optional_int(doc, "n")
        if n is not None and n < 2:
            raise ProtocolError(f"field 'n' must be >= 2, got {n}")
        return cls(
            family=_optional_str(doc, "family"),
            n=n,
            seed=_optional_int(doc, "seed"),
        )

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"schema": SCHEMA}
        for field in ("family", "n", "seed"):
            value = getattr(self, field)
            if value is not None:
                doc[field] = value
        if self.delta is not None:
            doc["delta"] = self.delta.to_doc()
        return doc


# ----------------------------------------------------------------------
# response encoding / decoding
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServedRoute:
    """One routed pair as it travels over the wire — the transportable
    subset of :class:`repro.api.router.RouteResult` (the hop-by-hop
    trace stays on the daemon)."""

    source: int
    dest: int
    dest_name: int
    cost: float
    hops: int
    max_header_bits: int
    stretch: float

    def to_doc(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "dest": self.dest,
            "dest_name": self.dest_name,
            "cost": self.cost,
            "hops": self.hops,
            "max_header_bits": self.max_header_bits,
            "stretch": self.stretch,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ServedRoute":
        try:
            return cls(
                source=int(doc["source"]),
                dest=int(doc["dest"]),
                dest_name=int(doc["dest_name"]),
                cost=float(doc["cost"]),
                hops=int(doc["hops"]),
                max_header_bits=int(doc["max_header_bits"]),
                stretch=float(doc["stretch"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed route result: {exc}")

    @classmethod
    def from_result(cls, result: "RouteResult") -> "ServedRoute":
        return cls(
            source=result.source,
            dest=result.dest,
            dest_name=result.dest_name,
            cost=result.cost,
            hops=result.hops,
            max_header_bits=result.max_header_bits,
            stretch=result.stretch,
        )


#: TrafficSummary fields carried verbatim over the wire
_SUMMARY_FIELDS = (
    "kind", "pairs", "total_cost", "total_hops", "mean_cost", "mean_hops",
    "max_hops", "max_header_bits", "mean_stretch", "max_stretch",
    "elapsed_s",
)


def encode_summary(summary: TrafficSummary) -> Dict[str, Any]:
    """A :class:`TrafficSummary` as a wire dict (all fields; the
    ``epochs`` key only travels for summaries that carry epoch rows)."""
    doc: Dict[str, Any] = {
        field: getattr(summary, field) for field in _SUMMARY_FIELDS
    }
    doc["worst_pair"] = list(summary.worst_pair)
    if summary.epochs:
        doc["epochs"] = [e.as_dict() for e in summary.epochs]
    return doc


def decode_summary(doc: Mapping[str, Any]) -> TrafficSummary:
    """Rebuild a :class:`TrafficSummary` from its wire dict.

    Raises:
        ProtocolError: when required fields are missing or mistyped.
    """
    try:
        worst = doc["worst_pair"]
        epochs = tuple(
            EpochStretch.from_dict(e) for e in doc.get("epochs", ())
        )
        return TrafficSummary(
            kind=str(doc["kind"]),
            pairs=int(doc["pairs"]),
            total_cost=float(doc["total_cost"]),
            total_hops=int(doc["total_hops"]),
            mean_cost=float(doc["mean_cost"]),
            mean_hops=float(doc["mean_hops"]),
            max_hops=int(doc["max_hops"]),
            max_header_bits=int(doc["max_header_bits"]),
            mean_stretch=float(doc["mean_stretch"]),
            max_stretch=float(doc["max_stretch"]),
            worst_pair=(int(worst[0]), int(worst[1])),
            elapsed_s=float(doc["elapsed_s"]),
            epochs=epochs,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ProtocolError(f"malformed traffic summary: {exc}")


def encode_results(
    results: Sequence["RouteResult"], generation: int
) -> Dict[str, Any]:
    """The ``/route_many`` response body: per-pair results in input
    order, tagged with the generation that served them."""
    return {
        "schema": SCHEMA,
        "generation": generation,
        "results": [ServedRoute.from_result(r).to_doc() for r in results],
    }


def decode_results(doc: Mapping[str, Any]) -> Tuple[int, List[ServedRoute]]:
    """Decode a ``/route_many`` response into ``(generation, routes)``."""
    results = doc.get("results")
    if not isinstance(results, list):
        raise ProtocolError("response has no 'results' list")
    generation = doc.get("generation")
    if isinstance(generation, bool) or not isinstance(generation, int):
        raise ProtocolError("response has no integer 'generation'")
    return generation, [ServedRoute.from_doc(r) for r in results]


def encode_body(doc: Mapping[str, Any]) -> bytes:
    """Serialize a response dict (schema envelope enforced)."""
    payload = dict(doc)
    payload.setdefault("schema", SCHEMA)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def decode_body(raw: bytes) -> Dict[str, Any]:
    """Parse a response body on the client side.

    Raises:
        ProtocolError: for non-JSON bodies, schema mismatches, or a
            structured error body (re-raised with its code/extras).
    """
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"response body is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProtocolError("response body must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ProtocolError(
            f"response schema {doc.get('schema')!r} does not match {SCHEMA!r}"
        )
    error = doc.get("error")
    if error is not None:
        if not isinstance(error, dict):
            raise ProtocolError("malformed error body")
        code = error.get("code", "server-error")
        if code not in ERROR_STATUS:
            code = "server-error"
        message = str(error.get("message", "unknown server error"))
        extra = {
            k: v for k, v in error.items() if k not in ("code", "message")
        }
        raise ProtocolError(message, code=code, **extra)
    return doc
