"""Topology mutation as a value: :class:`GraphDelta` and its ops.

The paper's Section 6 names dynamic maintenance as *the* open problem —
the whole point of the TINN model is that names survive topology
change.  This module makes a topology change a first-class value
instead of a one-off graph copy: a :class:`GraphDelta` is an ordered
sequence of mutation ops —

* :class:`Reweight` — one edge's weight replaced;
* :class:`LinkDown` / :class:`LinkUp` — one edge removed / added;
* :class:`Departure` — one node (and its incident edges) removed,
  vertex ids above it shifting down by one;
* :class:`Arrival` — one node appended (id ``n``) with explicit
  out/in edges —

that :meth:`repro.graph.digraph.Digraph.apply_delta` folds into a new
frozen graph, preserving the fixed-port numbers of every surviving
edge (so forwarding state that stores ports keeps meaning across the
change).  Deltas round-trip through plain JSON documents
(:meth:`GraphDelta.to_doc` / :meth:`GraphDelta.from_doc`), which is
the wire form ``POST /reload`` speaks; a scenario phase's explicit
churn events parse their operands the same way (:func:`op_from_doc`).

Ops apply *in order*: vertex ids in later ops refer to the graph as
mutated by the earlier ones (after a :class:`Departure` of ``x``, ids
above ``x`` have already shifted down).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Union

from repro.exceptions import GraphError


@dataclass(frozen=True)
class Reweight:
    """Replace edge ``tail -> head``'s weight with ``weight``."""

    tail: int
    head: int
    weight: float


@dataclass(frozen=True)
class LinkDown:
    """Remove the edge ``tail -> head`` (its port is freed)."""

    tail: int
    head: int


@dataclass(frozen=True)
class LinkUp:
    """Add the edge ``tail -> head`` with ``weight``; it receives the
    smallest port number not in use at ``tail``."""

    tail: int
    head: int
    weight: float


@dataclass(frozen=True)
class Departure:
    """Remove vertex ``node`` and every incident edge; ids above
    ``node`` shift down by one (surviving ports are untouched)."""

    node: int


@dataclass(frozen=True)
class Arrival:
    """Append one vertex (it receives id ``n``) with explicit edges.

    Attributes:
        out_edges: ``((head, weight), ...)`` — the new node's out-edges,
            ported ``0..k-1`` in the given order.
        in_edges: ``((tail, weight), ...)`` — edges into the new node;
            each tail assigns the smallest port it has free.
    """

    out_edges: Tuple[Tuple[int, float], ...]
    in_edges: Tuple[Tuple[int, float], ...]


#: Every delta op type, in documentation order.
DeltaOp = Union[Reweight, LinkDown, LinkUp, Departure, Arrival]

#: JSON ``op`` tags, aligned with the op dataclasses.
OP_NAMES = ("reweight", "link_down", "link_up", "departure", "arrival")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GraphError(msg)


def _is_integer(value: Any) -> bool:
    """Whether ``value`` is an integer (Python or numpy; not a bool)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """Whether ``value`` is a real number (Python or numpy; not a bool)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _edge_pairs(doc: Any, what: str) -> Tuple[Tuple[int, float], ...]:
    _require(isinstance(doc, (list, tuple)), f"{what} must be a list")
    out: List[Tuple[int, float]] = []
    for item in doc:
        _require(
            isinstance(item, (list, tuple)) and len(item) == 2
            and _is_integer(item[0]) and is_number(item[1]),
            f"{what} entries must be [vertex, weight] pairs, got {item!r}",
        )
        out.append((int(item[0]), float(item[1])))
    return tuple(out)


def op_from_doc(doc: Any) -> DeltaOp:
    """Parse one op document, ``{"op": <tag>, <operands>}``: the form
    :meth:`GraphDelta.to_doc` writes for each op.

    Raises:
        GraphError: naming the op for an unknown tag, a missing operand,
            a vertex that is not an integer (``3.0`` and ``"3"`` are
            not) or a weight that is not a number.
    """
    _require(isinstance(doc, dict), "each delta op must be an object")
    tag = doc.get("op")
    _require(
        tag in OP_NAMES, f"unknown delta op {tag!r}; expected one of {OP_NAMES}"
    )

    def operand(key: str, check, what: str):
        _require(key in doc, f"malformed {tag!r} op: missing {key!r}")
        value = doc[key]
        _require(
            check(value),
            f"malformed {tag!r} op: {key!r} must be {what}, got {value!r}",
        )
        return value

    def vertex(key: str) -> int:
        return int(operand(key, _is_integer, "an integer vertex"))

    def weight() -> float:
        return float(operand("weight", is_number, "a number"))

    if tag == "reweight":
        return Reweight(vertex("tail"), vertex("head"), weight())
    if tag == "link_down":
        return LinkDown(vertex("tail"), vertex("head"))
    if tag == "link_up":
        return LinkUp(vertex("tail"), vertex("head"), weight())
    if tag == "departure":
        return Departure(vertex("node"))
    return Arrival(
        _edge_pairs(doc.get("out", []), "arrival 'out'"),
        _edge_pairs(doc.get("in", []), "arrival 'in'"),
    )


@dataclass(frozen=True)
class GraphDelta:
    """An ordered, immutable sequence of topology mutation ops.

    Construct directly from op values, via the convenience
    constructors (:meth:`reweight`, :meth:`link_down`, ...), or from a
    JSON document (:meth:`from_doc`).
    """

    ops: Tuple[DeltaOp, ...]

    def __post_init__(self) -> None:
        _require(len(self.ops) > 0, "a GraphDelta needs at least one op")
        for op in self.ops:
            _require(
                isinstance(op, (Reweight, LinkDown, LinkUp, Departure, Arrival)),
                f"unknown delta op {op!r}",
            )

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def reweight(cls, tail: int, head: int, weight: float) -> "GraphDelta":
        """A single-op reweight delta."""
        return cls((Reweight(int(tail), int(head), float(weight)),))

    @classmethod
    def link_down(cls, tail: int, head: int) -> "GraphDelta":
        """A single-op edge-removal delta."""
        return cls((LinkDown(int(tail), int(head)),))

    @classmethod
    def link_up(cls, tail: int, head: int, weight: float) -> "GraphDelta":
        """A single-op edge-addition delta."""
        return cls((LinkUp(int(tail), int(head), float(weight)),))

    @classmethod
    def departure(cls, node: int) -> "GraphDelta":
        """A single-op node-removal delta."""
        return cls((Departure(int(node)),))

    @classmethod
    def arrival(cls, out_edges, in_edges) -> "GraphDelta":
        """A single-op node-arrival delta."""
        return cls((
            Arrival(
                tuple((int(h), float(w)) for h, w in out_edges),
                tuple((int(t), float(w)) for t, w in in_edges),
            ),
        ))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def same_n(self) -> bool:
        """Whether the delta preserves the vertex count (no arrivals or
        departures) — the regime the incremental APSP repair protocol
        (:mod:`repro.graph.repair`) supports."""
        return not any(
            isinstance(op, (Departure, Arrival)) for op in self.ops
        )

    def op_names(self) -> List[str]:
        """The JSON tag of each op, in order (accounting labels)."""
        tags = {
            Reweight: "reweight", LinkDown: "link_down", LinkUp: "link_up",
            Departure: "departure", Arrival: "arrival",
        }
        return [tags[type(op)] for op in self.ops]

    # ------------------------------------------------------------------
    # JSON round-trip (the /reload wire form)
    # ------------------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """The plain-JSON document form: ``{"ops": [{"op": ...}, ...]}``."""
        docs: List[Dict[str, Any]] = []
        for op in self.ops:
            if isinstance(op, Reweight):
                docs.append({
                    "op": "reweight", "tail": op.tail, "head": op.head,
                    "weight": op.weight,
                })
            elif isinstance(op, LinkDown):
                docs.append({"op": "link_down", "tail": op.tail, "head": op.head})
            elif isinstance(op, LinkUp):
                docs.append({
                    "op": "link_up", "tail": op.tail, "head": op.head,
                    "weight": op.weight,
                })
            elif isinstance(op, Departure):
                docs.append({"op": "departure", "node": op.node})
            else:
                docs.append({
                    "op": "arrival",
                    "out": [[h, w] for h, w in op.out_edges],
                    "in": [[t, w] for t, w in op.in_edges],
                })
        return {"ops": docs}

    @classmethod
    def from_doc(cls, doc: Any) -> "GraphDelta":
        """Parse the document form back into a :class:`GraphDelta`.

        Raises:
            GraphError: for a malformed document (wrong shapes, or an op
                :func:`op_from_doc` rejects, named by its index).
        """
        _require(isinstance(doc, dict), "delta document must be an object")
        op_docs = doc.get("ops")
        _require(isinstance(op_docs, list), "delta document needs an 'ops' list")
        ops = []
        for i, od in enumerate(op_docs):
            try:
                ops.append(op_from_doc(od))
            except GraphError as exc:
                raise GraphError(f"ops[{i}]: {exc}")
        return cls(tuple(ops))

    def __len__(self) -> int:
        return len(self.ops)
