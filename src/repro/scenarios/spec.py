"""The ``repro-scenario/1`` declarative scenario document.

A scenario is the whole experiment as data: the graph (a generator
family or an edgelist snapshot), the traffic shape (a sequence of
workload *phases*, optionally interleaved with churn events), the
execution matrix (the schemes to run), and the declarative
assertions the run must satisfy.  Committing a JSON file under
``scenarios/`` is enough for the CLI (``repro scenario run``), CI (the
``scenario-matrix`` job), and the serve daemon (``repro client workload
--scenario``) to pick it up — coverage grows by committing data, not
Python.

The document format::

    {"schema": "repro-scenario/1",
     "name": "flash-crowd-surge",
     "summary": "a thundering herd against a power-law graph",
     "seed": 7,
     "graph": {"family": "power-law", "n": 64,
               "params": {"exponent": 2.1}},
     "workload": {"phases": [
         {"kind": "uniform", "pairs": 128},
         {"kind": "flash-crowd", "pairs": 256,
          "params": {"targets": 2, "bias": 0.9},
          "events": [{"op": "reweight"}]}]},
     "matrix": {"schemes": ["stretch6"]},
     "assertions": {"stretch_within_bound": true,
                    "min_pairs_per_s": 10.0,
                    "expect_epochs": 2}}

A phase's churn ``events`` are bare (``{"op": "link_down"}``, drawn
from the spec seed at run time) or carry their operands
(``{"op": "link_up", "tail": 0, "head": 5, "weight": 2.5}``); see
:mod:`repro.runtime.churn`.

Validation is strict and loud: unknown keys anywhere, a family or
workload kind outside the registries, a churn event with a missing or
mistyped operand, or a missing seed all raise
:class:`ScenarioError` with an exact, stable message (the golden
fixtures in ``tests/test_scenarios.py`` pin them).  Every spec
round-trips ``from_doc(to_doc(spec)) == spec``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graph.delta import OP_NAMES
from repro.graph.generators import FAMILY_NAMES
from repro.runtime.churn import explicit_op
from repro.runtime.simulator import EXECUTION_ENGINES
from repro.runtime.traffic import WORKLOAD_KINDS

#: scenario document schema identifier (bump on incompatible change)
SCHEMA = "repro-scenario/1"

#: values a matrix's ``tables`` list may hold; the key has no effect
#: (see :class:`MatrixSpec`)
_TABLE_VALUES = ("auto", "dense", "blocked")

#: phase kinds: every workload kind plus explicit trace replay
PHASE_KINDS = WORKLOAD_KINDS + ("trace",)

#: graph families: every generator family plus edgelist snapshots
GRAPH_FAMILIES = FAMILY_NAMES + ("edgelist",)

#: smoke-mode clamps (CI runs every committed spec at this size)
SMOKE_MAX_N = 48
SMOKE_MAX_PAIRS = 96

_TOP_KEYS = (
    "schema", "name", "summary", "seed", "graph", "workload", "matrix",
    "assertions",
)
_GRAPH_KEYS = ("family", "n", "params", "path", "edges")
_PHASE_KEYS = ("kind", "pairs", "params", "events", "trace")
_MATRIX_KEYS = ("schemes", "engines", "tables", "jobs", "params")
_ASSERT_KEYS = (
    "stretch_within_bound", "max_stretch", "min_pairs_per_s",
    "expect_epochs", "expect_generations",
)


class ScenarioError(GraphError):
    """Raised for malformed scenario documents (unknown keys, bad
    families, contradictory matrices, missing seeds, ...).  A
    :class:`~repro.exceptions.GraphError` subclass so every existing
    catch site handles spec failures uniformly."""


def _check_keys(doc: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = sorted(k for k in doc if k not in allowed)
    if unknown:
        raise ScenarioError(
            f"unknown {where} key(s): {', '.join(unknown)}; "
            f"expected {', '.join(allowed)}"
        )


def _check_params(value: Any, where: str) -> Dict[str, Any]:
    """Validate a free-form ``params`` block: a JSON object whose
    values are scalars (they forward as keyword arguments)."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be an object, got {value!r}")
    for key, item in value.items():
        if not isinstance(key, str):
            raise ScenarioError(f"{where} keys must be strings, got {key!r}")
        if item is not None and not isinstance(item, (bool, int, float, str)):
            raise ScenarioError(
                f"{where}[{key!r}] must be a scalar, got {item!r}"
            )
    return dict(value)


def _str_list(value: Any, where: str) -> Tuple[str, ...]:
    if (
        not isinstance(value, list)
        or not value
        or any(not isinstance(v, str) for v in value)
    ):
        raise ScenarioError(
            f"{where} must be a non-empty list of strings, got {value!r}"
        )
    return tuple(value)


@dataclass(frozen=True)
class GraphSpec:
    """The scenario's graph block.

    Either a generator family (``family`` + ``n`` + optional
    ``params``) or an edgelist snapshot (``family: "edgelist"`` with
    exactly one of ``path`` — resolved against the spec file's
    directory — or inline ``edges`` rows ``[tail, head, weight]``).
    """

    family: str
    n: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    path: Optional[str] = None
    edges: Tuple[Tuple[int, int, float], ...] = ()

    @classmethod
    def from_doc(cls, doc: Any) -> "GraphSpec":
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"scenario 'graph' must be an object, got {doc!r}"
            )
        _check_keys(doc, _GRAPH_KEYS, "graph")
        family = doc.get("family")
        if family not in GRAPH_FAMILIES:
            raise ScenarioError(
                f"unknown scenario graph family {family!r}; choose from "
                f"{GRAPH_FAMILIES}"
            )
        if family == "edgelist":
            for forbidden in ("n", "params"):
                if doc.get(forbidden) is not None:
                    raise ScenarioError(
                        f"edgelist graphs derive {forbidden!r} from the "
                        f"edge rows; remove it"
                    )
            path = doc.get("path")
            edges = doc.get("edges")
            if (path is None) == (edges is None):
                raise ScenarioError(
                    "edgelist graphs need exactly one of 'path' or 'edges'"
                )
            if path is not None:
                if not isinstance(path, str) or not path:
                    raise ScenarioError(
                        f"graph 'path' must be a non-empty string, got {path!r}"
                    )
                return cls(family=family, path=path)
            return cls(family=family, edges=_check_edges(edges))
        for forbidden in ("path", "edges"):
            if doc.get(forbidden) is not None:
                raise ScenarioError(
                    f"graph {forbidden!r} only applies to the 'edgelist' "
                    f"family"
                )
        n = doc.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise ScenarioError(
                f"graph 'n' must be an integer >= 2, got {n!r}"
            )
        return cls(
            family=family, n=n,
            params=_check_params(doc.get("params"), "graph params"),
        )

    def to_doc(self) -> Dict[str, Any]:
        if self.family == "edgelist":
            doc: Dict[str, Any] = {"family": self.family}
            if self.path is not None:
                doc["path"] = self.path
            else:
                doc["edges"] = [[t, h, w] for t, h, w in self.edges]
            return doc
        return {"family": self.family, "n": self.n, "params": dict(self.params)}


def _check_edges(value: Any) -> Tuple[Tuple[int, int, float], ...]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(
            f"graph 'edges' must be a non-empty list of "
            f"[tail, head, weight] rows, got {value!r}"
        )
    rows = []
    for i, row in enumerate(value):
        ok = (
            isinstance(row, (list, tuple))
            and len(row) in (2, 3)
            and all(isinstance(v, bool) is False for v in row[:2])
            and all(isinstance(v, int) for v in row[:2])
            and (len(row) == 2 or isinstance(row[2], (int, float)))
        )
        if not ok:
            raise ScenarioError(
                f"edges[{i}] must be [tail, head] or [tail, head, weight], "
                f"got {row!r}"
            )
        weight = float(row[2]) if len(row) == 3 else 1.0
        rows.append((int(row[0]), int(row[1]), weight))
    return tuple(rows)


@dataclass(frozen=True)
class PhaseSpec:
    """One workload phase: a batch of pairs (generated by ``kind``, or
    replayed verbatim for ``kind: "trace"``), optionally preceded by
    churn events materialized against the current generation."""

    kind: str
    pairs: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    events: Tuple[Mapping[str, Any], ...] = ()
    trace: Tuple[Tuple[int, int], ...] = ()

    @classmethod
    def from_doc(cls, doc: Any, index: int) -> "PhaseSpec":
        where = f"phases[{index}]"
        if not isinstance(doc, dict):
            raise ScenarioError(f"{where} must be an object, got {doc!r}")
        _check_keys(doc, _PHASE_KEYS, where)
        kind = doc.get("kind")
        if kind not in PHASE_KINDS:
            raise ScenarioError(
                f"{where}.kind {kind!r} unknown; choose from {PHASE_KINDS}"
            )
        events = doc.get("events", [])
        if not isinstance(events, list):
            raise ScenarioError(f"{where}.events must be a list")
        for j, ev in enumerate(events):
            if not isinstance(ev, dict) or ev.get("op") not in OP_NAMES:
                raise ScenarioError(
                    f"{where}.events[{j}] must be an object with 'op' in "
                    f"{OP_NAMES}, got {ev!r}"
                )
            try:
                explicit_op(ev)
            except GraphError as exc:
                raise ScenarioError(f"{where}.events[{j}]: {exc}")
        if kind == "trace":
            for forbidden in ("pairs", "params"):
                if doc.get(forbidden) is not None:
                    raise ScenarioError(
                        f"{where}.{forbidden} does not apply to trace "
                        f"phases (the trace defines the pairs)"
                    )
            trace = doc.get("trace")
            if not isinstance(trace, list) or not trace:
                raise ScenarioError(
                    f"{where}.trace must be a non-empty list of "
                    f"[source, dest] pairs"
                )
            pairs = []
            for j, item in enumerate(trace):
                ok = (
                    isinstance(item, (list, tuple))
                    and len(item) == 2
                    and all(
                        not isinstance(v, bool) and isinstance(v, int)
                        and v >= 0
                        for v in item
                    )
                    and item[0] != item[1]
                )
                if not ok:
                    raise ScenarioError(
                        f"{where}.trace[{j}] must be a [source, dest] pair "
                        f"of distinct non-negative integers, got {item!r}"
                    )
                pairs.append((int(item[0]), int(item[1])))
            return cls(
                kind=kind, pairs=len(pairs),
                events=tuple(dict(ev) for ev in events),
                trace=tuple(pairs),
            )
        if doc.get("trace") is not None:
            raise ScenarioError(
                f"{where}.trace only applies to 'trace' phases"
            )
        pairs = doc.get("pairs")
        if isinstance(pairs, bool) or not isinstance(pairs, int) or pairs < 0:
            raise ScenarioError(
                f"{where}.pairs must be a non-negative integer, got {pairs!r}"
            )
        return cls(
            kind=kind, pairs=pairs,
            params=_check_params(doc.get("params"), f"{where}.params"),
            events=tuple(dict(ev) for ev in events),
        )

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "trace":
            doc["trace"] = [[s, t] for s, t in self.trace]
        else:
            doc["pairs"] = self.pairs
            doc["params"] = dict(self.params)
        if self.events:
            doc["events"] = [dict(ev) for ev in self.events]
        return doc


@dataclass(frozen=True)
class MatrixSpec:
    """The execution matrix: one run per scheme, each a cell.

    ``engines``, ``tables`` and ``jobs`` are parsed and validated so
    that every spec written when they chose an engine, a table storage
    or a shard partition still loads, and none has an effect: the
    compiled engine routes every registered scheme bit-identically to
    the python one, each table kind has one storage, and a workload's
    summary does not depend on how it is cut
    (:func:`repro.runtime.traffic.run_workload`).  None of the three is
    kept after validation."""

    schemes: Tuple[str, ...] = ("stretch6",)
    params: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_doc(cls, doc: Any) -> "MatrixSpec":
        from repro.api.registry import scheme_names

        if doc is None:
            return cls()
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"scenario 'matrix' must be an object, got {doc!r}"
            )
        _check_keys(doc, _MATRIX_KEYS, "matrix")
        schemes = (
            _str_list(doc["schemes"], "matrix 'schemes'")
            if "schemes" in doc else cls.schemes
        )
        known = scheme_names()
        for name in schemes:
            if name not in known:
                raise ScenarioError(
                    f"matrix scheme {name!r} unknown; choose from "
                    f"{', '.join(known)}"
                )
        for engine in _str_list(doc.get("engines", ["auto"]), "matrix 'engines'"):
            if engine not in EXECUTION_ENGINES:
                raise ScenarioError(
                    f"matrix engine {engine!r} unknown; choose from "
                    f"{EXECUTION_ENGINES}"
                )
        for value in _str_list(doc.get("tables", ["auto"]), "matrix 'tables'"):
            if value not in _TABLE_VALUES:
                raise ScenarioError(
                    f"matrix table family {value!r} unknown; choose from "
                    f"{_TABLE_VALUES}"
                )
        jobs = doc.get("jobs", [1])
        if (
            not isinstance(jobs, list)
            or not jobs
            or any(
                isinstance(j, bool) or not isinstance(j, int) or j < 1
                for j in jobs
            )
        ):
            raise ScenarioError(
                f"matrix 'jobs' must be a non-empty list of integers >= 1, "
                f"got {jobs!r}"
            )
        return cls(
            schemes=schemes,
            params=_check_params(doc.get("params"), "matrix params"),
        )

    def to_doc(self) -> Dict[str, Any]:
        return {"schemes": list(self.schemes), "params": dict(self.params)}

    @property
    def cells(self) -> int:
        """Matrix cells (one result block each)."""
        return len(self.schemes)


@dataclass(frozen=True)
class AssertionSpec:
    """Declarative pass/fail criteria evaluated per matrix cell.

    ``stretch_within_bound`` checks the measured worst stretch against
    the scheme's *claimed* bound (the paper's guarantee); the rest are
    explicit numeric criteria.  Throughput floors are skipped — never
    failed — when the run is too small for the clock to measure.
    """

    stretch_within_bound: bool = True
    max_stretch: Optional[float] = None
    min_pairs_per_s: Optional[float] = None
    expect_epochs: Optional[int] = None
    expect_generations: Optional[int] = None

    @classmethod
    def from_doc(cls, doc: Any) -> "AssertionSpec":
        if doc is None:
            return cls()
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"scenario 'assertions' must be an object, got {doc!r}"
            )
        _check_keys(doc, _ASSERT_KEYS, "assertions")
        within = doc.get("stretch_within_bound", True)
        if not isinstance(within, bool):
            raise ScenarioError(
                f"assertions 'stretch_within_bound' must be a boolean, "
                f"got {within!r}"
            )
        def positive_float(key: str) -> Optional[float]:
            value = doc.get(key)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or value <= 0:
                raise ScenarioError(
                    f"assertions {key!r} must be a positive number, "
                    f"got {value!r}"
                )
            return float(value)

        def positive_int(key: str) -> Optional[int]:
            value = doc.get(key)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ScenarioError(
                    f"assertions {key!r} must be an integer >= 1, "
                    f"got {value!r}"
                )
            return value

        return cls(
            stretch_within_bound=within,
            max_stretch=positive_float("max_stretch"),
            min_pairs_per_s=positive_float("min_pairs_per_s"),
            expect_epochs=positive_int("expect_epochs"),
            expect_generations=positive_int("expect_generations"),
        )

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "stretch_within_bound": self.stretch_within_bound,
        }
        for key in (
            "max_stretch", "min_pairs_per_s", "expect_epochs",
            "expect_generations",
        ):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario (see the module docstring's format).

    ``base_dir`` (excluded from equality and :meth:`to_doc`) records
    the directory a file-loaded spec came from, so relative edgelist
    paths resolve against the spec file rather than the process cwd.
    """

    name: str
    seed: int
    graph: GraphSpec
    phases: Tuple[PhaseSpec, ...]
    matrix: MatrixSpec = field(default_factory=MatrixSpec)
    assertions: AssertionSpec = field(default_factory=AssertionSpec)
    summary: str = ""
    base_dir: Optional[str] = field(default=None, compare=False)

    @classmethod
    def from_doc(cls, doc: Any, base_dir: Optional[str] = None) -> "ScenarioSpec":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a JSON object")
        _check_keys(doc, _TOP_KEYS, "scenario")
        schema = doc.get("schema")
        if schema != SCHEMA:
            raise ScenarioError(
                f"scenario 'schema' must be {SCHEMA!r}, got {schema!r}"
            )
        seed = doc.get("seed")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ScenarioError(
                "scenario 'seed' is required and must be an integer"
            )
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioError(
                f"scenario 'name' must be a non-empty string, got {name!r}"
            )
        summary = doc.get("summary", "")
        if not isinstance(summary, str):
            raise ScenarioError(
                f"scenario 'summary' must be a string, got {summary!r}"
            )
        if "graph" not in doc:
            raise ScenarioError("scenario needs a 'graph' object")
        graph = GraphSpec.from_doc(doc["graph"])
        workload = doc.get("workload")
        if not isinstance(workload, dict):
            raise ScenarioError(
                f"scenario needs a 'workload' object, got {workload!r}"
            )
        _check_keys(workload, ("phases",), "workload")
        raw_phases = workload.get("phases")
        if not isinstance(raw_phases, list) or not raw_phases:
            raise ScenarioError(
                "scenario workload needs a non-empty 'phases' list"
            )
        phases = tuple(
            PhaseSpec.from_doc(p, i) for i, p in enumerate(raw_phases)
        )
        return cls(
            name=name,
            seed=seed,
            graph=graph,
            phases=phases,
            matrix=MatrixSpec.from_doc(doc.get("matrix")),
            assertions=AssertionSpec.from_doc(doc.get("assertions")),
            summary=summary,
            base_dir=base_dir,
        )

    def to_doc(self) -> Dict[str, Any]:
        """The normalized document form (defaults materialized);
        round-trips exactly through :meth:`from_doc`."""
        return {
            "schema": SCHEMA,
            "name": self.name,
            "summary": self.summary,
            "seed": self.seed,
            "graph": self.graph.to_doc(),
            "workload": {"phases": [p.to_doc() for p in self.phases]},
            "matrix": self.matrix.to_doc(),
            "assertions": self.assertions.to_doc(),
        }

    @property
    def total_pairs(self) -> int:
        """Pairs routed per matrix cell (trace phases count their
        replayed pairs)."""
        return sum(p.pairs for p in self.phases)

    @property
    def total_events(self) -> int:
        """Churn event documents across every phase."""
        return sum(len(p.events) for p in self.phases)

    def smoke(
        self, max_n: int = SMOKE_MAX_N, max_pairs: int = SMOKE_MAX_PAIRS
    ) -> "ScenarioSpec":
        """A clamped copy for CI smoke runs: generator graphs shrink to
        ``max_n`` and each generated phase to ``max_pairs`` pairs.
        Edgelist graphs and trace phases are replayed verbatim (their
        data *is* the scenario), so keep them small in committed specs.
        Still fully deterministic from the spec seed."""
        graph = self.graph
        if graph.family != "edgelist" and (graph.n or 0) > max_n:
            graph = replace(graph, n=max_n)
        phases = tuple(
            p if p.kind == "trace" or p.pairs <= max_pairs
            else replace(p, pairs=max_pairs)
            for p in self.phases
        )
        return replace(self, graph=graph, phases=phases)


def load_scenario(source: Any) -> ScenarioSpec:
    """Load a scenario from a file path, a JSON string, or a dict.

    File-loaded specs remember their directory (``base_dir``) so
    relative edgelist ``path`` fields resolve against the spec file.

    Raises:
        ScenarioError: for unreadable files, invalid JSON, or
            malformed documents.
    """
    if isinstance(source, ScenarioSpec):
        return source
    if isinstance(source, dict):
        return ScenarioSpec.from_doc(source)
    base_dir: Optional[str] = None
    text = str(source)
    if not text.lstrip().startswith("{"):
        path = Path(text)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}")
        base_dir = str(path.resolve().parent)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}")
    return ScenarioSpec.from_doc(doc, base_dir=base_dir)
