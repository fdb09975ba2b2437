"""Spans around the program's public calls, kept in memory.

A span records its name, start, end (``time.perf_counter``, which on
Linux reads the system-wide monotonic clock, so daemon and client spans
share a time base), its parent span and the request it belongs to.
Spans stay in memory and are written out when the run ends.

:func:`install` wraps the library's public entry points;
:func:`install_serve` adds the daemon's (it patches the names
``repro.serve.app`` looked up at import, since that module imports
``parse_request`` and the encoders by name).  Nothing here changes
what a wrapped call returns.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import time
from typing import Dict, Iterable, List, Optional

_parent: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)
_request: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)

#: artifact kinds timed as layer spans (other kinds, such as the
#: naming and the roundtrip metric, count toward their caller)
ARTIFACT_SPANS = {
    "oracle": "graph.oracle",
    "rtz": "rtz.substrate",
    "spanner": "rtz.spanner",
    "hierarchy": "covers.hierarchy",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "request", "attrs")

    def __init__(self, sid, parent, name, start, request, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.request = request
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end,
                self.request, self.attrs]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2], row[3], row[5], row[6])
        span.end = row[4]
        return span


class Recorder:
    """Collects spans in memory (thread-safe: ids come from one
    ``itertools.count`` and ``list.append`` is atomic)."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def new_request(self) -> int:
        return next(self._ids)

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None, **attrs):
        sid = next(self._ids)
        req = request if request is not None else _request.get()
        span = Span(sid, _parent.get(), name, 0.0, req, attrs)
        tok_p = _parent.set(sid)
        tok_r = _request.set(req)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _parent.reset(tok_p)
            _request.reset(tok_r)
            self.spans.append(span)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_list() for s in self.spans], fh)


class NullRecorder:
    """The untraced stand-in: every span is a no-op."""

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None, **attrs):
        yield None


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span.from_list(row) for row in json.load(fh)]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap(owner, attr: str, rec: Recorder, name: str) -> None:
    """Replace ``owner.attr`` with a version recording a ``name`` span."""
    fn = getattr(owner, attr)
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            with rec.span(name):
                return await fn(*args, **kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                return fn(*args, **kwargs)
    setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap the library's public entry points, one span per call."""
    from repro.api.network import Network
    from repro.api.router import Router
    from repro.runtime.simulator import Simulator
    from repro.store.store import ArtifactStore

    artifact = Network.artifact

    @functools.wraps(artifact)
    def artifact_wrapper(self, kind, **params):
        name = ARTIFACT_SPANS.get(kind)
        if name is None:
            return artifact(self, kind, **params)
        store = self.resolved_store()
        hits = store.hits if store is not None else 0
        with rec.span(name) as span:
            value = artifact(self, kind, **params)
            if store is not None and store.hits > hits:
                span.attrs["store_hit"] = True
            return value

    Network.artifact = artifact_wrapper
    _wrap(Network, "build_scheme", rec, "schemes.build")
    _wrap(Network, "evolve", rec, "graph.evolve")
    _wrap(Router, "resolve_engine", rec, "runtime.engine.compile")
    _wrap(Router, "route_many", rec, "api.route_many")
    _wrap(ArtifactStore, "get", rec, "store.get")

    roundtrip_many = Simulator.roundtrip_many

    @functools.wraps(roundtrip_many)
    def roundtrip_many_wrapper(self, pairs, by_name=False, engine="auto"):
        resolved = engine if engine != "auto" else self.resolve_engine(engine)
        layer = ("runtime.engine.batch" if resolved == "vectorized"
                 else "runtime.simulator.batch")
        with rec.span(layer) as span:
            traces = roundtrip_many(self, pairs, by_name=by_name, engine=engine)
            span.attrs["pairs"] = len(traces)
            span.attrs["hops"] = sum(t.total_hops for t in traces)
            return traces

    Simulator.roundtrip_many = roundtrip_many_wrapper


def install_serve(rec: Recorder) -> None:
    """Wrap the daemon's request path.  ``ServeApp.dispatch`` opens one
    request id that every span of the request shares; route batches run
    on broker worker threads and are tied to requests afterwards by
    :func:`contained_children`."""
    import repro.serve.app as app_mod
    from repro.serve.broker import BatchBroker
    from repro.serve.protocol import RouteManyRequest

    dispatch = app_mod.ServeApp.dispatch

    @functools.wraps(dispatch)
    async def dispatch_wrapper(self, method, path, body):
        with rec.span("serve.dispatch", request=rec.new_request(),
                      path=f"{method} {path}"):
            return await dispatch(self, method, path, body)

    app_mod.ServeApp.dispatch = dispatch_wrapper
    _wrap(app_mod, "parse_request", rec, "serve.parse")
    _wrap(app_mod, "encode_results", rec, "serve.encode")
    _wrap(app_mod, "encode_body", rec, "serve.encode")
    _wrap(app_mod, "build_app", rec, "serve.boot")
    _wrap(BatchBroker, "submit", rec, "serve.broker")

    from_doc = RouteManyRequest.from_doc.__func__

    def from_doc_wrapper(cls, doc):
        with rec.span("serve.parse"):
            return from_doc(cls, doc)

    RouteManyRequest.from_doc = classmethod(from_doc_wrapper)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def contained_children(spans: List[Span], parent_name: str,
                       child_name: str) -> Dict[int, List[Span]]:
    """``parent id -> child_name spans inside its interval`` for
    parentless children (a coalesced batch can serve several
    requests, so it may count toward each)."""
    out: Dict[int, List[Span]] = {}
    kids = [c for c in spans if c.name == child_name and c.parent is None]
    for p in spans:
        if p.name != parent_name:
            continue
        out[p.id] = [c for c in kids if p.start <= c.start and c.end <= p.end]
    return out


def union_length(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, kids: Dict[int, List[Span]],
              extra: Iterable[Span] = ()) -> float:
    """The span's duration minus the part its child spans cover."""
    covered = [(c.start, c.end) for c in kids.get(span.id, ())]
    covered += [(c.start, c.end) for c in extra]
    return span.duration - union_length(covered, span.start, span.end)


def root_of(span: Span, by_id: Dict[int, Span]) -> Span:
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
    return span
