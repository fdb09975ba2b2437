"""The synchronous daemon client (library + ``repro client`` backend).

A thin, dependency-free HTTP/1.1 client over :mod:`http.client`,
speaking the ``repro-serve/1`` protocol.  One :class:`ServeClient`
holds one keep-alive connection (reconnecting transparently when the
daemon closes it), so request loops pay connection setup once; for
concurrent load, give each thread its own client.

Structured daemon errors surface as
:class:`~repro.serve.protocol.ProtocolError` with the wire code and
extras (``exc.code == "unknown-scheme"`` carries ``choices``);
transport failures (daemon not running, connection refused) surface as
:class:`ServeConnectionError`.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.graph.delta import GraphDelta
from repro.runtime.traffic import TrafficSummary
from repro.serve.protocol import (
    ProtocolError,
    ReloadRequest,
    RouteManyRequest,
    ServedRoute,
    WorkloadRequest,
    decode_body,
    decode_results,
    decode_summary,
)


#: how a kept-alive connection that the daemon closed fails
_DROPPED = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


class ServeConnectionError(ReproError):
    """The daemon could not be reached (not running, wrong port, or a
    connection dropped mid-request)."""


class ServeClient:
    """A session against one running daemon.

    Args:
        host: daemon host.
        port: daemon port.
        timeout: per-request socket timeout in seconds (reloads build
            whole networks — size it for the graphs you serve).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8577,
        timeout: float = 120.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Drop the kept-alive connection."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(
        self, method: str, path: str, doc: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        while True:
            conn = self._connection()
            # A kept-alive connection the daemon closed while it was
            # idle fails before any response byte; only then is the
            # request sent again, once, on a fresh connection.  Nothing
            # else is retried: after a timeout the daemon may still be
            # serving it (a delta reload sent twice applies twice).
            stale = conn.sock is not None
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                stale = False
                payload = response.read()
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                if stale and isinstance(exc, _DROPPED):
                    continue
                raise ServeConnectionError(
                    f"cannot reach repro-serve at "
                    f"{self.host}:{self.port}: {exc}"
                ) from exc
            return decode_body(payload)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """Liveness + the current generation descriptor."""
        return self._request("GET", "/healthz")

    def schemes(self) -> Dict[str, Any]:
        """The daemon's scheme registry view."""
        return self._request("GET", "/schemes")

    def stats(self) -> Dict[str, Any]:
        """Live session/store/broker/server counters."""
        return self._request("GET", "/stats")

    def route(
        self, source: int, dest: int, scheme: Optional[str] = None
    ) -> Tuple[int, ServedRoute]:
        """Route one pair; returns ``(generation, result)``."""
        generation, results = self.route_many([(source, dest)], scheme=scheme)
        return generation, results[0]

    def route_many(
        self,
        pairs: Sequence[Tuple[int, int]],
        scheme: Optional[str] = None,
    ) -> Tuple[int, List[ServedRoute]]:
        """Route a batch; returns ``(generation, results)`` in input
        order.  Concurrent calls coalesce into shared engine batches
        daemon-side; results are bit-identical either way."""
        req = RouteManyRequest(pairs=tuple(pairs), scheme=scheme)
        doc = self._request("POST", "/route_many", req.to_doc())
        return decode_results(doc)

    def workload(
        self,
        kind: Optional[str] = None,
        count: int = 0,
        seed: int = 0,
        scheme: Optional[str] = None,
        scenario: Any = None,
    ) -> Tuple[int, TrafficSummary]:
        """Generate and route a workload daemon-side; returns
        ``(generation, summary)`` with the summary decoded back into a
        :class:`TrafficSummary` (its ``format()`` matches the offline
        ``repro traffic`` block).

        Pass either ``kind``/``count``/``seed`` (a named workload) or
        ``scenario`` — a ``repro-scenario/1`` spec, file path, or
        document — to replay the spec's phase sequence against the
        daemon's loaded graph (event-carrying specs are rejected)."""
        if scenario is not None:
            from repro.scenarios import load_scenario

            spec = load_scenario(scenario)
            req = WorkloadRequest(scheme=scheme, scenario=spec.to_doc())
        else:
            if kind is None:
                raise ProtocolError("workload needs a kind or a scenario")
            req = WorkloadRequest(
                kind=kind, count=count, seed=seed, scheme=scheme
            )
        doc = self._request("POST", "/workload", req.to_doc())
        summary_doc = doc.get("summary")
        if not isinstance(summary_doc, dict):
            raise ProtocolError("response has no 'summary' object")
        generation = doc.get("generation")
        if not isinstance(generation, int):
            raise ProtocolError("response has no integer 'generation'")
        return generation, decode_summary(summary_doc)

    def reload(
        self,
        family: Optional[str] = None,
        n: Optional[int] = None,
        seed: Optional[int] = None,
        delta: Any = None,
    ) -> Dict[str, Any]:
        """Gracefully swap the daemon's graph snapshot; omitted fields
        keep their current values.  Blocks until the new generation
        serves and the old one drained.

        ``delta`` — a :class:`~repro.graph.delta.GraphDelta` or its
        document form — evolves the *current* generation's network
        instead of building a fresh snapshot (mutually exclusive with
        family/n/seed); the response's ``delta`` block reports the
        applied ops and the repair accounting."""
        if delta is not None and not isinstance(delta, GraphDelta):
            delta = GraphDelta.from_doc(delta)
        req = ReloadRequest(family=family, n=n, seed=seed, delta=delta)
        return self._request("POST", "/reload", req.to_doc())
