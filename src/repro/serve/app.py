"""The asyncio HTTP daemon: endpoints, admission control, lifecycle.

A deliberately small HTTP/1.1 server on raw ``asyncio`` streams — no
framework dependency — speaking the ``repro-serve/1`` JSON protocol
(:mod:`repro.serve.protocol`).  Endpoints:

==============  ======  ====================================================
path            method  meaning
==============  ======  ====================================================
``/healthz``    GET     liveness + current generation descriptor
``/schemes``    GET     the scheme registry (names, bounds, params)
``/stats``      GET     live session/store/broker/server counters
``/route``      POST    one pair (coalesced with concurrent traffic)
``/route_many`` POST    a pair batch (coalesced with concurrent traffic)
``/workload``   POST    generate + route a named workload server-side
``/reload``     POST    graceful graph-snapshot swap (zero dropped)
==============  ======  ====================================================

Admission control is two-layered: the request gate sheds with HTTP 429
once ``max_inflight`` requests are being served, and the per-generation
:class:`~repro.serve.broker.BatchBroker` sheds when its pending-pair
backlog is full.  Shedding is immediate — the daemon never queues
unboundedly.  A batch larger than the whole backlog could never be
admitted, so it is a 400 ``bad-request``, not a 429 to retry.

Run it in the foreground with :func:`serve_forever` (the ``repro
serve`` CLI) or in a background thread with :class:`ServeDaemon`
(tests, benchmarks).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.api import UnknownSchemeError, all_specs, scheme_names
from repro.exceptions import ReproError
from repro.runtime.traffic import check_pairs
from repro.serve.broker import DEFAULT_MAX_QUEUE, OverloadedError
from repro.serve.lifecycle import Lifecycle
from repro.serve.protocol import (
    ProtocolError,
    ReloadRequest,
    RouteManyRequest,
    SCHEMA,
    WorkloadRequest,
    encode_body,
    encode_results,
    encode_summary,
    parse_request,
)

#: default daemon port (unassigned in the IANA registry)
DEFAULT_PORT = 8577

#: largest accepted request body (a ``/route_many`` batch holds at most
#: ``max_queue`` pairs, far below it; more should be a workload request)
MAX_BODY_BYTES = 32 << 20

_MAX_HEADER_LINE = 64 << 10


@dataclass
class ServeConfig:
    """Everything needed to stand up a daemon.

    Attributes mirror the ``repro serve`` CLI flags (an omitted flag
    keeps the default here); ``schemes`` lists the pre-built schemes
    (first entry is the default for requests that omit one).
    ``max_inflight`` and ``max_queue`` are the two shedding gates; the
    broker has no other setting.
    """

    family: str = "random"
    n: int = 64
    seed: int = 0
    schemes: Tuple[str, ...] = ("stretch6",)
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    max_inflight: int = 256
    max_queue: int = DEFAULT_MAX_QUEUE
    store: Any = "auto"


@dataclass
class ServerCounters:
    """Daemon-level request accounting (the ``server`` stats block)."""

    requests: int = 0
    errors: int = 0
    shed: int = 0
    by_endpoint: Dict[str, int] = field(default_factory=dict)

    def note(self, endpoint: str) -> None:
        self.requests += 1
        self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "shed": self.shed,
            "by_endpoint": dict(sorted(self.by_endpoint.items())),
        }


class ServeApp:
    """The daemon's request dispatcher over one :class:`Lifecycle`."""

    def __init__(self, lifecycle: Lifecycle, max_inflight: int = 256):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.lifecycle = lifecycle
        self.max_inflight = max_inflight
        self.active = 0
        self.counters = ServerCounters()
        self.started = time.time()

    # ------------------------------------------------------------------
    # endpoint handlers (each returns the response document)
    # ------------------------------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        gen = self.lifecycle.current
        return {
            "status": "ok",
            "generation": gen.id,
            "graph": gen.describe(),
            "default_scheme": self.lifecycle.default_scheme,
            "uptime_s": time.time() - self.started,
        }

    def _schemes(self) -> Dict[str, Any]:
        return {
            "default": self.lifecycle.default_scheme,
            "loaded": list(self.lifecycle.schemes),
            "schemes": [
                {
                    "name": spec.name,
                    "stretch_bound": spec.bound_text,
                    "name_independent": spec.name_independent,
                    "params": [p.name for p in spec.params],
                    "summary": spec.summary,
                }
                for spec in all_specs()
            ],
        }

    def _stats(self) -> Dict[str, Any]:
        gen = self.lifecycle.current
        return {
            "generation": gen.id,
            "graph": gen.describe(),
            "reloads": self.lifecycle.reloads,
            "session": gen.session_stats().as_dict(),
            "broker": gen.broker.stats(),
            "server": self.counters.as_dict(),
            "uptime_s": time.time() - self.started,
        }

    def _resolve_scheme(self, requested: Optional[str]) -> str:
        """Map a request's scheme field to a registry name, surfacing
        the registry's choices on a typo."""
        name = requested or self.lifecycle.default_scheme
        try:
            from repro.api import get_spec

            get_spec(name)
        except UnknownSchemeError as exc:
            raise ProtocolError(
                str(exc), code="unknown-scheme", choices=scheme_names()
            )
        return name

    async def _route_many(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        req = RouteManyRequest.from_doc(doc)
        scheme = self._resolve_scheme(req.scheme)
        gen = self.lifecycle.admit()
        try:
            limit = gen.broker.max_queue
            if len(req.pairs) > limit:  # no backlog could ever admit it
                raise ProtocolError(
                    f"{len(req.pairs)} pairs exceed the per-request limit "
                    f"of {limit} (max_queue); split the batch, or generate "
                    "it server-side with /workload"
                )
            check_pairs(gen.network.n, req.pairs)
            results = await gen.broker.submit(scheme, req.pairs)
            return encode_results(results, gen.id)
        finally:
            self.lifecycle.release(gen)

    async def _workload(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        req = WorkloadRequest.from_doc(doc)
        scheme = self._resolve_scheme(req.scheme)
        gen = self.lifecycle.admit()
        try:
            loop = asyncio.get_running_loop()
            if req.scenario is not None:
                summary = await loop.run_in_executor(
                    None, gen.serve_scenario, req.scenario, scheme,
                )
            else:
                summary = await loop.run_in_executor(
                    None, gen.serve_workload, req.kind, req.count, req.seed,
                    scheme,
                )
            body = {"generation": gen.id, "summary": encode_summary(summary)}
            return body
        finally:
            self.lifecycle.release(gen)

    async def _reload(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        req = ReloadRequest.from_doc(doc)
        old, new = await self.lifecycle.reload(
            family=req.family, n=req.n, seed=req.seed, delta=req.delta
        )
        body = {
            "reloaded": True,
            "old_generation": old.id,
            "generation": new.id,
            "graph": new.describe(),
        }
        if req.delta is not None:
            repair = new.network.stats().repair
            body["delta"] = {
                "ops": req.delta.op_names(),
                "network_generation": new.network.generation,
                "repair": (
                    None if repair is None else repair.as_dict()
                ),
            }
        return body

    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        """Handle one request; returns ``(status, response_bytes)``."""
        endpoint = f"{method} {path}"
        self.counters.note(endpoint)
        try:
            if self.active >= self.max_inflight:
                self.counters.shed += 1
                raise ProtocolError(
                    f"daemon at max_inflight={self.max_inflight}; retry",
                    code="server-busy",
                )
            self.active += 1
            try:
                doc = parse_request(body)
                if (method, path) == ("GET", "/healthz"):
                    return 200, encode_body(self._healthz())
                if (method, path) == ("GET", "/schemes"):
                    return 200, encode_body(self._schemes())
                if (method, path) == ("GET", "/stats"):
                    return 200, encode_body(self._stats())
                if (method, path) in (("POST", "/route"),
                                      ("POST", "/route_many")):
                    return 200, encode_body(await self._route_many(doc))
                if (method, path) == ("POST", "/workload"):
                    return 200, encode_body(await self._workload(doc))
                if (method, path) == ("POST", "/reload"):
                    return 200, encode_body(await self._reload(doc))
                raise ProtocolError(
                    f"no endpoint {method} {path}", code="unknown-endpoint"
                )
            finally:
                self.active -= 1
        except OverloadedError as exc:
            self.counters.shed += 1
            err = ProtocolError(str(exc), code="server-busy")
            return err.status, encode_body(err.body())
        except ProtocolError as exc:
            self.counters.errors += 1
            return exc.status, encode_body(exc.body())
        except ReproError as exc:
            # Library-level rejection of otherwise well-formed input
            # (e.g. a workload kind needing an oracle): a client error.
            self.counters.errors += 1
            err = ProtocolError(str(exc), code="bad-request")
            return err.status, encode_body(err.body())
        except Exception as exc:  # daemon bug: surface, don't hang
            self.counters.errors += 1
            err = ProtocolError(
                f"{type(exc).__name__}: {exc}", code="server-error"
            )
            return err.status, encode_body(err.body())


# ----------------------------------------------------------------------
# the HTTP/1.1 transport
# ----------------------------------------------------------------------

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP request; ``None`` on a cleanly closed connection.

    Raises:
        ProtocolError: for malformed request lines / oversized bodies.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    path = target.split("?", 1)[0]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        if len(line) > _MAX_HEADER_LINE:
            raise ProtocolError("oversized header line")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError("malformed Content-Length")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"request body of {length} bytes refused")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _response_bytes(status: int, payload: bytes, close: bool) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload


async def handle_connection(
    app: ServeApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection (keep-alive honored)."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except (ProtocolError, asyncio.IncompleteReadError):
                err = ProtocolError("malformed HTTP request")
                writer.write(
                    _response_bytes(err.status, encode_body(err.body()), True)
                )
                await writer.drain()
                return
            if request is None:
                return
            method, path, headers, body = request
            status, payload = await app.dispatch(method, path, body)
            close = headers.get("connection", "").lower() == "close"
            writer.write(_response_bytes(status, payload, close))
            await writer.drain()
            if close:
                return
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_server(
    app: ServeApp, host: str, port: int
) -> asyncio.AbstractServer:
    """Bind and start serving; returns the listening server (query
    ``server.sockets[0].getsockname()`` for the bound port)."""
    return await asyncio.start_server(
        lambda r, w: handle_connection(app, r, w), host, port
    )


def build_app(config: ServeConfig) -> ServeApp:
    """Construct the lifecycle (building the initial generation and
    pre-warming its schemes) and wrap it in an app."""
    lifecycle = Lifecycle(
        config.family,
        config.n,
        seed=config.seed,
        schemes=config.schemes,
        max_queue=config.max_queue,
        store=config.store,
    )
    return ServeApp(lifecycle, max_inflight=config.max_inflight)


async def serve_async(
    config: ServeConfig,
    app: Optional[ServeApp] = None,
    ready: Optional[Callable[[ServeApp, int], None]] = None,
) -> None:
    """Run the daemon until cancelled."""
    if app is None:
        loop = asyncio.get_running_loop()
        app = await loop.run_in_executor(None, build_app, config)
    server = await start_server(app, config.host, config.port)
    port = server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(app, port)
    async with server:
        await server.serve_forever()


def serve_forever(config: ServeConfig) -> int:
    """Foreground entry point (the ``repro serve`` CLI)."""

    def announce(app: ServeApp, port: int) -> None:
        gen = app.lifecycle.current
        print(
            f"repro-serve listening on http://{config.host}:{port} "
            f"({SCHEMA})"
        )
        print(
            f"graph      : {gen.family} n={gen.network.n} "
            f"seed={gen.network.seed} (generation {gen.id})"
        )
        print(
            f"schemes    : {', '.join(app.lifecycle.schemes)} "
            f"(default {app.lifecycle.default_scheme})"
        )
        store = gen.network.resolved_store()
        print(f"store      : {store.root if store is not None else 'off'}",
              flush=True)

    try:
        asyncio.run(serve_async(config, ready=announce))
    except KeyboardInterrupt:
        print("repro-serve: shutting down")
    return 0


class ServeDaemon:
    """A daemon hosted on a background thread (tests and benchmarks).

    Usage::

        daemon = ServeDaemon(ServeConfig(n=48, port=0))
        daemon.start()                     # blocks until bound
        client = ServeClient(port=daemon.port)
        ...
        daemon.stop()

    ``port=0`` binds an ephemeral port, reported via :attr:`port`.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.app: Optional[ServeApp] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 60.0) -> "ServeDaemon":
        """Build the app, bind, and serve on a fresh thread; returns
        once the daemon accepts connections."""
        if self._thread is not None:
            raise RuntimeError("daemon already started")

        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop

            def ready(app: ServeApp, port: int) -> None:
                self.app = app
                self.port = port
                self._ready.set()

            try:
                # Build synchronously on this thread: serve_async's
                # executor path is for the foreground CLI.
                app = build_app(self.config)
                loop.run_until_complete(
                    serve_async(self.config, app=app, ready=ready)
                )
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                pass
            except BaseException as exc:  # startup failure: report it
                self._error = exc
                self._ready.set()
            finally:
                # Let cancelled connection handlers run their cleanup
                # before the loop closes (no destroyed-pending warnings).
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("serve daemon did not come up in time")
        if self._error is not None:
            raise RuntimeError(
                f"serve daemon failed to start: {self._error!r}"
            ) from self._error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Cancel the serving task and join the thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        def shutdown() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        try:
            loop.call_soon_threadsafe(shutdown)
        except RuntimeError:  # loop already closed
            pass
        thread.join(timeout)
        self._thread = None
