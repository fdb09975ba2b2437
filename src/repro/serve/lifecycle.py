"""Graph-snapshot generations and graceful reload.

The daemon owns exactly one *current* :class:`Generation` — a frozen
graph's :class:`~repro.api.Network`, its lazily-built per-scheme
:class:`~repro.api.router.Router` sessions, and its own
:class:`~repro.serve.broker.BatchBroker` (brokers are per-generation so
a coalesced batch can never mix pairs from two different graphs).

``POST /reload`` builds the replacement generation **before** touching
the current one (the expensive part — network + artifact builds — runs
on a worker thread while old-generation traffic keeps flowing), then
swaps the current pointer atomically on the event loop.  Requests
admitted before the swap keep their reference to the old generation
and finish against it; requests admitted after land on the new one.
The old generation then *drains* — its broker serves every queued pair
and the in-flight counter falls to zero — before its network is
released.  Zero requests are dropped; every response is tagged with
the generation that served it.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import Network, UnknownSchemeError, get_spec
from repro.api.router import RouteResult, Router
from repro.api.stats import SessionStats
from repro.runtime.traffic import TrafficSummary, generate_workload
from repro.serve.broker import DEFAULT_MAX_QUEUE, BatchBroker
from repro.serve.protocol import ProtocolError


class Generation:
    """One loaded graph snapshot and everything serving it.

    Args:
        gen_id: monotonically increasing generation counter.
        network: the built facade over the snapshot.
        family: graph family the snapshot was generated from.
        max_queue: the pending-pair bound of this generation's
            :class:`BatchBroker`.
    """

    def __init__(
        self,
        gen_id: int,
        network: Network,
        family: str,
        max_queue: int,
    ):
        self.id = gen_id
        self.network = network
        self.family = family
        self.broker = BatchBroker(self._execute, max_queue)
        self.inflight = 0
        self.retired = False
        self.created = time.time()
        self._routers: Dict[str, Router] = {}
        # router construction happens on executor threads (the broker's
        # execute path) and on the loop (workload serving warm-up)
        self._router_lock = threading.Lock()
        self._drained = asyncio.Event()

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """The snapshot descriptor responses embed.  ``engine`` is
        always ``"auto"``: routers pick the engine, and the key stays so
        the ``repro-serve/1`` bytes do not change."""
        return {
            "family": self.family,
            "n": self.network.n,
            "seed": self.network.seed,
            "engine": "auto",
        }

    def router(self, scheme: str) -> Router:
        """The (cached) routing session for one scheme of this
        generation; safe to call from any thread.

        Raises:
            UnknownSchemeError: for names not in the registry.
        """
        get_spec(scheme)  # raise before taking the lock on a typo
        with self._router_lock:
            router = self._routers.get(scheme)
            if router is None:
                router = self.network.router(scheme)
                self._routers[scheme] = router
            return router

    def routers(self) -> List[Router]:
        """Every session built so far (stats collection)."""
        with self._router_lock:
            return list(self._routers.values())

    def _execute(
        self, scheme: str, pairs: List[Tuple[int, int]]
    ) -> Sequence[RouteResult]:
        """The broker's executor: one coalesced batch through the
        scheme's router (worker thread; one batch per scheme at a
        time)."""
        return self.router(scheme).route_many(pairs)

    def serve_workload(
        self, kind: str, count: int, seed: int, scheme: str
    ) -> TrafficSummary:
        """Generate and route a named workload (worker thread).

        The pair sequence derives from ``random.Random(seed + 3)``
        exactly as ``repro traffic --seed`` does, so a served summary
        diffs bit-identically against the offline CLI run.
        """
        workload = generate_workload(
            kind,
            self.network.n,
            count,
            rng=random.Random(seed + 3),
            oracle=self.network.oracle(),
        )
        return self.router(scheme).serve_workload(workload)

    def serve_scenario(
        self, doc: Dict[str, Any], scheme: str
    ) -> TrafficSummary:
        """Replay a ``repro-scenario/1`` spec's phase sequence against
        this snapshot (worker thread).

        Phase pairs derive exactly as the offline runner's
        (:func:`repro.scenarios.phase_workload` with the spec seed) and
        the per-phase summaries merge in order, so the served summary
        is deterministic from the spec.  Event-carrying specs were already
        rejected at request-parse time; trace pairs are range-checked
        against this graph.

        Raises:
            ProtocolError: for trace pairs out of range, or phase
                parameters the generator rejects.
        """
        from repro.exceptions import GraphError
        from repro.scenarios import ScenarioSpec, phase_workload

        spec = ScenarioSpec.from_doc(doc)
        router = self.router(scheme)
        parts = []
        for i, phase in enumerate(spec.phases):
            try:
                workload = phase_workload(
                    phase, i, spec.seed, self.network.n,
                    oracle=self.network.oracle(),
                )
            except GraphError as exc:
                raise ProtocolError(f"phases[{i}]: {exc}")
            parts.append(router.serve_workload(workload))
        return TrafficSummary.merge(parts)

    def session_stats(self) -> SessionStats:
        """Consolidated network + router statistics."""
        return SessionStats.collect(self.network, self.routers())

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every admitted request has finished: the broker's
        queues run dry and the in-flight counter reaches zero."""
        await self.broker.drain()
        if self.inflight == 0:
            self._drained.set()
        await self._drained.wait()

    def note_release(self) -> None:
        """Called by :meth:`Lifecycle.release` when an admitted request
        finishes; the last one out signals the drain waiter."""
        if self.retired and self.inflight == 0:
            self._drained.set()


class Lifecycle:
    """Owns the current generation and the reload protocol.

    Args:
        family: initial graph family.
        n: initial graph size.
        seed: initial master seed.
        schemes: scheme names to pre-build at load time (the first is
            the daemon's default scheme); must be non-empty.
        max_queue: each generation's broker backlog bound, in pairs.
        store: forwarded to :class:`~repro.api.Network` (``"auto"`` /
            ``None`` / an explicit store).

    No argument picks an engine: each generation's routers serve on the
    compiled engine, which every registered scheme supports, and the
    ``graph`` descriptor reports ``"engine": "auto"``.
    """

    def __init__(
        self,
        family: str,
        n: int,
        seed: int = 0,
        schemes: Sequence[str] = ("stretch6",),
        max_queue: int = DEFAULT_MAX_QUEUE,
        store: Any = "auto",
    ):
        if not schemes:
            raise UnknownSchemeError("the daemon needs at least one scheme")
        for name in schemes:
            get_spec(name)  # fail at startup, not on first request
        self.schemes = tuple(schemes)
        self.default_scheme = self.schemes[0]
        self._store = store
        self._max_queue = max_queue
        self._gen_counter = 0
        self._reload_lock: Optional[asyncio.Lock] = None
        self._current = self._build_generation(family, n, seed)
        self.reloads = 0

    # ------------------------------------------------------------------
    def _build_generation(self, family: str, n: int, seed: int) -> Generation:
        """Build a fully-warmed generation (synchronous: callers put it
        on a worker thread when traffic is live)."""
        network = Network.from_family(family, n, seed=seed, store=self._store)
        self._gen_counter += 1
        gen = Generation(self._gen_counter, network, family, self._max_queue)
        for scheme in self.schemes:
            # Pre-build tables and warm the compiled engine so the
            # first request after (re)load pays nothing.
            router = gen.router(scheme)
            router.resolve_engine()
        return gen

    def _evolve_generation(self, old: Generation, delta) -> Generation:
        """Build the successor generation from a topology delta
        (synchronous; runs on a worker thread while the old generation
        keeps serving).  The new network descends from the old one
        through :meth:`~repro.api.Network.evolve` — carrying memory
        artifacts and repairing the oracle incrementally where the
        protocol applies — and its schemes pre-warm exactly
        like a snapshot reload's."""
        network = old.network.evolve(delta)
        self._gen_counter += 1
        gen = Generation(
            self._gen_counter, network, old.family, self._max_queue
        )
        for scheme in self.schemes:
            router = gen.router(scheme)
            router.resolve_engine()
        return gen

    @property
    def current(self) -> Generation:
        """The generation new requests land on."""
        return self._current

    def admit(self) -> Generation:
        """Admit one request: pin it to the current generation.

        Synchronous and await-free, so on the event loop the returned
        generation cannot be swapped out between the read and the
        in-flight increment.
        """
        gen = self._current
        gen.inflight += 1
        return gen

    def release(self, gen: Generation) -> None:
        """Finish one admitted request."""
        gen.inflight -= 1
        gen.note_release()

    # ------------------------------------------------------------------
    async def reload(
        self,
        family: Optional[str] = None,
        n: Optional[int] = None,
        seed: Optional[int] = None,
        delta: Any = None,
    ) -> Tuple[Generation, Generation]:
        """Swap in a new graph snapshot without dropping requests.

        Builds the replacement generation on a worker thread (old
        traffic keeps flowing), swaps the current pointer, retires the
        old generation, and waits for it to drain.  Reloads serialize:
        concurrent ``/reload`` requests apply one at a time.

        Args:
            family/n/seed: snapshot parameters; ``None`` keeps the
                current generation's value.
            delta: a :class:`~repro.graph.delta.GraphDelta` to fold
                into the *current* generation's network through
                :meth:`~repro.api.Network.evolve` instead of building
                a fresh snapshot (mutually exclusive with
                family/n/seed).

        Returns:
            ``(old_generation, new_generation)`` — the old one fully
            drained.
        """
        if self._reload_lock is None:
            self._reload_lock = asyncio.Lock()
        async with self._reload_lock:
            old = self._current
            loop = asyncio.get_running_loop()
            if delta is not None:
                if any(v is not None for v in (family, n, seed)):
                    raise ProtocolError(
                        "pass either 'delta' or 'family'/'n'/'seed', "
                        "not both"
                    )
                new_gen = await loop.run_in_executor(
                    None, self._evolve_generation, old, delta
                )
            else:
                target = (
                    family if family is not None else old.family,
                    n if n is not None else old.network.n,
                    seed if seed is not None else old.network.seed,
                )
                new_gen = await loop.run_in_executor(
                    None, self._build_generation, *target
                )
            # The swap itself is atomic on the loop: no await between
            # retiring the old generation and installing the new one.
            self._current = new_gen
            old.retired = True
            old.broker.close()
            self.reloads += 1
            await old.drain()
            return old, new_gen
