"""The :class:`Network` facade: one graph, shared preprocessing.

Every scheme in the paper is defined over the same per-graph
substrate — the all-pairs :class:`DistanceOracle`, an adversarial
:class:`Naming`, the :class:`RoundtripMetric` keyed by that naming,
the Lemma 2 :class:`RTZStretch3` substrate, the Theorem 13 cover
hierarchies, and the wild-name hash reduction.  Building several
schemes on one graph used to recompute those artifacts per scheme (or
share them through hand-threaded kwargs); :class:`Network` owns the
frozen graph and builds each artifact lazily, exactly once, keyed by
``(graph, seed, params)``.

Quickstart::

    from repro.api import Network

    net = Network.from_family("random", n=64, seed=0)
    s6 = net.build_scheme("stretch6")      # builds metric + substrate
    rtz = net.build_scheme("rtz")          # reuses both (cache hit)
    router = net.router("stretch6")
    results = router.route_many([(0, 9), (3, 14)])
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, Optional, TYPE_CHECKING, Union

from repro.api.artifacts import DEFAULT_UNIVERSE, get_artifact_spec
from repro.api.registry import get_spec, scheme_names  # noqa: F401
from repro.api.stats import ArtifactCacheStats, NetworkStats, RepairStats
from repro.exceptions import GraphError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import Digraph
from repro.graph.generators import FAMILY_NAMES, standard_family
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.hashing import HashedNaming
from repro.naming.permutation import Naming
from repro.rtz.routing import RTZStretch3
from repro.store import ArtifactStore, default_store

if TYPE_CHECKING:  # pragma: no cover - cycle guards
    from repro.api.router import Router
    from repro.covers.hierarchy import TreeHierarchy
    from repro.covers.sparse_cover import DoubleTreeCover
    from repro.runtime.scheme import RoutingScheme
    from repro.rtz.spanner import HandshakeSpanner

#: engines understood by :class:`DistanceOracle`
ENGINES = ("auto", "vectorized", "python")


class Network:
    """Facade over one frozen digraph and its shared artifacts.

    Args:
        graph: a *frozen* strongly connected digraph (every generator
            in :mod:`repro.graph.generators` returns one).
        seed: master seed; every artifact and scheme derives its own
            deterministic rng stream from it.
        engine: ``"auto"`` / ``"vectorized"`` / ``"python"`` — governs
            both the :class:`DistanceOracle` build and the execution
            engine routers serve batched traffic with (see
            :mod:`repro.runtime.engine`).
        store: the persistence tier beneath the in-memory cache.
            ``"auto"`` (the default) resolves
            :func:`repro.store.default_store` on every lookup, so the
            environment (``REPRO_STORE`` / ``REPRO_CACHE_DIR``) and
            :func:`repro.store.store_override` take effect without
            rebuilding the network; an explicit
            :class:`~repro.store.ArtifactStore` pins one; ``None``
            disables persistence for this network.  It is the only
            store the network's work touches: compiled decision tables
            are never persisted.

    Its routers' compiled tables are stored as the graph size dictates
    (:func:`repro.graph.limits.table_storage`): dense up to
    ``REPRO_DENSE_MAX_N`` vertices, blocked above.

    Raises:
        GraphError: for an unfrozen graph, unknown engine, or invalid
            store argument.
    """

    def __init__(
        self,
        graph: Digraph,
        seed: int = 0,
        engine: str = "auto",
        store: Union[str, ArtifactStore, None] = "auto",
    ):
        if not graph.frozen:
            raise GraphError(
                "Network requires a frozen graph; call graph.freeze() first"
            )
        if engine not in ENGINES:
            raise GraphError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        if store != "auto" and store is not None and not isinstance(store, ArtifactStore):
            raise GraphError(
                f"store must be 'auto', None, or an ArtifactStore, got {store!r}"
            )
        self._graph = graph
        self._seed = seed
        self._engine = engine
        self._store_mode = store
        self._cache: Dict[str, Any] = {}
        self._stats: Dict[str, Dict[str, float]] = {}
        # Generation lineage (see evolve()): 1 for a root network,
        # predecessor + 1 for evolved successors, which also carry the
        # repair accounting of their own creation.
        self._generation = 1
        self._repair: Optional[RepairStats] = None
        # Concurrency safety for the lookup ladder: the serve daemon's
        # broker runs coalesced batches for different schemes on worker
        # threads, and two of them must never race one label through
        # memory -> store -> build-and-persist (double builds, torn
        # counters).  One lock per label — builds of *different*
        # artifacts still overlap; recursive dependency builds (rtz ->
        # metric -> oracle) take distinct labels' locks, so the
        # dependency DAG keeps this deadlock-free.
        self._locks_guard = threading.Lock()
        self._label_locks: Dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_family(
        cls,
        family: str,
        n: int,
        seed: int = 0,
        engine: str = "auto",
        store: Union[str, ArtifactStore, None] = "auto",
    ) -> "Network":
        """Build a network over one of the standard graph families.

        Args:
            family: family name (one of {families}).
            n: approximate graph size (grid families round).
            seed: master seed (also seeds the generator, as
                :func:`~repro.graph.generators.standard_family`).
            engine: distance-oracle engine.
            store: persistence tier (see the constructor).

        Raises:
            GraphError: for an unknown family (choices listed).
        """
        return cls(
            standard_family(family, n, seed), seed=seed, engine=engine,
            store=store,
        )

    if from_family.__func__.__doc__:  # None under ``python -OO``
        from_family.__func__.__doc__ = from_family.__func__.__doc__.format(
            families=", ".join(f"``{name}``" for name in FAMILY_NAMES)
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        """The frozen digraph this network serves."""
        return self._graph

    @property
    def n(self) -> int:
        """Vertex count."""
        return self._graph.n

    @property
    def seed(self) -> int:
        """The master seed."""
        return self._seed

    @property
    def generation(self) -> int:
        """Position in the evolve lineage: 1 for a root network,
        predecessor + 1 for each :meth:`evolve` successor."""
        return self._generation

    @property
    def engine(self) -> str:
        """The engine knob requested at construction (governs oracle
        builds and batched routing execution)."""
        return self._engine

    def derive_rng(self, tag: str, params: Optional[Dict[str, Any]] = None) -> random.Random:
        """A deterministic rng stream for one artifact or scheme.

        Streams are independent across tags/params and reproducible
        across processes (string seeding hashes with SHA-512).
        """
        suffix = "" if not params else repr(sorted(params.items()))
        return random.Random(f"{self._seed}|{tag}|{suffix}")

    # ------------------------------------------------------------------
    # artifact cache (two tiers: memory -> store -> build-and-persist)
    # ------------------------------------------------------------------
    def resolved_store(self) -> Optional[ArtifactStore]:
        """The store tier currently in effect for this network (see the
        ``store`` constructor argument), or ``None`` when persistence
        is off."""
        if self._store_mode == "auto":
            return default_store()
        return self._store_mode

    def _counters(self, label: str) -> Dict[str, float]:
        return self._stats.setdefault(
            label, {"builds": 0, "hits": 0, "store_hits": 0, "seconds": 0.0}
        )

    def _label_lock(self, label: str) -> threading.Lock:
        """The per-label build lock (created on first contact)."""
        with self._locks_guard:
            lock = self._label_locks.get(label)
            if lock is None:
                lock = self._label_locks[label] = threading.Lock()
            return lock

    def _artifact(self, label: str, build) -> Any:
        """Serve ``label`` from the in-memory cache, building (and
        timing) once — the memory-only path used for scheme builds and
        unregistered artifacts.  Thread-safe: concurrent callers of one
        label serialize on its lock, so the build runs exactly once."""
        with self._label_lock(label):
            stats = self._counters(label)
            if label in self._cache:
                stats["hits"] += 1
                return self._cache[label]
            t0 = time.perf_counter()
            value = build()
            stats["seconds"] += time.perf_counter() - t0
            stats["builds"] += 1
            self._cache[label] = value
            return value

    def artifact(self, kind: str, **params: Any) -> Any:
        """Serve a registered artifact through the two-tier lookup.

        Resolution order: the in-memory cache (``hits``), then — for
        storable kinds with the store enabled — the content-addressed
        on-disk store (``store_hits``), then a cold build (``builds``)
        whose result is persisted for every later process.  A store
        entry that passes its checksum but fails to deserialize (a
        schema bug) is quarantined and rebuilt, never fatal.

        Args:
            kind: registry kind (see
                :func:`repro.api.artifacts.artifact_kinds`).
            **params: artifact parameters, validated against the spec.

        Raises:
            UnknownArtifactError: for kinds not in the registry.
            ConstructionError: for invalid parameters.
        """
        spec = get_artifact_spec(kind)
        resolved = spec.validate_params(params)
        label = spec.cache_label(resolved)
        # The whole memory -> store -> build-and-persist ladder runs
        # under the label's lock: two coalesced serve-daemon requests
        # racing a cold artifact must produce one build and one store
        # write, with the loser served from memory.
        with self._label_lock(label):
            stats = self._counters(label)
            if label in self._cache:
                stats["hits"] += 1
                return self._cache[label]
            store = self.resolved_store() if spec.storable else None
            key = spec.store_key(self, resolved) if store is not None else None
            if store is not None:
                entry = store.get(key)
                if entry is not None:
                    try:
                        value = spec.load(self, entry)
                    except Exception:
                        # checksum-valid but undeserializable: quarantine
                        # for post-mortem and fall through to a rebuild
                        store.quarantine(key)
                    else:
                        stats["store_hits"] += 1
                        self._cache[label] = value
                        return value
            t0 = time.perf_counter()
            value = spec.build(self, resolved)
            elapsed = time.perf_counter() - t0
            stats["seconds"] += elapsed
            stats["builds"] += 1
            self._cache[label] = value
            if store is not None:
                arrays, meta = spec.dump(value)
                store.put(key, arrays, meta=meta, build_seconds=elapsed)
            return value

    def stats(self) -> NetworkStats:
        """Consolidated statistics: per-label artifact counters, the
        store tier's counters, the generation number, and — for evolved
        generations — the repair accounting (the :mod:`repro.api.stats`
        protocol: ``as_dict()`` / ``format()``)."""
        store = self.resolved_store()
        return NetworkStats(
            cache=ArtifactCacheStats.from_counters(self._stats),
            store=None if store is None else store.stats(),
            generation=self._generation,
            repair=self._repair,
        )

    # ------------------------------------------------------------------
    # topology evolution
    # ------------------------------------------------------------------
    def evolve(self, delta: Union[GraphDelta, Dict[str, Any]]) -> "Network":
        """A generation-linked successor network with ``delta`` applied.

        The successor serves the new frozen graph
        (:meth:`Digraph.apply_delta` — ports preserved for every
        surviving edge) with the same seed/engine/store knobs,
        ``generation`` incremented, and its artifacts brought up as
        cheaply as the repair protocols allow:

        * **Oracle** — when this network's oracle is in memory and the
          delta is in the incremental protocol's regime
          (:mod:`repro.graph.repair`), the successor's oracle is
          repaired row-wise (``d`` and the parents, bit-identical to a
          cold build) and injected into the successor's cache.
          Otherwise the oracle is left to the ordinary keyed build
          path — which still reuses unchanged store artifacts by the
          *new* graph's content hash.
        * **Namings** — the adversarial naming and any hashed namings
          are pure functions of ``(n, seed)``; when the delta preserves
          ``n`` they are carried over verbatim (the TINN promise:
          names survive topology change).
        * **Everything else** (metric, substrates, compiled tables) is
          graph-dependent and rebuilds lazily, keyed by the new graph's
          content hash, reusing store entries where the graph hash
          matches (e.g. a delta that round-trips back to a seen graph).

        The repair accounting lands in the successor's
        :meth:`stats` (:class:`~repro.api.stats.RepairStats`).

        Args:
            delta: a :class:`~repro.graph.delta.GraphDelta` or its JSON
                document form (``{"ops": [...]}``, the ``POST /reload``
                wire shape).

        Raises:
            GraphError: for a malformed delta or one inconsistent with
                the current graph.
        """
        from repro.graph.repair import repair_oracle

        if isinstance(delta, dict):
            delta = GraphDelta.from_doc(delta)
        if not isinstance(delta, GraphDelta):
            raise GraphError(
                f"evolve expects a GraphDelta or its document form, "
                f"got {type(delta).__name__}"
            )
        t0 = time.perf_counter()
        old_oracle = self._cache.get("oracle")
        repaired = None if old_oracle is None else repair_oracle(old_oracle, delta)
        # a repair applies the delta itself: the child serves the graph
        # its repaired oracle solves, so the delta is applied once
        if repaired is not None:
            new_graph = repaired[1].graph
        else:
            new_graph = self._graph.apply_delta(delta)
        child = Network(
            new_graph,
            seed=self._seed,
            engine=self._engine,
            store=self._store_mode,
        )
        child._generation = self._generation + 1
        carried = 0
        if new_graph.n == self._graph.n:
            for label, value in self._cache.items():
                if label == "naming" or label.startswith("hashed["):
                    child._cache[label] = value
                    carried += 1
        incremental = 0
        rows_recomputed = 0
        rows_reused = 0
        entries_changed = 0
        if repaired is not None:
            new_oracle, result = repaired
            child._cache["oracle"] = new_oracle
            incremental = 1
            rows_recomputed = result.report.rows_recomputed
            rows_reused = result.report.rows_reused
            entries_changed = result.report.entries_changed
        child._repair = RepairStats(
            ops=len(delta.ops),
            incremental=incremental,
            full_rebuilds=0 if incremental else 1,
            rows_recomputed=rows_recomputed,
            rows_reused=rows_reused,
            entries_changed=entries_changed,
            artifacts_carried=carried,
            seconds=time.perf_counter() - t0,
        )
        return child

    # ------------------------------------------------------------------
    # shared artifacts (delegating accessors over the registry)
    # ------------------------------------------------------------------
    def oracle(self) -> DistanceOracle:
        """The all-pairs distance oracle (built with this network's
        engine)."""
        return self.artifact("oracle")

    def naming(self) -> Naming:
        """The adversarial random naming derived from the master seed."""
        return self.artifact("naming")

    def metric(self) -> RoundtripMetric:
        """The roundtrip metric, tie-broken by the naming's names."""
        return self.artifact("metric")

    def rtz(self, center_count: Optional[int] = None) -> RTZStretch3:
        """The shared Lemma 2 stretch-3 substrate.

        All substrate-based schemes built through this network reuse
        this one instance, and with it its compiled step tables.
        """
        return self.artifact("rtz", center_count=center_count)

    def hierarchy(self, k: int) -> "TreeHierarchy":
        """The Theorem 13 double-tree cover hierarchy for parameter
        ``k`` (shared by ExStretch's spanner and PolynomialStretch)."""
        return self.artifact("hierarchy", k=k)

    def spanner(self, k: int) -> "HandshakeSpanner":
        """The Lemma 5 handshake spanner for parameter ``k``."""
        return self.artifact("spanner", k=k)

    def cover(self, k: int, scale: float) -> "DoubleTreeCover":
        """One Theorem 13 cover at an explicit scale."""
        return self.artifact("cover", k=k, scale=scale)

    def hashed_naming(self, universe: int = DEFAULT_UNIVERSE) -> HashedNaming:
        """The §1.1.2 wild-name reduction: adversarial wild names drawn
        from ``universe``, hashed after the fact."""
        return self.artifact("hashed_naming", universe=universe)

    # ------------------------------------------------------------------
    # schemes
    # ------------------------------------------------------------------
    def build_scheme(
        self,
        name: str,
        rng: Optional[random.Random] = None,
        **params: Any,
    ) -> "RoutingScheme":
        """Build a registered scheme against this network.

        Args:
            name: registry name (see
                :func:`repro.api.registry.scheme_names`).
            rng: explicit randomness for the scheme's own draws
                (landmark/block sampling); default is a stream derived
                from the master seed.  Deterministic (``rng=None``)
                builds are cached per ``(name, params)``.
            **params: scheme parameters, validated against the spec.

        Raises:
            UnknownSchemeError: for names not in the registry.
            ConstructionError: for invalid parameters.
        """
        spec = get_spec(name)
        resolved = spec.validate_params(params)
        if rng is not None:
            return spec.build(self, rng, **resolved)
        label = f"scheme:{spec.name}"
        shown = {k: v for k, v in resolved.items() if v is not None}
        if shown:
            label += "[" + ",".join(f"{k}={v}" for k, v in sorted(shown.items())) + "]"
        return self._artifact(label, lambda: spec.build(self, None, **resolved))

    def stretch_bound(self, name: str, **params: Any) -> float:
        """The claimed stretch bound of a registered scheme on this
        network (builds — or serves from cache — the scheme, since
        generalized bounds depend on parameters like ``k``)."""
        spec = get_spec(name)
        return spec.stretch_bound(self.build_scheme(name, **params))

    def router(
        self,
        scheme: Union[str, "RoutingScheme"],
        hop_limit: Optional[int] = None,
        engine: Optional[str] = None,
        **params: Any,
    ) -> "Router":
        """A routing session over one scheme of this network.

        Args:
            scheme: a registry name (built/cached via
                :meth:`build_scheme`) or an already-built scheme.
            hop_limit: per-leg hop budget override.
            engine: execution-engine override for batched serving
                (defaults to this network's engine knob).
            **params: forwarded to :meth:`build_scheme` for names.
        """
        from repro.api.router import Router

        if isinstance(scheme, str):
            scheme = self.build_scheme(scheme, **params)
        return Router(
            scheme,
            oracle=self.oracle(),
            hop_limit=hop_limit,
            engine=engine or self._engine,
        )
