"""Unified run statistics: one dataclass family, one protocol.

The network/router/store counters grew up independently, each with its
own ad-hoc dict shape and its own CLI printing code.  This module
unifies them behind a small protocol every stats object follows:

* ``as_dict()`` — a plain JSON-able dict (stable keys, for tooling);
* ``format()`` — the human-readable block the CLI prints.

The family: :class:`ArtifactCacheStats` (per-label build/hit/store-hit
counters from :class:`~repro.api.network.Network`),
:class:`RouterStats` (per-engine batch accounting from
:class:`~repro.api.router.Router`),
:class:`~repro.store.StoreStats` (the on-disk store's counters — defined
in :mod:`repro.store` since the store cannot import this package, and
re-exported here), :class:`RepairStats` (per-generation incremental
repair accounting from :meth:`~repro.api.network.Network.evolve`), and
:class:`SessionStats`, the consolidated view the ``traffic`` CLI
prints as a single block.

This family *is* the stats surface: the legacy ``cache_info()`` /
``engine_info()`` dict shims and the ``Network.instance()`` bridge
have been removed; call ``Network.stats()`` / ``Router.stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.store import StoreStats  # noqa: F401  (re-export: family member)


@dataclass(frozen=True)
class ArtifactRow:
    """Counters for one artifact label in a network's in-memory cache.

    ``store_hits`` counts lookups answered by the on-disk store (tier
    two); ``builds`` counts true cold constructions (tier three);
    ``hits`` counts in-memory cache hits (tier one).
    """

    label: str
    builds: int = 0
    hits: int = 0
    store_hits: int = 0
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "builds": self.builds,
            "hits": self.hits,
            "store_hits": self.store_hits,
            "seconds": self.seconds,
        }

    def format(self) -> str:
        return (
            f"{self.label:<28s} builds={self.builds} hits={self.hits} "
            f"store_hits={self.store_hits} ({1e3 * self.seconds:.1f} ms)"
        )


@dataclass(frozen=True)
class ArtifactCacheStats:
    """The full per-label census of one network's artifact cache."""

    rows: Tuple[ArtifactRow, ...] = ()

    @classmethod
    def from_counters(
        cls, counters: Dict[str, Dict[str, float]]
    ) -> "ArtifactCacheStats":
        """Build from ``Network``'s internal counter dicts."""
        return cls(tuple(
            ArtifactRow(
                label=label,
                builds=int(s.get("builds", 0)),
                hits=int(s.get("hits", 0)),
                store_hits=int(s.get("store_hits", 0)),
                seconds=float(s.get("seconds", 0.0)),
            )
            for label, s in counters.items()
        ))

    def as_dict(self) -> Dict[str, Any]:
        return {row.label: row.as_dict() for row in self.rows}

    def format(self) -> str:
        lines = ["shared artifacts:"]
        for row in self.rows:
            lines.append("  " + row.format())
        return "\n".join(lines)


@dataclass(frozen=True)
class EngineRow:
    """Batched-serving counters for one execution engine."""

    engine: str
    batches: int = 0
    pairs: int = 0
    shards: int = 0
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "pairs": self.pairs,
            "shards": self.shards,
            "seconds": self.seconds,
        }

    def format(self) -> str:
        return (
            f"{self.engine:<11s} batches={self.batches} pairs={self.pairs} "
            f"shards={self.shards} ({1e3 * self.seconds:.1f} ms)"
        )


@dataclass(frozen=True)
class RouterStats:
    """Per-engine accounting of one router (or several, merged)."""

    rows: Tuple[EngineRow, ...] = ()

    @classmethod
    def from_counters(
        cls, counters: Dict[str, Dict[str, float]]
    ) -> "RouterStats":
        """Build from ``Router``'s internal counter dicts."""
        return cls(tuple(
            EngineRow(
                engine=name,
                batches=int(s.get("batches", 0)),
                pairs=int(s.get("pairs", 0)),
                shards=int(s.get("shards", 0)),
                seconds=float(s.get("seconds", 0.0)),
            )
            for name, s in counters.items()
        ))

    def merged(self, other: "RouterStats") -> "RouterStats":
        """Element-wise sum (used to consolidate several routers into
        one CLI block)."""
        by_engine: Dict[str, EngineRow] = {r.engine: r for r in self.rows}
        for row in other.rows:
            base = by_engine.get(row.engine)
            if base is None:
                by_engine[row.engine] = row
            else:
                by_engine[row.engine] = EngineRow(
                    engine=row.engine,
                    batches=base.batches + row.batches,
                    pairs=base.pairs + row.pairs,
                    shards=base.shards + row.shards,
                    seconds=base.seconds + row.seconds,
                )
        return RouterStats(tuple(
            by_engine[name] for name in sorted(by_engine)
        ))

    def as_dict(self) -> Dict[str, Any]:
        return {row.engine: row.as_dict() for row in self.rows}

    def format(self) -> str:
        lines = ["execution engines:"]
        for row in self.rows:
            if row.batches == 0 and row.pairs == 0:
                continue
            lines.append("  " + row.format())
        if len(lines) == 1:
            lines.append("  (no batched serving yet)")
        return "\n".join(lines)


@dataclass(frozen=True)
class RepairStats:
    """Per-generation repair accounting for an evolved network.

    Recorded by :meth:`~repro.api.network.Network.evolve` on the
    *successor* network: what bringing this generation's artifacts up
    cost, relative to rebuilding them from scratch.

    Attributes:
        ops: delta ops folded into this generation.
        incremental: 1 when the oracle was repaired row-wise by the
            incremental protocol (:mod:`repro.graph.repair`).
        full_rebuilds: 1 when the repair protocol did not apply and the
            oracle falls back to the keyed (re)build path.
        rows_recomputed: APSP source rows recomputed, summed over ops.
        rows_reused: APSP source rows certified unchanged and carried
            over, summed over ops.
        entries_changed: distance entries whose value changed.
        artifacts_carried: memory artifacts copied verbatim from the
            predecessor (naming and hashed namings when ``n`` is
            unchanged — the TINN names-survive promise).
        seconds: wall-clock spent inside ``evolve``.
    """

    ops: int = 0
    incremental: int = 0
    full_rebuilds: int = 0
    rows_recomputed: int = 0
    rows_reused: int = 0
    entries_changed: int = 0
    artifacts_carried: int = 0
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ops": self.ops,
            "incremental": self.incremental,
            "full_rebuilds": self.full_rebuilds,
            "rows_recomputed": self.rows_recomputed,
            "rows_reused": self.rows_reused,
            "entries_changed": self.entries_changed,
            "artifacts_carried": self.artifacts_carried,
            "seconds": self.seconds,
        }

    def format(self) -> str:
        mode = "incremental" if self.incremental else "full rebuild"
        return (
            f"repair: {mode} ops={self.ops} "
            f"rows={self.rows_recomputed}/{self.rows_recomputed + self.rows_reused} "
            f"entries_changed={self.entries_changed} "
            f"carried={self.artifacts_carried} "
            f"({1e3 * self.seconds:.1f} ms)"
        )


@dataclass(frozen=True)
class NetworkStats:
    """One network's consolidated view: artifact cache + store tier +
    (for evolved generations) the repair accounting."""

    cache: ArtifactCacheStats = field(default_factory=ArtifactCacheStats)
    store: Optional[StoreStats] = None
    generation: int = 1
    repair: Optional[RepairStats] = None

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"artifacts": self.cache.as_dict()}
        doc["store"] = None if self.store is None else self.store.as_dict()
        doc["generation"] = self.generation
        doc["repair"] = None if self.repair is None else self.repair.as_dict()
        return doc

    def format(self) -> str:
        lines = [self.cache.format()]
        if self.store is not None:
            lines.append(self.store.format())
        else:
            lines.append("store: off")
        if self.generation != 1 or self.repair is not None:
            lines.append(f"generation: {self.generation}")
        if self.repair is not None:
            lines.append(self.repair.format())
        return "\n".join(lines)


@dataclass(frozen=True)
class SessionStats:
    """The single consolidated block ``repro traffic`` prints: network
    artifact counters, store tier, and merged router engine counters."""

    network: NetworkStats = field(default_factory=NetworkStats)
    engines: RouterStats = field(default_factory=RouterStats)

    @classmethod
    def collect(cls, network, routers=()) -> "SessionStats":
        """Gather from a live :class:`~repro.api.network.Network` and
        any number of :class:`~repro.api.router.Router` sessions."""
        merged = RouterStats()
        for router in routers:
            merged = merged.merged(router.stats())
        return cls(network=network.stats(), engines=merged)

    def as_dict(self) -> Dict[str, Any]:
        doc = self.network.as_dict()
        doc["engines"] = self.engines.as_dict()
        return doc

    def format(self) -> str:
        return self.network.format() + "\n" + self.engines.format()
