"""Content-addressed on-disk artifact store.

The persistence tier beneath :class:`repro.api.Network`'s in-memory
artifact cache: oracle distance/parent matrices, RTZ substrate arrays,
and compiled decision tables (first-hop matrices and blocks behind
:class:`~repro.runtime.engine.BlockedNextHop`,
:class:`~repro.runtime.engine.SubstrateStepTables`)
serialize to memory-mappable ``.npz`` blobs with JSON sidecar
manifests, keyed by ``(graph content hash, seed, params, schema
version)``.  CLI runs, bench runs, process-pool shard workers, and a
future serve daemon all share the same bytes with zero rebuild.

See :mod:`repro.store.store` for the durability story (atomic writes,
checksum verification with quarantine-and-rebuild, LRU eviction) and
:mod:`repro.api.artifacts` for the registry that declares how each
artifact kind dumps to and loads from a store entry.
"""

from repro.store.keys import StoreKey, graph_content_hash
from repro.store.npz import read_npz_mapped, write_npz
from repro.store.store import (
    ArtifactStore,
    CACHE_DIR_ENV,
    LoadedArtifact,
    MAX_BYTES_ENV,
    SCHEMA,
    STORE_ENV,
    StoreEntry,
    StoreStats,
    clear_default_store,
    default_cache_dir,
    default_store,
    format_bytes,
    parse_size,
    set_default_store,
    store_override,
)

__all__ = [
    "ArtifactStore",
    "CACHE_DIR_ENV",
    "LoadedArtifact",
    "MAX_BYTES_ENV",
    "SCHEMA",
    "STORE_ENV",
    "StoreEntry",
    "StoreKey",
    "StoreStats",
    "clear_default_store",
    "default_cache_dir",
    "default_store",
    "format_bytes",
    "graph_content_hash",
    "parse_size",
    "read_npz_mapped",
    "set_default_store",
    "store_override",
    "write_npz",
]
