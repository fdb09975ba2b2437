"""Content-addressed on-disk artifact store.

The persistence tier beneath :class:`repro.api.Network`'s in-memory
artifact cache, and read or written only through
:meth:`repro.api.Network.artifact`: the oracle's distance/parent
matrices (kind ``oracle``) and the RTZ substrate's arrays (kind
``rtz``) serialize to memory-mappable ``.npz`` blobs with JSON sidecar
manifests, keyed by ``(graph content hash, seed, params, schema
version)``.  CLI runs, benchmarks and the serve daemon share the same
bytes with zero rebuild; compiled decision tables are rebuilt from
those two in each process.

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
    default_cache_dir,
    default_store,
    format_bytes,
    parse_size,
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
    "default_cache_dir",
    "default_store",
    "format_bytes",
    "graph_content_hash",
    "parse_size",
    "read_npz_mapped",
    "store_override",
    "write_npz",
]
