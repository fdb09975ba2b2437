"""The content-addressed on-disk artifact store.

Layout under the cache root (default ``~/.cache/repro``, overridable
via ``REPRO_CACHE_DIR`` or ``repro --cache-dir``)::

    <root>/
      <kind>/<digest>.npz     # uncompressed, memory-mappable arrays
      <kind>/<digest>.json    # sidecar manifest (key, checksum, ...)
      quarantine/             # corrupt entries moved aside, kept for
                              # post-mortem instead of deleted

``digest`` is the SHA-256 of the entry's canonical key JSON
(:class:`repro.store.keys.StoreKey`), so the store is content-addressed:
any process that derives the same provenance converges on the same
path.  Writes go through temp files plus ``os.replace`` (blob first,
manifest last), so readers — which require the manifest — never observe
a half-written entry, and concurrent writers racing on one key simply
let the last rename win; by the library's determinism discipline both
wrote identical bytes.

Reads verify the blob checksum recorded in the manifest.  A mismatch
(truncation, bit rot, a schema change without a version bump) moves the
entry to ``quarantine/`` and reports a miss, so the caller rebuilds and
re-persists — corruption degrades to a cold start, never to wrong
routes.  Hits touch the entry's mtime, which is the LRU clock for
:meth:`ArtifactStore.gc`'s size-bounded eviction pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import platform
import re
import sys
import threading
import time
from dataclasses import dataclass
from zipfile import BadZipFile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import StoreError
from repro.store.keys import StoreKey
from repro.store.npz import file_size, read_npz_mapped, write_npz

#: manifest schema identifier
SCHEMA = "repro-store/1"

#: environment variables honored by :func:`default_store`
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
STORE_ENV = "REPRO_STORE"
MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"

#: values that turn ``REPRO_STORE`` off (the spellings
#: ``REPRO_BENCH_SMOKE`` accepts too)
_FALSY = frozenset({"", "0", "false", "no", "off"})

_QUARANTINE_DIR = "quarantine"

#: distinguishes concurrent writers' temp files (itertools.count is
#: atomic under the GIL)
_TMP_COUNTER = itertools.count()


def _creator_fingerprint() -> Dict[str, Any]:
    """Who/what wrote an entry (manifest provenance, never keyed on)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return f"sha256:{h.hexdigest()}"


@dataclass(frozen=True)
class LoadedArtifact:
    """A store hit: memory-mapped arrays plus the entry's manifest."""

    key: StoreKey
    manifest: Dict[str, Any]
    arrays: Dict[str, np.ndarray]

    @property
    def meta(self) -> Dict[str, Any]:
        """Builder-supplied metadata recorded at :meth:`ArtifactStore.put`."""
        return self.manifest.get("meta", {})


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk entry, as enumerated by :meth:`ArtifactStore.entries`."""

    kind: str
    digest: str
    blob_path: str
    manifest_path: str
    nbytes: int
    mtime: float

    def load_manifest(self) -> Optional[Dict[str, Any]]:
        """Parse the sidecar manifest (``None`` when unreadable)."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None


@dataclass(frozen=True)
class StoreStats:
    """Counter snapshot for one :class:`ArtifactStore`.

    Implements the shared stats protocol (``as_dict()`` / ``format()``)
    of :mod:`repro.api.stats` without importing it (the api package
    imports the store, not vice versa).
    """

    root: str
    entries: int
    total_bytes: int
    gets: int
    hits: int
    misses: int
    puts: int
    evictions: int
    quarantined: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "gets": self.gets,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
        }

    def format(self) -> str:
        size = format_bytes(self.total_bytes)
        return (
            f"store ({self.root}): {self.entries} entries ({size}) "
            f"gets={self.gets} hits={self.hits} misses={self.misses} "
            f"puts={self.puts} evictions={self.evictions} "
            f"quarantined={self.quarantined}"
        )


def format_bytes(nbytes: int) -> str:
    """Human-readable byte count (``1.4 MiB`` style)."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{int(nbytes)} B"  # pragma: no cover - unreachable


def parse_size(text: str) -> int:
    """Parse a byte count with optional ``K``/``M``/``G``/``T`` suffix."""
    raw = str(text).strip().upper()
    match = re.fullmatch(r"([0-9.]+)\s*([KMGT]?)I?B?", raw)
    if match is None:
        raise StoreError(f"cannot parse size {text!r}")
    raw = match.group(1)
    multiplier = {"": 1, "K": 1 << 10, "M": 1 << 20,
                  "G": 1 << 30, "T": 1 << 40}[match.group(2)]
    try:
        return int(float(raw) * multiplier)
    except ValueError as exc:
        raise StoreError(f"cannot parse size {text!r}") from exc


class ArtifactStore:
    """Content-addressed artifact cache rooted at one directory.

    Args:
        root: cache directory (created lazily on first write).
        max_bytes: optional size bound; when set, every :meth:`put`
            finishes with an LRU :meth:`gc` pass down to the bound.
    """

    def __init__(self, root, max_bytes: Optional[int] = None):
        self._root = Path(root).expanduser()
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.gets = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The cache root directory."""
        return self._root

    def _paths(self, key: StoreKey) -> Tuple[Path, Path]:
        digest = key.digest
        kind_dir = self._root / key.kind
        return kind_dir / f"{digest}.npz", kind_dir / f"{digest}.json"

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(
        self,
        key: StoreKey,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
        build_seconds: float = 0.0,
    ) -> Path:
        """Persist an artifact atomically; returns the blob path.

        The blob lands first, the manifest last — readers require the
        manifest, so a crash between the two renames leaves an orphan
        blob that :meth:`get` quarantines on next contact rather than a
        manifest pointing at missing bytes.
        """
        blob_path, manifest_path = self._paths(key)
        blob_path.parent.mkdir(parents=True, exist_ok=True)
        # unique per writer — pid alone is not enough, threads in one
        # process racing on a key would share (and rename away) one
        # tmp file mid-write
        tmp_suffix = (
            f".tmp.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_COUNTER)}"
        )
        tmp_blob = blob_path.with_name(blob_path.name + tmp_suffix)
        tmp_manifest = manifest_path.with_name(manifest_path.name + tmp_suffix)
        try:
            write_npz(str(tmp_blob), arrays)
            manifest = {
                "schema": SCHEMA,
                "kind": key.kind,
                "version": int(key.version),
                "key": json.loads(key.canonical_json())["key"],
                "digest": key.digest,
                "checksum": _sha256_file(str(tmp_blob)),
                "nbytes": file_size(str(tmp_blob)),
                "shapes": {k: list(np.asarray(v).shape)
                           for k, v in arrays.items()},
                "dtypes": {k: str(np.asarray(v).dtype)
                           for k, v in arrays.items()},
                "meta": dict(meta or {}),
                "build_seconds": float(build_seconds),
                "created": time.time(),
                "creator": _creator_fingerprint(),
            }
            with open(tmp_manifest, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
            os.replace(tmp_blob, blob_path)
            os.replace(tmp_manifest, manifest_path)
        finally:
            for tmp in (tmp_blob, tmp_manifest):
                with contextlib.suppress(OSError):
                    tmp.unlink()
        self.puts += 1
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        return blob_path

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: StoreKey) -> Optional[LoadedArtifact]:
        """Look up an entry; verify its checksum; map it read-only.

        Returns ``None`` on any miss — absent, half-present, or corrupt
        (the latter is quarantined first).  Never raises for bad cache
        contents: the worst outcome of a damaged store is a rebuild.
        """
        self.gets += 1
        blob_path, manifest_path = self._paths(key)
        if not manifest_path.exists():
            if blob_path.exists():
                # orphan blob: a writer died between the two renames
                self._quarantine_paths([blob_path])
            self.misses += 1
            return None
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not an object")
            checksum = manifest.get("checksum")
            if manifest.get("schema") != SCHEMA or not checksum:
                raise ValueError("manifest schema mismatch")
            if _sha256_file(str(blob_path)) != checksum:
                raise ValueError("checksum mismatch")
            arrays = read_npz_mapped(str(blob_path))
        except (OSError, ValueError, StoreError, BadZipFile):
            self._quarantine_paths([blob_path, manifest_path])
            self.misses += 1
            return None
        now = time.time()
        for path in (blob_path, manifest_path):
            with contextlib.suppress(OSError):
                os.utime(path, (now, now))
        self.hits += 1
        return LoadedArtifact(key=key, manifest=manifest, arrays=arrays)

    def quarantine(self, key: StoreKey) -> None:
        """Move a specific entry aside (used when a checksum-valid blob
        still fails to deserialize — a schema bug, not bit rot)."""
        blob_path, manifest_path = self._paths(key)
        self._quarantine_paths([blob_path, manifest_path])

    def _quarantine_paths(self, paths: List[Path]) -> None:
        qdir = self._root / _QUARANTINE_DIR
        moved = False
        for path in paths:
            if not path.exists():
                continue
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / f"{path.parent.name}.{path.name}"
            with contextlib.suppress(OSError):
                os.replace(path, target)
                moved = True
        if moved:
            self.quarantined += 1

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[StoreEntry]:
        """Enumerate complete entries (blob + manifest), sorted by
        (kind, digest) for stable listings."""
        if not self._root.is_dir():
            return
        for kind_dir in sorted(self._root.iterdir()):
            if not kind_dir.is_dir() or kind_dir.name == _QUARANTINE_DIR:
                continue
            for blob in sorted(kind_dir.glob("*.npz")):
                if ".tmp." in blob.name:
                    continue
                manifest = blob.with_suffix(".json")
                if not manifest.exists():
                    continue
                try:
                    stat = blob.stat()
                except OSError:
                    continue
                yield StoreEntry(
                    kind=kind_dir.name,
                    digest=blob.stem,
                    blob_path=str(blob),
                    manifest_path=str(manifest),
                    nbytes=stat.st_size + file_size(str(manifest)),
                    mtime=stat.st_mtime,
                )

    def total_bytes(self) -> int:
        """Total size of all complete entries."""
        return sum(e.nbytes for e in self.entries())

    def verify(self) -> Tuple[int, List[StoreEntry]]:
        """Re-checksum every entry; quarantine failures.

        Returns:
            ``(ok_count, corrupt_entries)`` where the corrupt entries
            have already been moved to ``quarantine/``.
        """
        ok = 0
        corrupt: List[StoreEntry] = []
        for entry in list(self.entries()):
            manifest = entry.load_manifest()
            good = (
                manifest is not None
                and manifest.get("schema") == SCHEMA
                and manifest.get("checksum") == _sha256_file(entry.blob_path)
            )
            if good:
                ok += 1
            else:
                corrupt.append(entry)
                self._quarantine_paths(
                    [Path(entry.blob_path), Path(entry.manifest_path)]
                )
        return ok, corrupt

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries down to ``max_bytes``.

        ``max_bytes`` defaults to the store's configured bound; with no
        bound anywhere this is a no-op.  Returns the eviction count.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            return 0
        entries = sorted(self.entries(), key=lambda e: (e.mtime, e.digest))
        total = sum(e.nbytes for e in entries)
        evicted = 0
        for entry in entries:
            if total <= bound:
                break
            for path in (entry.blob_path, entry.manifest_path):
                with contextlib.suppress(OSError):
                    os.unlink(path)
            total -= entry.nbytes
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> int:
        """Delete every entry (including quarantined files); returns the
        number of files removed."""
        removed = 0
        if not self._root.is_dir():
            return 0
        for kind_dir in list(self._root.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in list(kind_dir.iterdir()):
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
            with contextlib.suppress(OSError):
                kind_dir.rmdir()
        return removed

    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        """Counter snapshot plus current entry census."""
        entries = list(self.entries())
        return StoreStats(
            root=str(self._root),
            entries=len(entries),
            total_bytes=sum(e.nbytes for e in entries),
            gets=self.gets,
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            evictions=self.evictions,
            quarantined=self.quarantined,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "unbounded" if self.max_bytes is None else self.max_bytes
        return f"ArtifactStore(root={str(self._root)!r}, max_bytes={bound})"


# ----------------------------------------------------------------------
# process-default store
# ----------------------------------------------------------------------
_UNSET = object()
#: explicit override installed by :func:`store_override`; wins over env
_OVERRIDE: Any = _UNSET
#: one instance per (root, max_bytes) so counters aggregate per process
_INSTANCES: Dict[Tuple[str, Optional[int]], ArtifactStore] = {}


def default_cache_dir() -> Path:
    """The cache root :func:`default_store` uses, env applied."""
    env_root = os.environ.get(CACHE_DIR_ENV)
    if env_root:
        return Path(env_root).expanduser()
    return Path.home() / ".cache" / "repro"


def default_store() -> Optional[ArtifactStore]:
    """The process-wide store, or ``None`` when persistence is off.

    Resolution order (environment is re-read on every call, so tests
    and CLI flags can flip it without import-order games):

    1. an explicit :func:`store_override` value, when installed;
    2. ``REPRO_STORE`` set to a falsy value (``0``/``false``/``no``/
       ``off``/empty) disables the store entirely;
    3. otherwise a store rooted at ``REPRO_CACHE_DIR`` (default
       ``~/.cache/repro``), size-bounded by ``REPRO_STORE_MAX_BYTES``
       when that is set.
    """
    if _OVERRIDE is not _UNSET:
        return _OVERRIDE
    raw = os.environ.get(STORE_ENV)
    if raw is not None and raw.strip().lower() in _FALSY:
        return None
    root = default_cache_dir()
    max_bytes: Optional[int] = None
    raw_bytes = os.environ.get(MAX_BYTES_ENV)
    if raw_bytes:
        max_bytes = parse_size(raw_bytes)
    cache_key = (str(root), max_bytes)
    store = _INSTANCES.get(cache_key)
    if store is None:
        store = _INSTANCES[cache_key] = ArtifactStore(root, max_bytes=max_bytes)
    return store


@contextlib.contextmanager
def store_override(store: Optional[ArtifactStore]):
    """Scoped process-default store (``None`` disables persistence, so
    the builds inside measure true cold costs)."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = store
    try:
        yield store
    finally:
        _OVERRIDE = previous
