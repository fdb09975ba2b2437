"""Exception hierarchy for the compact roundtrip routing library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses distinguish the
three broad failure domains: malformed graph inputs, scheme-construction
failures, and routing-time failures (which, for a correct scheme, indicate
a bug and are therefore surfaced loudly rather than swallowed).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (bad weights, missing nodes...)."""


class NotStronglyConnectedError(GraphError):
    """Raised when an algorithm requiring strong connectivity receives a
    digraph that is not strongly connected."""


class NamingError(ReproError):
    """Raised for invalid node-name assignments (non-permutations,
    out-of-range names, hash-family misuse)."""


class ConstructionError(ReproError):
    """Raised when a routing scheme cannot build its tables
    (e.g. invalid parameter ``k``, empty center set, or a
    ``REPRO_DENSE_MAX_N`` that is not a positive integer)."""


class StoreError(ReproError):
    """Raised for on-disk artifact-store failures (unreadable cache
    directories, malformed manifests, checksum mismatches).

    Ordinary cache corruption is *not* surfaced through this class at
    lookup time: :class:`repro.store.ArtifactStore` quarantines the bad
    entry and reports a miss so callers transparently rebuild.  The
    exception covers misuse (unwritable roots, invalid keys) where no
    silent recovery exists.
    """


class RoutingError(ReproError):
    """Raised when packet forwarding fails at runtime.

    For the schemes in this library a :class:`RoutingError` always
    indicates an implementation bug or corrupted tables; the paper's
    algorithms guarantee delivery on every strongly connected digraph.
    """


class TableLookupError(RoutingError):
    """Raised when a local routing table is missing an entry the
    forwarding function requires."""


class HopLimitExceeded(RoutingError):
    """Raised by the simulator when a packet exceeds its hop budget,
    which signals a forwarding loop."""
