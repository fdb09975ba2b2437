"""Unified Python API: scheme registry, network facade, router.

The layers:

* :mod:`repro.api.registry` — every scheme in :mod:`repro.schemes`
  registers a :class:`SchemeSpec` (name, builder, parameter schema,
  stretch bound) with :func:`register_scheme`;
* :mod:`repro.api.artifacts` — every shared preprocessing artifact
  (oracle, naming, metric, RTZ substrate, cover hierarchies, wild-name
  reduction) registers an :class:`ArtifactSpec` (builder, parameter
  schema, cache label, store serialization) with
  :func:`register_artifact`;
* :mod:`repro.api.network` — :class:`Network` owns one frozen graph
  and serves artifacts through a two-tier cache (memory, then the
  content-addressed on-disk store of :mod:`repro.store`), so building
  several schemes on one graph computes each artifact exactly once —
  and a second process on the same graph computes it zero times;
* :mod:`repro.api.router` — :class:`Router` serves single and batched
  roundtrip queries against a built scheme, counting each engine's
  batches (:meth:`Router.stats`).  No layer here takes an engine:
  batches run on the compiled engine whenever the scheme compiles
  (every registered one does), and single queries on the python one;
* :mod:`repro.api.stats` — the unified ``as_dict()``/``format()``
  statistics family (:class:`NetworkStats`, :class:`RouterStats`,
  :class:`SessionStats`, :class:`RepairStats`).
"""

from repro.api.artifacts import (
    ArtifactSpec,
    UnknownArtifactError,
    all_artifact_specs,
    artifact_kinds,
    get_artifact_spec,
    register_artifact,
    storable_artifact_specs,
)
from repro.api.network import Network
from repro.api.registry import (
    ParamSpec,
    SchemeSpec,
    UnknownSchemeError,
    all_specs,
    get_spec,
    register_scheme,
    scheme_names,
)
from repro.api.router import RouteResult, Router
from repro.api.stats import (
    ArtifactCacheStats,
    NetworkStats,
    RepairStats,
    RouterStats,
    SessionStats,
    StoreStats,
)

__all__ = [
    "Network",
    "Router",
    "RouteResult",
    "SchemeSpec",
    "ParamSpec",
    "UnknownSchemeError",
    "register_scheme",
    "get_spec",
    "scheme_names",
    "all_specs",
    "ArtifactSpec",
    "UnknownArtifactError",
    "register_artifact",
    "get_artifact_spec",
    "artifact_kinds",
    "all_artifact_specs",
    "storable_artifact_specs",
    "ArtifactCacheStats",
    "NetworkStats",
    "RepairStats",
    "RouterStats",
    "SessionStats",
    "StoreStats",
]
