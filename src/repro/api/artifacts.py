"""The artifact registry: one declarative spec per shared artifact.

:class:`repro.api.Network` used to grow one ad-hoc builder method per
artifact (oracle, naming, metric, substrate, hierarchies...), each
hand-rolling its cache label and with no single place to declare how an
artifact persists.  This registry mirrors the scheme registry
(:mod:`repro.api.registry`): every artifact kind declares its name,
builder, parameter schema, cache-label rule, and — for the kinds worth
persisting — how it dumps to and loads from the content-addressed
on-disk store (:mod:`repro.store`).

``Network.artifact(kind, **params)`` drives everything through these
specs; the legacy accessors (``net.oracle()``, ``net.rtz()``, ...)
delegate to it and keep their exact historical cache labels.

Storability is deliberately narrow: only artifacts whose construction
is dominated by shortest-path work (the oracle's APSP, the substrate's
reverse Dijkstras and cluster scan) are persisted.  Naming permutations
and metrics (views over the oracle) cost microseconds to rebuild.  The
cover hierarchies stay memory-only too: a k = 2 hierarchy builds in
about 0.03 s at random n = 256 and 0.2 s at n = 1024, and no perfbench
workload warm-boots a Theorem 13 scheme, so storing one would save no
measured start-up.  Compiled decision tables are not artifacts at all:
each process recompiles them from its built schemes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.api.registry import ParamSpec, validate_params
from repro.exceptions import ConstructionError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.network import Network
    from repro.store import LoadedArtifact


class UnknownArtifactError(ReproError):
    """Raised for artifact kinds not in the registry (message lists the
    registered choices)."""


#: default wild-name universe (48-bit identifiers, as in E18);
#: re-exported by :mod:`repro.api.network` for back-compat
DEFAULT_UNIVERSE = 2 ** 48

#: builder signature: ``(network, **params) -> artifact``
ArtifactBuilder = Callable[..., Any]
#: dump signature: ``artifact -> (arrays, meta)``
ArtifactDump = Callable[[Any], Tuple[Dict[str, np.ndarray], Dict[str, Any]]]
#: load signature: ``(network, loaded_entry) -> artifact``
ArtifactLoad = Callable[["Network", "LoadedArtifact"], Any]


@dataclass(frozen=True)
class ArtifactSpec:
    """Declarative description of one shared artifact kind.

    Attributes:
        kind: registry key (also the store's directory name).
        builder: ``(network, **params) -> artifact``.
        summary: one-line description for listings.
        params: accepted parameters, in declaration order.
        version: artifact schema version baked into store keys; bump it
            whenever ``dump``'s array layout changes so stale entries
            miss cleanly instead of deserializing garbage.
        label: ``resolved_params -> cache label`` (defaults to the
            kind); produces exactly the labels the historical accessor
            methods used, so stats output stays stable across releases.
        dump: serialize to ``(arrays, meta)`` for the store; ``None``
            makes the kind memory-only.
        load: rehydrate from a store entry; required iff ``dump`` is
            set.
        seed_dependent: whether the network seed enters the store key.
            ``False`` only for artifacts that are pure functions of the
            graph (the oracle), so independent seeds share one entry.
    """

    kind: str
    builder: ArtifactBuilder
    summary: str = ""
    params: Tuple[ParamSpec, ...] = field(default_factory=tuple)
    version: int = 1
    label: Optional[Callable[[Dict[str, Any]], str]] = None
    dump: Optional[ArtifactDump] = None
    load: Optional[ArtifactLoad] = None
    seed_dependent: bool = True

    @property
    def storable(self) -> bool:
        """Whether this kind persists to the on-disk store."""
        return self.dump is not None and self.load is not None

    def validate_params(self, given: Dict[str, Any]) -> Dict[str, Any]:
        """Check ``given`` against the schema and fill defaults
        (:func:`~repro.api.registry.validate_params`)."""
        return validate_params(f"artifact {self.kind!r}", self.params, given)

    def cache_label(self, resolved: Dict[str, Any]) -> str:
        """The in-memory cache label for one parameterization."""
        if self.label is not None:
            return self.label(resolved)
        return self.kind

    def store_key(self, network: "Network", resolved: Dict[str, Any]):
        """The content-addressed store key for one parameterization."""
        from repro.store import StoreKey, graph_content_hash

        key: Dict[str, Any] = {"graph": graph_content_hash(network.graph)}
        if self.seed_dependent:
            key["seed"] = int(network.seed)
        key.update(resolved)
        return StoreKey(self.kind, self.version, key)

    def build(self, network: "Network", resolved: Dict[str, Any]) -> Any:
        """Construct the artifact against a network."""
        return self.builder(network, **resolved)


_REGISTRY: Dict[str, ArtifactSpec] = {}


def register_artifact(
    kind: str,
    summary: str = "",
    params: Tuple[ParamSpec, ...] = (),
    version: int = 1,
    label: Optional[Callable[[Dict[str, Any]], str]] = None,
    dump: Optional[ArtifactDump] = None,
    load: Optional[ArtifactLoad] = None,
    seed_dependent: bool = True,
) -> Callable[[ArtifactBuilder], ArtifactBuilder]:
    """Function decorator registering an artifact builder (the artifact
    analogue of :func:`repro.api.registry.register_scheme`)."""
    if (dump is None) != (load is None):
        raise ConstructionError(
            f"artifact {kind!r} must declare dump and load together"
        )

    def decorate(builder: ArtifactBuilder) -> ArtifactBuilder:
        if kind in _REGISTRY:
            raise ConstructionError(f"artifact {kind!r} registered twice")
        _REGISTRY[kind] = ArtifactSpec(
            kind=kind,
            builder=builder,
            summary=summary,
            params=tuple(params),
            version=version,
            label=label,
            dump=dump,
            load=load,
            seed_dependent=seed_dependent,
        )
        return builder

    return decorate


def get_artifact_spec(kind: str) -> ArtifactSpec:
    """Look up an artifact spec by kind.

    Raises:
        UnknownArtifactError: listing the registered kinds.
    """
    spec = _REGISTRY.get(kind)
    if spec is None:
        raise UnknownArtifactError(
            f"unknown artifact kind {kind!r}; registered kinds: "
            f"{', '.join(artifact_kinds())}"
        )
    return spec


def artifact_kinds() -> List[str]:
    """Sorted names of every registered artifact kind."""
    return sorted(_REGISTRY)


def all_artifact_specs() -> List[ArtifactSpec]:
    """Every registered spec, sorted by kind."""
    return [_REGISTRY[kind] for kind in sorted(_REGISTRY)]


def storable_artifact_specs() -> List[ArtifactSpec]:
    """The specs that persist to the on-disk store."""
    return [spec for spec in all_artifact_specs() if spec.storable]


# ----------------------------------------------------------------------
# built-in artifact kinds
# ----------------------------------------------------------------------
def _dump_oracle(oracle) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    return (
        {
            "d": oracle.d_matrix,
            "parent": np.asarray(oracle._parent, dtype=np.int32),
        },
        {"engine": oracle.engine},
    )


def _load_oracle(network: "Network", entry: "LoadedArtifact"):
    from repro.graph.shortest_paths import DistanceOracle

    return DistanceOracle.from_arrays(
        network.graph,
        entry.arrays["d"],
        entry.arrays["parent"],
        engine=entry.meta.get("engine", "vectorized"),
    )


@register_artifact(
    "oracle",
    summary="all-pairs distance oracle (d, r, forward trees)",
    dump=_dump_oracle,
    load=_load_oracle,
    # the APSP solution is a pure function of the graph: engines are
    # bit-identical and no random draw enters the build, so entries are
    # shared across seeds (the one documented exception to the
    # seed-in-key discipline)
    seed_dependent=False,
)
def _build_oracle(net: "Network"):
    from repro.graph.shortest_paths import DistanceOracle

    return DistanceOracle(net.graph)


@register_artifact("naming", summary="adversarial random naming")
def _build_naming(net: "Network"):
    from repro.naming.permutation import random_naming

    return random_naming(net.n, random.Random(net.seed))


@register_artifact("metric", summary="roundtrip metric over the oracle")
def _build_metric(net: "Network"):
    from repro.graph.roundtrip import RoundtripMetric

    return RoundtripMetric(net.oracle(), ids=net.naming().all_names())


def _rtz_label(resolved: Dict[str, Any]) -> str:
    count = resolved.get("center_count")
    return "rtz" if count is None else f"rtz[centers={count}]"


def _dump_rtz(substrate) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    return substrate.to_arrays(), {"centers": len(substrate.centers)}


def _load_rtz(network: "Network", entry: "LoadedArtifact"):
    from repro.rtz.routing import RTZStretch3

    return RTZStretch3.from_arrays(network.metric(), entry.arrays)


@register_artifact(
    "rtz",
    summary="Lemma 2 stretch-3 substrate (landmarks, trees, clusters)",
    params=(
        ParamSpec("center_count", int, None,
                  "landmark count override (default ceil(sqrt n))"),
    ),
    label=_rtz_label,
    dump=_dump_rtz,
    load=_load_rtz,
)
def _build_rtz(net: "Network", center_count: Optional[int] = None):
    from repro.rtz.routing import RTZStretch3

    return RTZStretch3(
        net.metric(),
        net.derive_rng("rtz", {"centers": center_count}),
        center_count=center_count,
    )


@register_artifact(
    "hierarchy",
    summary="Theorem 13 double-tree cover hierarchy",
    params=(ParamSpec("k", int, None, "stretch parameter"),),
    label=lambda r: f"hierarchy[k={r['k']}]",
)
def _build_hierarchy(net: "Network", k: int):
    from repro.covers.hierarchy import TreeHierarchy

    return TreeHierarchy(net.metric(), k)


@register_artifact(
    "spanner",
    summary="Lemma 5 handshake spanner",
    params=(ParamSpec("k", int, None, "stretch parameter"),),
    label=lambda r: f"spanner[k={r['k']}]",
)
def _build_spanner(net: "Network", k: int):
    from repro.rtz.spanner import HandshakeSpanner

    return HandshakeSpanner(net.metric(), k, hierarchy=net.hierarchy(k))


@register_artifact(
    "cover",
    summary="one Theorem 13 cover at an explicit scale",
    params=(
        ParamSpec("k", int, None, "stretch parameter"),
        ParamSpec("scale", float, None, "cover scale"),
    ),
    label=lambda r: f"cover[k={r['k']},scale={r['scale']}]",
)
def _build_cover(net: "Network", k: int, scale: float):
    from repro.covers.sparse_cover import DoubleTreeCover

    return DoubleTreeCover(net.metric(), k, float(scale))


@register_artifact(
    "hashed_naming",
    summary="wild-name reduction (adversarial names + hash family)",
    params=(
        ParamSpec("universe", int, DEFAULT_UNIVERSE, "wild-name universe size"),
    ),
    label=lambda r: f"hashed[universe={r['universe']}]",
)
def _build_hashed_naming(net: "Network", universe: int):
    from repro.naming.hashing import HashedNaming, random_wild_names

    rng = net.derive_rng("wild", {"universe": universe})
    wild = random_wild_names(net.n, universe, rng)
    return HashedNaming(wild, universe, rng)
