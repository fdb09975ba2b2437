"""The scheme registry: one declarative spec per routing scheme.

Every scheme in :mod:`repro.schemes` registers itself with
:func:`register_scheme`, declaring its public name, constructor
(builder), parameter schema, and stretch bound.  The registry replaces
the hardcoded label dispatches that used to live in ``cli._scheme()``
and in every benchmark file: callers resolve schemes by name through
:func:`get_spec` (or, at a higher level, through
:meth:`repro.api.Network.build_scheme`) and get parameter validation
and clean unknown-name errors for free.

Registration happens at import time of the scheme modules; the
registry lazily imports :mod:`repro.schemes` on first lookup so plain
``from repro.api import Network`` is enough to see every built-in
scheme.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.exceptions import ConstructionError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.network import Network
    from repro.runtime.scheme import RoutingScheme


class UnknownSchemeError(ReproError):
    """Raised when a scheme name is not in the registry.

    The message always lists the registered choices, so CLI users and
    API callers see what is available without a second query.
    """


@dataclass(frozen=True)
class ParamSpec:
    """One tunable parameter of a registered scheme.

    Attributes:
        name: keyword name accepted by the builder.
        type: expected Python type (used for validation/coercion).
        default: value used when the caller omits the parameter
            (``None`` means "builder decides").
        help: one-line description for listings.
    """

    name: str
    type: type
    default: Any
    help: str = ""


def validate_params(
    owner: str, params: Tuple[ParamSpec, ...], given: Dict[str, Any]
) -> Dict[str, Any]:
    """Check ``given`` against the ``params`` schema of ``owner`` (a
    label such as ``"scheme 'rtz'"``) and fill defaults.

    Returns:
        The full parameter dict (declaration order, defaults applied).

    Raises:
        ConstructionError: on unknown names or type mismatches.
    """
    allowed = {p.name: p for p in params}
    for key in given:
        if key not in allowed:
            raise ConstructionError(
                f"{owner} takes no parameter {key!r}; "
                f"accepted: {sorted(allowed) or '(none)'}"
            )
    resolved: Dict[str, Any] = {}
    for p in params:
        value = given.get(p.name, p.default)
        if value is not None and not isinstance(value, p.type):
            try:
                value = p.type(value)
            except (TypeError, ValueError) as exc:
                raise ConstructionError(
                    f"{owner} parameter {p.name!r} "
                    f"expects {p.type.__name__}, got {value!r}"
                ) from exc
        resolved[p.name] = value
    return resolved


#: builder signature: ``(network, rng, **params) -> RoutingScheme``
SchemeBuilder = Callable[..., "RoutingScheme"]


@dataclass(frozen=True)
class SchemeSpec:
    """Declarative description of one registered routing scheme.

    Attributes:
        name: registry key (what ``--scheme`` accepts).
        builder: ``(network, rng, **params) -> RoutingScheme``; pulls
            shared artifacts (metric, naming, substrates) off the
            network's artifact cache.
        summary: one-line description for ``repro schemes``.
        params: accepted parameters, in declaration order.
        stretch_bound: ``scheme -> float``, the claimed worst-case
            roundtrip stretch of a *built* instance (parameter-dependent
            bounds read the scheme's own accessors).
        bound_text: the bound as the paper states it (for listings).
        name_independent: whether the scheme is TINN (Fig. 1 column).
    """

    name: str
    builder: SchemeBuilder
    summary: str = ""
    params: Tuple[ParamSpec, ...] = field(default_factory=tuple)
    stretch_bound: Callable[["RoutingScheme"], float] = lambda s: float("inf")
    bound_text: str = "?"
    name_independent: bool = True

    def accepts(self, param: str) -> bool:
        """Whether the builder takes a parameter of this name."""
        return any(p.name == param for p in self.params)

    def validate_params(self, given: Dict[str, Any]) -> Dict[str, Any]:
        """Check ``given`` against the schema and fill defaults
        (:func:`validate_params`)."""
        return validate_params(f"scheme {self.name!r}", self.params, given)

    def build(
        self,
        network: "Network",
        rng: Optional[random.Random] = None,
        **params: Any,
    ) -> "RoutingScheme":
        """Construct the scheme against a network's artifact cache."""
        resolved = self.validate_params(params)
        if rng is None:
            rng = network.derive_rng(self.name, resolved)
        return self.builder(network, rng, **resolved)


_REGISTRY: Dict[str, SchemeSpec] = {}


def register_scheme(
    name: str,
    summary: str = "",
    params: Tuple[ParamSpec, ...] = (),
    stretch_bound: Optional[Callable[["RoutingScheme"], float]] = None,
    bound_text: str = "?",
    name_independent: bool = True,
) -> Callable[[SchemeBuilder], SchemeBuilder]:
    """Class/function decorator registering a scheme builder.

    Usage (in a scheme module)::

        @register_scheme("stretch6", summary="...", bound_text="6")
        def _build(net, rng, **params):
            return StretchSixScheme(net.metric(), net.naming(), rng=rng,
                                    substrate=net.rtz(), **params)

    The decorated builder is returned unchanged.
    """
    key = _normalize(name)

    def decorate(builder: SchemeBuilder) -> SchemeBuilder:
        if key in _REGISTRY:
            raise ConstructionError(f"scheme {name!r} registered twice")
        _REGISTRY[key] = SchemeSpec(
            name=key,
            builder=builder,
            summary=summary,
            params=tuple(params),
            stretch_bound=stretch_bound or (lambda s: float("inf")),
            bound_text=bound_text,
            name_independent=name_independent,
        )
        return builder

    return decorate


def _normalize(name: str) -> str:
    """Registry keys treat ``-`` and ``_`` as the same character."""
    return name.strip().lower().replace("-", "_")


def _ensure_builtin_schemes() -> None:
    """Import :mod:`repro.schemes` so its modules self-register."""
    import repro.schemes  # noqa: F401  (import for side effect)


def get_spec(name: str) -> SchemeSpec:
    """Look up a scheme spec by name.

    Raises:
        UnknownSchemeError: listing the registered names.
    """
    _ensure_builtin_schemes()
    spec = _REGISTRY.get(_normalize(name))
    if spec is None:
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; registered schemes: "
            f"{', '.join(scheme_names())}"
        )
    return spec


def scheme_names() -> List[str]:
    """Sorted names of every registered scheme."""
    _ensure_builtin_schemes()
    return sorted(_REGISTRY)


def all_specs() -> List[SchemeSpec]:
    """Every registered spec, sorted by name."""
    _ensure_builtin_schemes()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
