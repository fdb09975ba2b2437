"""Property-based routing invariants (hypothesis).

Random seeds, graph families/sizes, and pair batches; for each drawn
instance the suite checks the paper-level invariants that must hold on
*every* journey, under both execution engines:

* a roundtrip's measured cost is never below the roundtrip metric
  distance ``r(s, t)`` (shortest-path optimality);
* measured stretch never exceeds the registry's declared stretch bound
  for the scheme;
* ``route_many`` is equivalent to repeated ``route`` — and identical
  across the python and vectorized engines.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.api import Network  # noqa: E402

#: schemes exercised, the double-tree schemes included (both compile;
#: tests/test_property_schemes.py adds scheme-specific properties)
SCHEMES = (
    "shortest_path", "rtz", "stretch6", "wild_names", "exstretch",
    "polystretch",
)

_SIZES = (12, 16, 24)
_FAMILIES = ("random", "dht")

#: session cache: hypothesis draws many examples, networks are reusable
_NETWORKS: Dict[Tuple[str, int, int], Network] = {}


def _network(family: str, n: int, seed: int) -> Network:
    key = (family, n, seed)
    if key not in _NETWORKS:
        _NETWORKS[key] = Network.from_family(family, n, seed=seed)
    return _NETWORKS[key]


@st.composite
def routing_instances(draw):
    family = draw(st.sampled_from(_FAMILIES))
    n = draw(st.sampled_from(_SIZES))
    seed = draw(st.integers(min_value=0, max_value=1))
    count = draw(st.integers(min_value=1, max_value=10))
    pairs: List[Tuple[int, int]] = []
    for _ in range(count):
        s = draw(st.integers(min_value=0, max_value=n - 1))
        t = draw(st.integers(min_value=0, max_value=n - 2))
        if t >= s:
            t += 1
        pairs.append((s, t))
    return family, n, seed, pairs


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=routing_instances(), scheme_name=st.sampled_from(SCHEMES))
def test_roundtrip_cost_and_stretch_bounds(instance, scheme_name):
    family, n, seed, pairs = instance
    net = _network(family, n, seed)
    bound = net.stretch_bound(scheme_name)
    router = net.router(scheme_name)
    oracle = net.oracle()
    for result in router.route_many(pairs):
        r = oracle.r(result.source, result.dest)
        # Cost can never undercut the metric (it is a real walk).
        assert result.cost >= r - 1e-9
        # Measured stretch stays within the claimed bound.
        assert result.stretch <= bound + 1e-9
        assert math.isfinite(result.stretch)
        # Trace endpoints are consistent with the query.
        assert result.trace.outbound.path[0] == result.source
        assert result.trace.outbound.path[-1] == result.dest
        assert result.trace.inbound.path[-1] == result.source


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=routing_instances(), scheme_name=st.sampled_from(SCHEMES))
def test_route_many_equals_repeated_route_under_both_engines(
    instance, scheme_name
):
    family, n, seed, pairs = instance
    net = _network(family, n, seed)

    def snapshot(results):
        return [
            (
                r.source,
                r.dest,
                r.dest_name,
                r.cost,
                r.hops,
                r.max_header_bits,
                r.stretch,
                r.trace.outbound.path,
                r.trace.inbound.path,
            )
            for r in results
        ]

    # Repeated single queries (always the hop-by-hop reference).
    single_router = net.router(scheme_name)
    singles = snapshot([single_router.route(s, t) for (s, t) in pairs])
    by_engine = {}
    for engine in ("python", "vectorized"):
        router = net.router(scheme_name, engine=engine)
        by_engine[engine] = snapshot(router.route_many(pairs))
        assert by_engine[engine] == singles
    assert by_engine["python"] == by_engine["vectorized"]
