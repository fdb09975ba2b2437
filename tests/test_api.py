"""Tests for the unified API: registry, Network facade, Router.

Covers the contract the facade guarantees:

* every registered scheme builds and round-trips on two standard
  graph families through ``Network.build_scheme(name)``;
* shared artifacts (metric, RTZ substrate) are built exactly once when
  several schemes ride on them (cache-hit accounting);
* unknown scheme names fail with a clean error listing the registered
  choices, and invalid parameters fail with the accepted ones, also
  when they come with an already-built scheme;
* the network builds its oracle by the ``auto`` rule, and no layer
  takes an engine.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import random
from pathlib import Path

import pytest

from repro.api import (
    Network,
    Router,
    UnknownSchemeError,
    all_specs,
    get_spec,
    scheme_names,
)
from repro.api.router import RouteResult
from repro.exceptions import ConstructionError, GraphError
from repro.graph.digraph import Digraph
from repro.graph.generators import bidirected_torus, random_strongly_connected
from repro.graph.shortest_paths import DistanceOracle
from python_engine import python_engine


def make_network(family: str = "random", n: int = 20, seed: int = 0) -> Network:
    if family == "torus":
        side = max(2, int(round(n ** 0.5)))
        g = bidirected_torus(side, side, rng=random.Random(seed))
    else:
        g = random_strongly_connected(n, rng=random.Random(seed))
    return Network(g, seed=seed + 1)


class TestRegistry:
    def test_builtin_schemes_registered(self):
        names = scheme_names()
        for expected in (
            "stretch6",
            "stretch6_via_source",
            "exstretch",
            "polystretch",
            "rtz",
            "shortest_path",
            "wild_names",
        ):
            assert expected in names

    def test_unknown_scheme_lists_choices(self):
        with pytest.raises(UnknownSchemeError) as exc:
            get_spec("no-such-scheme")
        message = str(exc.value)
        assert "no-such-scheme" in message
        for name in scheme_names():
            assert name in message

    def test_name_normalization(self):
        assert get_spec("stretch6-via-source").name == "stretch6_via_source"
        assert get_spec("STRETCH6").name == "stretch6"

    def test_unknown_parameter_rejected(self):
        spec = get_spec("stretch6")
        with pytest.raises(ConstructionError) as exc:
            spec.validate_params({"bogus": 1})
        assert "bogus" in str(exc.value)
        assert "blocks_per_node" in str(exc.value)

    def test_parameter_defaults_and_coercion(self):
        spec = get_spec("exstretch")
        resolved = spec.validate_params({})
        assert resolved["k"] == 2
        assert spec.validate_params({"k": "3"})["k"] == 3
        with pytest.raises(ConstructionError):
            spec.validate_params({"k": "not-an-int"})

    def test_spec_accepts(self):
        assert get_spec("exstretch").accepts("k")
        assert not get_spec("stretch6").accepts("k")


class TestNetwork:
    @pytest.mark.parametrize("family", ["random", "torus"])
    @pytest.mark.parametrize("name", sorted(scheme_names()))
    def test_every_scheme_roundtrips(self, family, name):
        net = make_network(family, n=16, seed=3)
        scheme = net.build_scheme(name)
        bound = net.stretch_bound(name)
        router = net.router(scheme)
        prng = random.Random(9)
        for _ in range(12):
            s = prng.randrange(net.n)
            t = prng.randrange(net.n)
            if s == t:
                continue
            result = router.route(s, t)
            assert result.dest == t
            assert result.stretch <= bound + 1e-9
            assert result.cost > 0.0

    def test_shared_artifacts_built_once(self):
        """Acceptance: two schemes on one network build the metric and
        the RTZ substrate exactly once each."""
        net = make_network(n=18, seed=5)
        s6 = net.build_scheme("stretch6")
        rtz = net.build_scheme("rtz")
        info = net.stats().cache.as_dict()
        assert info["metric"]["builds"] == 1
        assert info["metric"]["hits"] >= 1
        assert info["rtz"]["builds"] == 1
        assert info["rtz"]["hits"] >= 1
        assert info["oracle"]["builds"] == 1
        assert info["naming"]["builds"] == 1
        # the same substrate object is shared, not merely equal
        assert s6.rtz is rtz.rtz

    def test_hierarchy_shared_between_exstretch_and_polystretch(self):
        net = make_network(n=14, seed=2)
        ex = net.build_scheme("exstretch", k=2)
        poly = net.build_scheme("polystretch", k=2)
        assert net.stats().cache.as_dict()["hierarchy[k=2]"]["builds"] == 1
        assert ex.spanner.hierarchy is poly.hierarchy

    def test_build_scheme_cached_per_params(self):
        net = make_network(n=14, seed=4)
        a = net.build_scheme("exstretch", k=2)
        b = net.build_scheme("exstretch", k=2)
        c = net.build_scheme("exstretch", k=3)
        assert a is b
        assert c is not a

    def test_unknown_scheme_through_network(self):
        net = make_network(n=10, seed=1)
        with pytest.raises(UnknownSchemeError):
            net.build_scheme("definitely-not-registered")

    def test_requires_frozen_graph(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        with pytest.raises(GraphError):
            Network(g)

    def test_oracle_uses_the_auto_rule(self):
        """The network's oracle is ``DistanceOracle(graph)``: the
        vectorized engine on an ordinary graph, bit-identical to the
        python reference."""
        net = make_network(n=12, seed=6)
        oracle = net.oracle()
        assert oracle.engine == "vectorized"
        ref = DistanceOracle(net.graph, engine="python")
        assert (oracle.d_matrix == ref.d_matrix).all()
        assert (oracle.parent_matrix() == ref.parent_matrix()).all()

    def test_no_layer_takes_an_engine(self):
        g = random_strongly_connected(8, rng=random.Random(0))
        with pytest.raises(TypeError):
            Network(g, engine="python")
        with pytest.raises(TypeError):
            Network.from_family("random", 8, engine="python")
        net = Network(g, store=None)
        assert not hasattr(net, "engine")
        with pytest.raises(TypeError):
            Router(net.build_scheme("rtz"), engine="python")

    @pytest.mark.parametrize("params", [
        {"engine": "python"}, {"tables": "blocked"}, {"k": 9},
        {"engine": "python", "k": 3},
    ])
    def test_router_params_rejected_alike_for_names_and_built_schemes(
        self, params
    ):
        """``router(scheme, **params)`` forwards ``params`` to the build
        for a name and has nowhere to put them for a built scheme: both
        forms raise, neither drops them."""
        net = make_network(n=12, seed=9)
        with pytest.raises(ConstructionError) as by_name:
            net.router("stretch6", **params)
        assert "takes no parameter" in str(by_name.value)
        with pytest.raises(ConstructionError) as built:
            net.router(net.build_scheme("stretch6"), **params)
        assert str(built.value) == (
            f"scheme 'stretch-6 (TINN)' is already built; it takes no "
            f"parameters {sorted(params)}"
        )
        # hop_limit is the router's own argument, not a build parameter
        assert net.router(net.build_scheme("stretch6"), hop_limit=9)

    def test_from_family(self):
        net = Network.from_family("cycle", 12, seed=2)
        assert net.n == 12
        with pytest.raises(GraphError) as exc:
            Network.from_family("nope", 12)
        assert "cycle" in str(exc.value)

    def test_instance_bridge_removed(self):
        net = make_network(n=12, seed=8)
        assert not hasattr(net, "instance")

    def test_deterministic_across_networks(self):
        a = make_network(n=12, seed=11)
        b = make_network(n=12, seed=11)
        assert a.naming() == b.naming()
        assert a.build_scheme("rtz").rtz.centers == b.build_scheme("rtz").rtz.centers


class TestSharedSubstrate:
    def test_explicit_substrate_kwarg_still_wins(self, small_metric):
        from repro.naming.permutation import random_naming
        from repro.rtz.routing import RTZStretch3
        from repro.schemes.rtz_baseline import RTZBaselineScheme

        naming = random_naming(small_metric.n, random.Random(1))
        mine = RTZStretch3(small_metric, random.Random(2))
        scheme = RTZBaselineScheme(small_metric, naming, substrate=mine)
        assert scheme.rtz is mine


class TestRouter:
    def test_accounting_counts_queries(self):
        """Single queries count on the python engine, batches on the
        compiled one; the table footprint is its own report."""
        net = make_network(n=14, seed=12)
        router = net.router("stretch6")
        router.route(0, 5)
        router.route_many([(1, 2), (3, 4)])
        stats = router.stats().as_dict()
        assert stats["python"]["pairs"] == stats["python"]["batches"] == 1
        assert stats["vectorized"]["pairs"] == 2
        assert stats["vectorized"]["batches"] == 1
        assert router.table_report().max_entries > 0
        text = router.stats().format()
        assert "python      batches=1 pairs=1" in text
        assert "vectorized  batches=1 pairs=2" in text

    def test_route_by_name(self):
        net = make_network(n=14, seed=13)
        router = net.router("stretch6")
        naming = net.naming()
        by_vertex = router.route(0, 5)
        by_name = router.route(0, naming.name_of(5), by_name=True)
        assert by_name.dest == 5
        assert by_name.cost == by_vertex.cost

    def test_batch_results_are_ordinary_frozen_results(self):
        """route_many fills each result's fields without the dataclass
        constructor; the results still equal constructor-built ones,
        print, pickle and copy like them, and stay frozen."""
        net = make_network(n=14, seed=16)
        for engine in ("vectorized", "python"):
            got = net.router("stretch6").route_many(
                [(0, 5), (3, 9)], engine=engine
            )
            for r in got:
                built = RouteResult(*(
                    getattr(r, f.name) for f in dataclasses.fields(RouteResult)
                ))
                assert r == built and repr(r) == repr(built)
                assert vars(r) == vars(built)
                assert pickle.loads(pickle.dumps(r)) == built
                changed = dataclasses.replace(r, cost=1.0)
                assert changed == dataclasses.replace(built, cost=1.0)
                assert changed.cost == 1.0 and changed.trace == r.trace
                with pytest.raises(dataclasses.FrozenInstanceError):
                    r.cost = 0.0
                with pytest.raises(dataclasses.FrozenInstanceError):
                    del r.hops

    def test_router_without_oracle_has_nan_stretch(self):
        net = make_network(n=12, seed=14)
        router = Router(net.build_scheme("rtz"))
        assert math.isnan(router.route(0, 3).stretch)

    def test_serve_workload(self):
        from repro.runtime.traffic import generate_workload

        net = make_network(n=14, seed=15)
        router = net.router("rtz")
        workload = generate_workload("uniform", net.n, 25, rng=random.Random(1))
        summary = router.serve_workload(workload)
        assert summary.pairs == 25
        assert summary.max_stretch <= 3.0 + 1e-9
        assert router.stats().as_dict()["vectorized"]["pairs"] == 25


BAD_PAIR_NET = {}


def bad_pairs(n: int, s: int = 3, t: int = 5):
    """Pairs no roundtrip can be routed on: a self-pair, each endpoint
    just outside ``[0, n)`` on either side, and one beyond int64."""
    return [(s, s), (-1, t), (s, -1), (n, t), (s, n), (s, 2 ** 64)]


@pytest.mark.parametrize("engine", ["python", "vectorized"])
@pytest.mark.parametrize("scheme_name", scheme_names())
class TestBadPairsRejected:
    """Every entry point rejects a bad pair with ``GraphError`` before
    routing anything, on every scheme and engine (the python runs force
    every ``auto`` batch onto the python engine)."""

    @pytest.fixture
    def router(self, scheme_name, engine):
        if "net" not in BAD_PAIR_NET:
            BAD_PAIR_NET["net"] = Network.from_family(
                "random", 24, seed=4, store=None
            )
        router = BAD_PAIR_NET["net"].router(scheme_name)
        if engine == "vectorized":
            yield router
        else:
            with python_engine():
                yield router

    @staticmethod
    def routed(router) -> int:
        return sum(row["pairs"] for row in router.stats().as_dict().values())

    def test_route(self, router):
        for s, t in bad_pairs(router.scheme.graph.n):
            with pytest.raises(GraphError):
                router.route(s, t)
        assert self.routed(router) == 0

    def test_route_many(self, router, engine):
        assert router.resolve_engine() == engine
        n = router.scheme.graph.n
        for pair in bad_pairs(n):
            with pytest.raises(GraphError):
                router.route_many([(0, 1), pair])
        # by name: resolved first, then checked
        name_of = router.scheme.name_of
        with pytest.raises(GraphError):
            router.route_many([(3, name_of(3))], by_name=True)
        with pytest.raises(GraphError):
            router.route_many([(n, name_of(3))], by_name=True)
        assert self.routed(router) == 0

    def test_run_workload(self, router, engine):
        from repro.runtime.traffic import run_workload

        for pair in bad_pairs(router.scheme.graph.n):
            with pytest.raises(GraphError):
                run_workload(router.scheme, [(0, 1), pair], engine=engine)
            with pytest.raises(GraphError):
                router.serve_workload([pair])
        assert self.routed(router) == 0

    def test_non_integer_endpoint(self, router, engine):
        """A float (even ``3.0``), a string or ``None`` is no endpoint:
        every entry point raises the same error naming the pair, names
        included (checked before they are resolved), and routes
        nothing; bools still count as integers."""
        from repro.runtime.traffic import run_workload

        for x in (3.5, 3.0, "3", None):
            calls = [
                lambda: router.route(0, x),
                lambda: router.route(0, x, by_name=True),
                lambda: router.route_many([(0, 1), (0, x)]),
                lambda: router.route_many([(0, 1), (0, x)], by_name=True),
                lambda: run_workload(
                    router.scheme, [(0, 1), (0, x)], engine=engine
                ),
            ]
            for call in calls:
                with pytest.raises(GraphError) as exc:
                    call()
                assert str(exc.value) == (
                    f"pair (0, {x!r}) has an endpoint that is not an integer"
                )
            with pytest.raises(GraphError, match=rf"pair \({x!r}, 1\)"):
                router.route_many([(x, 1)])
        assert self.routed(router) == 0
        assert router.route_many([(True, 3)])[0].source == 1


class TestSpecsListing:
    def test_all_specs_have_summaries_and_bounds(self):
        for spec in all_specs():
            assert spec.summary
            assert spec.bound_text != "?"


def test_readme_python_api_example_runs(capsys):
    """The README's Python API example runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    assert "stretch6" in capsys.readouterr().out
