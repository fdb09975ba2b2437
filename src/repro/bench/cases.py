"""The built-in benchmark suite: registered cases across five axes.

Each case names one kernel the repo's perf story depends on:

* **build** — scheme-table construction on warm shared artifacts (the
  facade's metric/substrate are cached; the tables are rebuilt every
  repetition with a fixed rng);
* **apsp** — the all-pairs :class:`~repro.graph.shortest_paths.DistanceOracle`
  build, per engine;
* **routing** — per-query serving (``route`` loops) and the analysis
  kernels the paper's experiments time;
* **traffic** — whole-workload batched execution across schemes ×
  workload shapes × engines × families;
* **shard** — sharded python-engine execution: a workload split
  into fixed-boundary shards, routed one after another;
* **store** — the on-disk artifact store's warm-start path: cold
  build-and-persist versus rehydrating the same artifact from a warm
  store (each case owns an explicit temporary
  :class:`~repro.store.ArtifactStore`, so the runner's cold-mode
  override of the *ambient* store does not affect it);
* **serve** — the :mod:`repro.serve` daemon: single-request HTTP
  latency, coalesced multi-client throughput through the batching
  broker, and the direct in-process ``route_many`` baseline the
  daemon's overhead is judged against (one shared background daemon
  per graph size, started lazily and torn down at process exit);
* **memory** — the compiled-table memory story: tracemalloc peaks of
  the dense versus blocked/landmark table builds (every case records
  ``peak_bytes``, but
  these are the ones whose *memory* band, not timing band, is the
  point — a blocked path silently densifying trips the comparator);
* **churn** — topology mutation: one delta folded through
  :meth:`~repro.api.Network.evolve`'s incremental oracle repair versus
  the cold full-rebuild fallback, plus a mixed churn timeline end to
  end (the speedup ratio is the whole point of the repair protocol).

Sizes mirror the pytest-benchmark modules under ``benchmarks/`` (which
time these same registered thunks), and every count is routed through
the :class:`~repro.bench.runner.BenchContext` clamps so a smoke run
finishes in seconds.
"""

from __future__ import annotations

import random
import tempfile

from repro.bench.registry import bench_case
from repro.bench.runner import BenchContext
from repro.graph.shortest_paths import DistanceOracle
from repro.runtime.traffic import run_workload
from repro.rtz.routing import RTZStretch3


def _rng(tag: str) -> random.Random:
    """A fixed per-case rng (rebuilds draw identical samples)."""
    return random.Random(f"bench|{tag}")


# ----------------------------------------------------------------------
# build axis: scheme-table construction on warm shared artifacts
# ----------------------------------------------------------------------

def _register_build_case(label: str, scheme: str, **params):
    name = f"build/{label}"
    shown = f"{scheme}" + (f" {params}" if params else "")

    @bench_case(
        name,
        axis="build",
        summary=f"construct {shown} tables on warm artifacts (random, n=96)",
        tags={"scheme": scheme, "family": "random"},
    )
    def _setup(ctx: BenchContext):
        net = ctx.network("random", 96)
        net.build_scheme(scheme, **params)  # warm metric/substrate/covers
        return lambda: net.build_scheme(scheme, rng=_rng(name), **params)

    return _setup


_register_build_case("stretch6", "stretch6")
_register_build_case("wild_names", "wild_names")
_register_build_case("exstretch_k2", "exstretch", k=2)


@bench_case(
    "build/rtz_substrate",
    axis="build",
    summary="Lemma 2 stretch-3 substrate construction (random, n=96)",
    tags={"scheme": "rtz", "family": "random"},
)
def _build_rtz_substrate(ctx: BenchContext):
    # The rtz scheme wrapper reuses the facade's cached substrate, so
    # time the substrate itself (fixed landmark draw each repetition).
    net = ctx.network("random", 96)
    metric = net.metric()
    return lambda: RTZStretch3(metric, rng=_rng("build/rtz_substrate"))


# ----------------------------------------------------------------------
# apsp axis: the all-pairs oracle build, per engine
# ----------------------------------------------------------------------

def _register_apsp_case(engine: str, n: int):
    @bench_case(
        f"apsp/{engine}",
        axis="apsp",
        summary=f"all-pairs oracle build, {engine} engine (random, n={n})",
        tags={"engine": engine, "family": "random"},
    )
    def _setup(ctx: BenchContext):
        graph = ctx.network("random", n).graph  # warm CSR snapshot too
        return lambda: DistanceOracle(graph, engine=engine)

    return _setup


_register_apsp_case("vectorized", 192)
_register_apsp_case("python", 96)


# ----------------------------------------------------------------------
# routing axis: per-query serving and the paper's analysis kernels
# ----------------------------------------------------------------------

@bench_case(
    "routing/stretch6/stretch_distribution",
    axis="routing",
    summary="E2 all-pairs stretch measurement kernel (random, n=48)",
    tags={"scheme": "stretch6", "family": "random"},
)
def _routing_stretch_distribution(ctx: BenchContext):
    from repro.analysis.stretch import stretch_distribution

    router = ctx.network("random", 48).router("stretch6")
    return lambda: stretch_distribution(router)


@bench_case(
    "routing/stretch6/neighborhood",
    axis="routing",
    summary="E2b per-query route() over sqrt-neighborhood pairs (n=48)",
    tags={"scheme": "stretch6", "family": "random"},
)
def _routing_neighborhood(ctx: BenchContext):
    net = ctx.network("random", 48)
    router = net.router("stretch6")
    metric = net.metric()

    def run() -> float:
        worst = 0.0
        for s in range(net.n):
            for t in metric.sqrt_neighborhood(s):
                if t != s:
                    worst = max(worst, router.route(s, t).stretch)
        return worst

    return run


@bench_case(
    "routing/stretch6/route_many",
    axis="routing",
    summary="batched route_many session serving (random, n=64, 400 pairs)",
    tags={"scheme": "stretch6", "family": "random"},
)
def _routing_route_many(ctx: BenchContext):
    net = ctx.network("random", 64)
    router = net.router("stretch6")
    wl = ctx.workload("uniform", net, 400, smoke_pairs=80, seed=11)
    return lambda: router.route_many(wl.pairs)


# ----------------------------------------------------------------------
# traffic axis: whole workloads across schemes x shapes x engines
# ----------------------------------------------------------------------

def _register_traffic_case(
    name: str,
    scheme: str,
    workload: str,
    engine: str,
    family: str = "random",
    n: int = 64,
    pairs: int = 2000,
    smoke_pairs: int = 200,
    seed: int = 13,
    **params,
):
    @bench_case(
        name,
        axis="traffic",
        summary=(f"{workload} workload through {scheme}, {engine} engine "
                 f"({family}, n={n}, {pairs} pairs)"),
        tags={"scheme": scheme, "workload": workload, "engine": engine,
              "family": family},
    )
    def _setup(ctx: BenchContext):
        net = ctx.network(family, n)
        built = net.build_scheme(scheme, **params)
        wl = ctx.workload(workload, net, pairs, smoke_pairs=smoke_pairs,
                          seed=seed)
        oracle = net.oracle()
        # One-time table compilation happens here, not in the timing.
        run_workload(built, wl.pairs[:4], oracle=oracle, engine=engine)
        return lambda: run_workload(built, wl, oracle=oracle, engine=engine)

    return _setup


# The engine headline (mirrors benchmarks/bench_engine.py).
_register_traffic_case(
    "traffic/stretch6/uniform/vectorized", "stretch6", "uniform",
    "vectorized", n=256, pairs=4000, seed=17,
)
_register_traffic_case(
    "traffic/stretch6/uniform/python", "stretch6", "uniform",
    "python", n=256, pairs=1000, smoke_pairs=100, seed=17,
)
_register_traffic_case(
    "traffic/stretch6/mixed/vectorized", "stretch6", "mixed", "vectorized",
)
_register_traffic_case(
    "traffic/stretch6/adversarial/vectorized", "stretch6", "adversarial",
    "vectorized",
)
_register_traffic_case(
    "traffic/shortest_path/uniform/vectorized", "shortest_path", "uniform",
    "vectorized",
)
_register_traffic_case(
    "traffic/rtz/mixed/vectorized", "rtz", "mixed", "vectorized",
)
# The stack-header scheme compiles to double-tree segments; "auto"
# routes it on the vectorized engine.
_register_traffic_case(
    "traffic/exstretch_k2/uniform/auto", "exstretch", "uniform", "auto",
    pairs=1000, smoke_pairs=100, k=2,
)
# Family coverage: the torus's regular structure stresses tie-breaking.
_register_traffic_case(
    "traffic/stretch6/uniform/vectorized-torus", "stretch6", "uniform",
    "vectorized", family="torus",
)


# ----------------------------------------------------------------------
# shard axis: sharded python-engine execution (mirrors bench_shards.py)
# ----------------------------------------------------------------------

_SHARD_N, _SHARD_PAIRS, _SHARDS = 256, 8000, 16


@bench_case(
    "shard/stretch6/python/serial",
    axis="shard",
    summary=(f"sharded python-engine workload, jobs=1 "
             f"(random, n={_SHARD_N}, {_SHARD_PAIRS} pairs)"),
    tags={"scheme": "stretch6", "engine": "python", "jobs": "1",
          "family": "random"},
)
def _shard_serial(ctx: BenchContext):
    net = ctx.network("random", _SHARD_N)
    scheme = net.build_scheme("stretch6")
    wl = ctx.workload("uniform", net, _SHARD_PAIRS, smoke_pairs=120, seed=23)
    shard_size = len(wl) // ctx.count(_SHARDS, 4)
    return lambda: run_workload(
        scheme, wl, engine="python", shard_size=shard_size, jobs=1,
    )


# ----------------------------------------------------------------------
# store axis: cold build-and-persist vs warm mmap rehydration
# ----------------------------------------------------------------------

def _temp_store():
    """A fresh bounded-lifetime store rooted under the system tmpdir
    (explicit instance: unaffected by the runner's cold-mode override
    of the ambient default store)."""
    from repro.store import ArtifactStore

    return ArtifactStore(tempfile.mkdtemp(prefix="repro-bench-store-"))


def _register_store_case(name: str, kind: str, warm: bool, n: int = 96):
    mode = "warm rehydration from" if warm else "cold build-and-persist into"

    @bench_case(
        name,
        axis="store",
        summary=f"{kind} {mode} a temporary artifact store (random, n={n})",
        # Disk + mmap latencies jitter more across hosts than pure
        # compute; the band still catches a warm path degrading into a
        # silent rebuild (orders of magnitude, not percent).
        tolerance=3.0,
        tags={"artifact": kind, "mode": "warm" if warm else "cold",
              "family": "random"},
    )
    def _setup(ctx: BenchContext):
        from repro.api import Network
        from repro.bench.runner import build_family_graph

        store = _temp_store()
        size = ctx.n(n)
        graph = build_family_graph("random", size, ctx.seed)
        seed = ctx.seed + size + 1

        if warm:
            Network(graph, seed=seed, store=store).artifact(kind)

            def run():
                # A fresh facade each repetition: nothing in memory,
                # everything answered by the store tier.
                return Network(graph, seed=seed, store=store).artifact(kind)
        else:

            def run():
                store.clear()
                return Network(graph, seed=seed, store=store).artifact(kind)

        return run

    return _setup


_register_store_case("store/oracle/cold_build", "oracle", warm=False)
_register_store_case("store/oracle/warm_load", "oracle", warm=True)
_register_store_case("store/rtz/warm_load", "rtz", warm=True)


# ----------------------------------------------------------------------
# serve axis: the daemon's request latency and coalesced throughput
# ----------------------------------------------------------------------

#: lazily-started daemons shared across serve cases and repetitions,
#: keyed by (n, seed); daemon threads die with the process.
_SERVE_DAEMONS: dict = {}


def _serve_daemon(n: int, seed: int):
    from repro.serve import ServeConfig, ServeDaemon

    key = (n, seed)
    daemon = _SERVE_DAEMONS.get(key)
    if daemon is None:
        config = ServeConfig(
            family="random", n=n, seed=seed, schemes=("stretch6",),
            port=0, linger_s=0.002, store=None,
        )
        daemon = _SERVE_DAEMONS[key] = ServeDaemon(config).start()
    return daemon


@bench_case(
    "serve/route/latency",
    axis="serve",
    summary="single-pair HTTP request round-trip through the daemon "
            "(random, n=64)",
    # Socket and scheduler latencies jitter far more across hosts than
    # pure compute; the band still catches a broker path that stops
    # short-circuiting single requests.
    tolerance=4.0,
    tags={"scheme": "stretch6", "family": "random", "mode": "daemon"},
)
def _serve_route_latency(ctx: BenchContext):
    from repro.serve import ServeClient

    size = ctx.n(64)
    daemon = _serve_daemon(size, ctx.seed)
    client = ServeClient(port=daemon.port)
    client.healthz()  # connection + first-request warm-up
    return lambda: client.route(0, size - 1)


@bench_case(
    "serve/route_many/coalesced",
    axis="serve",
    summary="8 concurrent clients, one shared coalesced engine batch "
            "(random, n=64, 400 pairs)",
    tolerance=4.0,
    tags={"scheme": "stretch6", "family": "random", "mode": "daemon",
          "clients": "8"},
)
def _serve_route_many_coalesced(ctx: BenchContext):
    import threading

    from repro.serve import ServeClient

    size = ctx.n(64)
    daemon = _serve_daemon(size, ctx.seed)
    net = ctx.network("random", size)
    wl = ctx.workload("uniform", net, 400, smoke_pairs=80, seed=31)
    pairs = list(wl.pairs)
    split = (len(pairs) + 7) // 8
    chunks = [pairs[i:i + split] for i in range(0, len(pairs), split)]
    clients = [ServeClient(port=daemon.port) for _ in chunks]
    for client in clients:
        client.healthz()  # open every connection outside the timing

    def run():
        outcomes = [None] * len(chunks)

        def worker(i):
            outcomes[i] = clients[i].route_many(chunks[i])

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(chunks))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return sum(len(routes) for _, routes in outcomes)

    return run


@bench_case(
    "serve/route_many/direct",
    axis="serve",
    summary="the same 400-pair batch through an in-process session "
            "(the daemon-overhead baseline; random, n=64)",
    tolerance=4.0,
    tags={"scheme": "stretch6", "family": "random", "mode": "direct"},
)
def _serve_route_many_direct(ctx: BenchContext):
    size = ctx.n(64)
    net = ctx.network("random", size)
    router = net.router("stretch6")
    wl = ctx.workload("uniform", net, 400, smoke_pairs=80, seed=31)
    pairs = list(wl.pairs)
    router.route_many(pairs[:4])  # compile outside the timing
    return lambda: router.route_many(pairs)


# ----------------------------------------------------------------------
# memory axis: dense vs blocked compiled-table footprints
# ----------------------------------------------------------------------

def _register_substrate_table_memory_case(label: str, tables: str, n: int = 128):
    structure = ("landmark-factored step tables"
                 if tables == "blocked" else "dense (n,n) step tables")

    @bench_case(
        f"memory/stretch6/tables/{label}",
        axis="memory",
        summary=(f"tracemalloc peak compiling {structure} for the "
                 f"stretch-6 substrate (random, n={n})"),
        tags={"scheme": "stretch6", "family": "random", "tables": tables},
    )
    def _setup(ctx: BenchContext):
        from repro.runtime.engine import compile_substrate_tables

        net = ctx.network("random", n)
        scheme = net.build_scheme("stretch6")
        substrate = scheme.rtz

        def run():
            # Drop the substrate-level caches so every execution pays
            # the full build; the traced pass then sees the real
            # footprint, not a cache hit.
            substrate.__dict__.pop("_compiled_step_tables", None)
            return compile_substrate_tables(substrate, tables)

        return run

    return _setup


_register_substrate_table_memory_case("dense", "dense")
_register_substrate_table_memory_case("blocked", "blocked")


@bench_case(
    "memory/traffic/stretch6/blocked",
    axis="memory",
    summary="tracemalloc peak of a blocked-tables workload run "
            "end to end (random, n=64, 400 pairs)",
    tags={"scheme": "stretch6", "workload": "uniform", "family": "random",
          "tables": "blocked"},
)
def _memory_traffic_blocked(ctx: BenchContext):
    net = ctx.network("random", 64)
    scheme = net.build_scheme("stretch6")
    wl = ctx.workload("uniform", net, 400, smoke_pairs=80, seed=37)
    oracle = net.oracle()
    # Compile outside the traced region: steady-state serving memory is
    # what the band guards.
    run_workload(scheme, wl.pairs[:4], oracle=oracle, engine="vectorized",
                 tables="blocked")
    return lambda: run_workload(scheme, wl, oracle=oracle,
                                engine="vectorized", tables="blocked")


# ----------------------------------------------------------------------
# churn axis: topology mutation — incremental repair vs full rebuild
# ----------------------------------------------------------------------

def _register_churn_evolve_case(label: str, mode: str, n: int = 192):
    point = ("row-wise incremental oracle repair"
             if mode == "incremental"
             else "the cold full-rebuild fallback it is judged against")

    @bench_case(
        f"churn/evolve/{label}",
        axis="churn",
        summary=f"one-edge reweight folded via {point} (random, n={n})",
        tags={"mode": mode, "family": "random", "ops": "reweight"},
    )
    def _setup(ctx: BenchContext):
        from repro.api import Network
        from repro.bench.runner import build_family_graph
        from repro.graph.delta import GraphDelta

        size = ctx.n(n)
        graph = build_family_graph("random", size, ctx.seed)
        net = Network(graph, seed=ctx.seed, store=None)
        net.oracle()  # warm: repair starts from the oracle in memory
        edge = next(iter(graph.edges()))
        delta = GraphDelta.reweight(edge.tail, edge.head, edge.weight * 1.5)
        if mode == "incremental":
            def run():
                child = net.evolve(delta)
                assert child.stats().repair.incremental == 1
                return child
        else:
            new_graph = graph.apply_delta(delta)

            def run():
                child = Network(new_graph, seed=ctx.seed, store=None)
                child.oracle()
                return child

        return run

    return _setup


_register_churn_evolve_case("incremental_repair", "incremental")
_register_churn_evolve_case("full_rebuild", "rebuild")


@bench_case(
    "churn/timeline/mixed",
    axis="churn",
    summary="a 3-epoch mixed churn timeline end to end — evolve + "
            "scheme rebuild + routed traffic per epoch (random, n=64)",
    # Timeline runs compound evolve, scheme builds, and workload
    # serving; the band guards the composite, so keep it loose.
    tolerance=3.0,
    tags={"scheme": "stretch6", "family": "random", "epochs": "3"},
)
def _churn_timeline_mixed(ctx: BenchContext):
    from repro.api import Network
    from repro.bench.runner import build_family_graph
    from repro.runtime.churn import Timeline, EpochSpec, run_timeline

    size = ctx.n(64)
    pairs = ctx.count(400, 60)
    graph = build_family_graph("random", size, ctx.seed)
    net = Network(graph, seed=ctx.seed, store=None)
    net.oracle()
    net.build_scheme("stretch6")
    timeline = Timeline(seed=17, workload="mixed", epochs=(
        EpochSpec(pairs=pairs),
        EpochSpec(pairs=pairs, events=({"op": "reweight"},)),
        EpochSpec(pairs=pairs, events=({"op": "link_up"}, {"op": "link_down"})),
    ))
    return lambda: run_timeline(net, "stretch6", timeline)


# ----------------------------------------------------------------------
# scenario: the committed spec zoo, end to end
# ----------------------------------------------------------------------

def _scenario_dir():
    """The committed ``scenarios/`` directory (checkout layout first,
    cwd fallback)."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[3] / "scenarios"
    if root.is_dir():
        return root
    return Path("scenarios")


def _register_scenario_cases() -> None:
    """One case per committed ``scenarios/*.json`` spec: the whole
    :func:`repro.scenarios.run_scenario` pipeline — graph build, phase
    workloads, churn evolution, the execution matrix, and assertion
    evaluation.  Smoke mode runs the spec's own smoke clamp, exactly
    what the CI scenario-matrix job executes."""
    from repro.scenarios import ScenarioError, load_scenario, run_scenario

    for path in sorted(_scenario_dir().glob("*.json")):
        try:
            spec = load_scenario(str(path))
        except ScenarioError:
            continue  # `repro scenario validate` reports broken specs

        def _setup(ctx: BenchContext, _spec=spec):
            run = _spec.smoke() if ctx.smoke else _spec
            return lambda: run_scenario(run, store=None)

        bench_case(
            f"scenario/{path.stem}",
            axis="scenario",
            summary=spec.summary or spec.name,
            # Scenario runs compound graph builds, churn evolution and
            # matrix execution; the band guards the composite.
            tolerance=3.0,
            tags={
                "scenario": spec.name,
                "family": spec.graph.family,
                "cells": str(spec.matrix.cells),
            },
        )(_setup)


_register_scenario_cases()
