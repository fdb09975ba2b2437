"""The four workloads, each run as one pass (untraced or traced).

Every workload drives the program from outside, through public APIs
only: ``repro.api.Network`` / ``Router``, ``repro.runtime.traffic.
run_workload`` and the ``repro serve`` daemon over HTTP.  A pass builds
its inputs from the seed, sets up several times, measures for the
requested seconds, checks every output it can, and returns the
end-to-end metrics; a traced pass also returns the per-layer metrics
read off its spans.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import inputs
import loadgen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: end-to-end metrics, reported by every workload
E2E = ("setup_s", "route_pairs_per_s", "latency_p50_ms", "peak_rss_mb",
       "stretch_mean", "table_bits_max")

#: per-layer metrics, reported by every traced pass (0 where the
#: workload does not exercise the layer)
LAYERS = (
    "graph.oracle_build_s", "graph.evolve_ms", "graph.repair_rows",
    "graph.repair_incremental_ratio", "rtz.substrate_build_s",
    "rtz.spanner_build_s", "covers.hierarchy_build_s", "schemes.build_s",
    "runtime.engine.compile_s", "runtime.engine.compile_peak_mb",
    "runtime.engine.batch_ms", "runtime.engine.hops",
    "runtime.engine.hops_per_s", "runtime.simulator.pairs_per_s",
    "runtime.traffic.pool_overhead_s", "runtime.traffic.parallel_efficiency",
    "api.route_many_self_ms", "api.artifact_builds", "api.store_hits",
    "store.load_ms", "serve.parse_ms", "serve.broker_wait_ms",
    "serve.execute_ms", "serve.encode_ms", "serve.transport_ms",
    "serve.pairs_per_batch", "serve.shed", "loadgen.late_p99_ms",
) + tuple(f"trace.overhead_ratio.{m}" for m in E2E)

#: workload sizes: the measured configuration and the self-check one
SIZES = {
    "batch-routing": ({"n": 1024, "batch": 1000}, {"n": 48, "batch": 50}),
    "served-requests": (
        {"n": 256, "rate": 50.0, "pairs": 8, "alpha": 1.2, "conns": 2, "warmup": 25},
        {"n": 32, "rate": 100.0, "pairs": 8, "alpha": 1.2, "conns": 2, "warmup": 5},
    ),
    "churn": ({"n": 192, "reads": 256, "checks": 16, "max_rate": 100},
              {"n": 24, "reads": 32, "checks": 4, "max_rate": 1000}),
    "stack-headers": (
        {"n": 256, "k": 2, "call": 2048, "jobs": 2, "sample": 256},
        {"n": 32, "k": 2, "call": 1024, "jobs": 2, "sample": 16},
    ),
}

#: every workload serves one fixed network (graph and network seed), as
#: a deployment does; ``--seed`` draws the traffic: pairs, request
#: bodies and topology deltas
NETWORK_SEED = 1

SCHEME = {"batch-routing": ("stretch6", {}), "served-requests": ("stretch6", {}),
          "churn": ("stretch6", {}), "stack-headers": ("exstretch", {"k": 2})}

#: float slack for comparing a routed cost with a shortest roundtrip
REL_TOL = 1e-9


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    setups: int = 3
    tiny: bool = False
    work_dir: str = ""

    @property
    def size(self) -> Dict[str, Any]:
        return SIZES[self.workload][1 if self.tiny else 0]


@dataclass
class PassResult:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    info: Dict[str, Any]
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {"metrics": self.metrics, "attempted": self.attempted,
                "failed": self.failed, "problems": self.problems,
                "info": self.info, "layers": self.layers, "spans": self.spans}


class Checker:
    """Collects correctness failures; any one fails the run."""

    def __init__(self) -> None:
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    def routes(self, label: str, src, dst, cost, stretch, r_matrix, bound) -> None:
        """Every pair: ``cost >= r(s, t)`` and ``stretch <= bound``."""
        src, dst = np.asarray(src), np.asarray(dst)
        cost, stretch = np.asarray(cost, float), np.asarray(stretch, float)
        r = r_matrix[src, dst]
        low = np.flatnonzero(~(cost >= r * (1 - REL_TOL)))
        high = np.flatnonzero(~(stretch <= bound * (1 + REL_TOL)))
        for i in low[:3]:
            self.fail(f"{label}: pair ({src[i]}, {dst[i]}) cost {cost[i]!r} "
                      f"< r = {r[i]!r}")
        for i in high[:3]:
            self.fail(f"{label}: pair ({src[i]}, {dst[i]}) stretch "
                      f"{stretch[i]!r} > bound {bound}")

    def same_route(self, label: str, got, ref) -> None:
        """A routed result equals the python reference engine's, bit
        for bit (trace, cost, hops, header bits)."""
        if (got.trace != ref.trace or got.cost != ref.cost or got.hops != ref.hops
                or got.max_header_bits != ref.max_header_bits
                or got.dest_name != ref.dest_name):
            self.fail(f"{label}: pair ({got.source}, {got.dest}) differs from "
                      f"the python reference engine")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; failed operations enter as ``inf``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def tails_ms(lat: List[float]) -> Dict[str, float]:
    """Tail latencies of the unit operation.  They go into the run
    record with no bound: on a shared 2-core VM they spread too far
    from run to run to gate anything (see README)."""
    return {f"latency_p{q}_ms": percentile(lat, q) * 1e3 for q in (90, 99)}


def setup_once(cfg: Config, rec, quads, measure_memory: bool = False):
    """One timed set-up from a fresh graph object: ``Network`` ->
    ``router`` -> ``resolve_engine``, i.e. oracle, naming, metric,
    substrate, scheme and compiled tables all built.  Returns the
    network, the router, the seconds taken and, when asked, the
    tracemalloc peak of the table compilation in MiB.  Callers drop
    their previous network first, so set-ups never overlap in memory."""
    from repro.api import Network

    scheme, params = SCHEME[cfg.workload]
    gc.collect()
    graph = inputs.fresh_graph(cfg.size["n"], quads)
    peak = 0.0
    with rec.span("bench.setup"):
        t0 = time.perf_counter()
        net = Network(graph, seed=NETWORK_SEED, store=None)
        router = net.router(scheme, **params)
        if measure_memory:
            tracemalloc.start()
        router.resolve_engine()
        if measure_memory:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        seconds = time.perf_counter() - t0
    return net, router, seconds, peak


def artifact_counts(net) -> Dict[str, float]:
    rows = net.stats().cache.rows
    return {"api.artifact_builds": float(sum(r.builds for r in rows)),
            "api.store_hits": float(sum(r.store_hits for r in rows))}


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------
BUILD_LAYERS = {
    "graph.oracle": "graph.oracle_build_s",
    "rtz.substrate": "rtz.substrate_build_s",
    "rtz.spanner": "rtz.spanner_build_s",
    "covers.hierarchy": "covers.hierarchy_build_s",
    "schemes.build": "schemes.build_s",
    "runtime.engine.compile": "runtime.engine.compile_s",
}


class SpanView:
    """Self times of layer spans, grouped by the benchmark root span
    (``bench.setup``, ``bench.route``, ...) each one ran under."""

    def __init__(self, spans: List[tracing.Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.kids = tracing.children_of(spans)
        self.root = {s.id: tracing.root_of(s, self.by_id) for s in spans}

    def under(self, root_name: str, name: str) -> List[tracing.Span]:
        return [s for s in self.spans
                if s.name == name and self.root[s.id].name == root_name
                and self.root[s.id] is not s]

    def per_root(self, root_name: str) -> List[Dict[str, float]]:
        """One ``{layer span name: summed self time}`` per root span."""
        totals: Dict[int, Dict[str, float]] = {
            s.id: defaultdict(float) for s in self.spans if s.name == root_name
            and s.parent is None}
        for s in self.spans:
            root = self.root[s.id]
            if root is not s and root.id in totals:
                totals[root.id][s.name] += tracing.self_time(s, self.kids)
        return list(totals.values())

    def build_layers(self, root_name: str) -> Dict[str, float]:
        """Median per root span of each build layer's self time (s)."""
        rows = self.per_root(root_name)
        if not rows:
            return {}
        return {metric: statistics.median(r.get(name, 0.0) for r in rows)
                for name, metric in BUILD_LAYERS.items()}

    def engine_layers(self, root_name: str) -> Dict[str, float]:
        batches = self.under(root_name, "runtime.engine.batch")
        calls = self.under(root_name, "api.route_many")
        out: Dict[str, float] = {}
        if batches:
            busy = sum(s.duration for s in batches)
            hops = sum(s.attrs["hops"] for s in batches)
            out["runtime.engine.batch_ms"] = statistics.median(
                s.duration for s in batches) * 1e3
            out["runtime.engine.hops"] = hops / sum(s.attrs["pairs"] for s in batches)
            out["runtime.engine.hops_per_s"] = hops / busy
        if calls:
            out["api.route_many_self_ms"] = statistics.median(
                tracing.self_time(s, self.kids) for s in calls) * 1e3
        return out

    def simulator_layers(self) -> Dict[str, float]:
        runs = [s for s in self.spans if s.name == "runtime.simulator.batch"]
        if not runs:
            return {}
        return {"runtime.simulator.pairs_per_s":
                sum(s.attrs["pairs"] for s in runs) / sum(s.duration for s in runs)}


def finish_layers(layers: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer name, 0 where this workload has no such work."""
    return {name: float(layers.get(name, 0.0)) for name in LAYERS}


# ----------------------------------------------------------------------
# batch-routing
# ----------------------------------------------------------------------
def batch_routing(cfg: Config, rec, traced: bool) -> PassResult:
    """Closed loop, one caller: ``Router.route_many`` batches of uniform
    pairs, no pair repeated until every ordered pair has been sent."""
    from repro.exceptions import ReproError

    n, batch = cfg.size["n"], cfg.size["batch"]
    digest = inputs.Digest()
    quads = inputs.random_graph_quads(n, NETWORK_SEED)
    codes = inputs.distinct_pair_codes(cfg.seed, n)
    digest.add("graph", quads)
    digest.add("pair-codes", codes)
    pick = inputs.rng_for(cfg.workload, cfg.seed, "python-check")

    chk = Checker()
    setups: List[float] = []
    lat: List[float] = []
    routed, stretch_sum, compile_peak = 0, 0.0, 0.0
    failed = pos = wraps = checked = 0
    # Set-ups alternate with equal shares of the measured seconds, so
    # both sample the whole run when the machine's speed drifts.
    for phase in range(cfg.setups):
        net = router = r_matrix = None
        net, router, seconds, peak = setup_once(
            cfg, rec, quads, traced and phase == cfg.setups - 1)
        setups.append(seconds)
        compile_peak = max(compile_peak, peak)
        bound = net.stretch_bound("stretch6")
        r_matrix = net.oracle().r_matrix
        deadline = time.perf_counter() + cfg.seconds / cfg.setups
        while time.perf_counter() < deadline:
            if pos + batch > len(codes):
                pos, wraps = 0, wraps + 1
            pairs = inputs.decode_pairs(codes[pos:pos + batch], n)
            pos += batch
            try:
                with rec.span("bench.route"):
                    t0 = time.perf_counter()
                    results = router.route_many(pairs)
                    lat.append(time.perf_counter() - t0)
            except ReproError as exc:
                failed += 1
                lat.append(math.inf)
                chk.fail(f"route_many raised {exc!r}")
                continue
            stretch = [r.stretch for r in results]
            chk.routes("batch-routing", [s for s, _ in pairs], [t for _, t in pairs],
                       [r.cost for r in results], stretch, r_matrix, bound)
            routed += len(results)
            stretch_sum += sum(stretch)
            j = pick.randrange(len(pairs))
            with rec.span("bench.check"):
                ref = router.route_many([pairs[j]], engine="python")[0]
            chk.same_route("batch-routing", results[j], ref)
            checked += 1
    done = [x for x in lat if math.isfinite(x)]
    metrics = {
        "setup_s": statistics.median(setups),
        "route_pairs_per_s": routed / sum(done),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "peak_rss_mb": rss_mb(),
        "stretch_mean": stretch_sum / routed,
        "table_bits_max": float(router.table_report().max_bits),
    }
    info = {"digest": digest.hexdigest(), "pairs": routed, "batches": len(lat),
            "pair_list_wraps": wraps, "python_checked_pairs": checked,
            "setup_samples_s": setups, "latency_samples_s": lat,
            "samples": {"setup_s": len(setups), "latency": len(lat)}}
    layers: Dict[str, float] = {}
    if traced:
        view = SpanView(rec.spans)
        layers.update(view.build_layers("bench.setup"))
        layers.update(view.engine_layers("bench.route"))
        layers.update(view.simulator_layers())
        layers.update(artifact_counts(net))
        layers["runtime.engine.compile_peak_mb"] = compile_peak
    return PassResult(metrics, len(lat), failed, chk.problems, info, layers)


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def churn(cfg: Config, rec, traced: bool) -> PassResult:
    """Single-op topology deltas, each followed by a read batch.
    Reconvergence is ``evolve`` -> ``router`` -> ``resolve_engine``."""
    from repro.exceptions import ReproError
    from repro.graph.shortest_paths import DistanceOracle

    n, reads, checks = cfg.size["n"], cfg.size["reads"], cfg.size["checks"]
    digest = inputs.Digest()
    quads = inputs.random_graph_quads(n, NETWORK_SEED)
    cap = max(30, int(cfg.size["max_rate"] * cfg.seconds))
    ops = inputs.churn_ops(inputs.rng_for(cfg.workload, cfg.seed, "deltas"),
                           inputs.EdgeModel(n, quads), cap)
    deltas = [inputs.to_delta(op) for op in ops]
    gen = np.random.Generator(np.random.PCG64(
        inputs.rng_for(cfg.workload, cfg.seed, "reads").getrandbits(64)))
    read_s = gen.integers(0, n, size=(cap, reads))
    read_t = gen.integers(0, n - 1, size=(cap, reads))
    read_t += read_t >= read_s
    digest.add("graph", quads)
    digest.add("deltas", ops)
    digest.add("read-sources", read_s)
    digest.add("read-dests", read_t)

    setups: List[float] = []
    for i in range(cfg.setups):
        net = router = None
        net, router, seconds, compile_peak = setup_once(
            cfg, rec, quads, traced and i == cfg.setups - 1)
        setups.append(seconds)
    bound = net.stretch_bound("stretch6")
    table_bits = router.table_report().max_bits
    chk = Checker()
    reconverge: List[float] = []
    read_lat: List[float] = []
    stretch: List[float] = []
    repair_rows, incremental, builds = [], 0, []
    attempted = failed = 0
    deadline = time.perf_counter() + cfg.seconds
    for i, delta in enumerate(deltas):
        if time.perf_counter() >= deadline:
            break
        attempted += 2  # the reconvergence and its read batch
        try:
            with rec.span("bench.reconverge"):
                t0 = time.perf_counter()
                net = net.evolve(delta)
                router = net.router("stretch6")
                router.resolve_engine()
                reconverge.append(time.perf_counter() - t0)
        except ReproError as exc:
            failed += 1
            reconverge.append(math.inf)
            chk.fail(f"event {i} ({ops[i][0]}) raised {exc!r}")
            attempted -= 1
            break
        if traced:
            repair = net.stats().repair
            repair_rows.append(repair.rows_recomputed)
            incremental += repair.incremental
            builds.append(artifact_counts(net)["api.artifact_builds"])
        pairs = list(zip(read_s[i].tolist(), read_t[i].tolist()))
        try:
            with rec.span("bench.read"):
                t0 = time.perf_counter()
                results = router.route_many(pairs)
                read_lat.append(time.perf_counter() - t0)
        except ReproError as exc:
            failed += 1
            chk.fail(f"read batch {i} raised {exc!r}")
            continue
        chk.routes(f"churn event {i}", read_s[i], read_t[i], [r.cost for r in results],
                   [r.stretch for r in results], net.oracle().r_matrix, bound)
        stretch.extend(r.stretch for r in results)
        with rec.span("bench.check"):
            refs = router.route_many(pairs[:checks], engine="python")
        for got, ref in zip(results, refs):
            chk.same_route(f"churn event {i}", got, ref)
    events = len(reconverge)

    # the program's final graph and oracle against independent rebuilds
    model = inputs.EdgeModel(n, quads)
    for op in ops[:events]:
        inputs.apply_op(model, op)
    final = {(e.tail, e.head): e.weight for e in net.graph.edges()}
    if final != model.weights:
        chk.fail("final graph differs from the applied delta sequence")
    cold = DistanceOracle(inputs.fresh_graph(
        n, [(e.tail, e.head, e.weight, e.port) for e in net.graph.edges()]))
    if not (np.array_equal(cold.d_matrix, net.oracle().d_matrix)
            and np.array_equal(cold.r_matrix, net.oracle().r_matrix)):
        chk.fail("final oracle differs from a cold DistanceOracle build")

    metrics = {
        "setup_s": statistics.median(setups),
        "route_pairs_per_s": reads * len(read_lat) / sum(read_lat),
        "latency_p50_ms": percentile(reconverge, 50) * 1e3,
        "peak_rss_mb": rss_mb(),
        "stretch_mean": float(np.mean(stretch)),
        "table_bits_max": float(table_bits),
    }
    info = {"digest": digest.hexdigest(), "events": events,
            "inputs_exhausted": events == len(deltas),
            "read_batches": len(read_lat), "setup_samples_s": setups,
            "latency_samples_s": reconverge,
            "samples": {"setup_s": len(setups), "latency": events}}
    layers: Dict[str, float] = {}
    if traced:
        view = SpanView(rec.spans)
        layers.update(view.build_layers("bench.reconverge"))
        layers.update(view.engine_layers("bench.read"))
        layers.update(view.simulator_layers())
        evolves = view.under("bench.reconverge", "graph.evolve")
        layers["graph.evolve_ms"] = statistics.median(
            tracing.self_time(s, view.kids) for s in evolves) * 1e3
        layers["graph.repair_rows"] = statistics.mean(repair_rows)
        layers["graph.repair_incremental_ratio"] = incremental / events
        layers["api.artifact_builds"] = statistics.mean(builds)
        layers["runtime.engine.compile_peak_mb"] = compile_peak
    return PassResult(metrics, attempted, failed, chk.problems, info, layers)


# ----------------------------------------------------------------------
# stack-headers
# ----------------------------------------------------------------------
def stack_headers(cfg: Config, rec, traced: bool) -> PassResult:
    """``exstretch`` (k = 2, python engine only) through
    ``run_workload(..., jobs=2)``, which picks the process pool."""
    from repro.exceptions import ReproError
    from repro.runtime.simulator import Simulator
    from repro.runtime.traffic import run_workload

    size = cfg.size
    n, jobs, call = size["n"], size["jobs"], size["call"]
    digest = inputs.Digest()
    quads = inputs.random_graph_quads(n, NETWORK_SEED)
    cap = max(8, int(10 * cfg.seconds))
    gen = np.random.Generator(np.random.PCG64(
        inputs.rng_for(cfg.workload, cfg.seed, "pairs").getrandbits(64)))
    call_s = gen.integers(0, n, size=(cap, call))
    call_t = gen.integers(0, n - 1, size=(cap, call))
    call_t += call_t >= call_s
    digest.add("graph", quads)
    digest.add("call-sources", call_s)
    digest.add("call-dests", call_t)

    chk = Checker()
    setups: List[float] = []
    lat: List[float] = []
    summaries = []
    failed = i = 0
    # Set-ups alternate with equal shares of the measured seconds, as
    # on batch-routing.
    for phase in range(cfg.setups):
        net = router = scheme = oracle = r_matrix = None
        net, router, seconds, _ = setup_once(cfg, rec, quads)
        setups.append(seconds)
        scheme, oracle = router.scheme, net.oracle()
        bound = net.stretch_bound("exstretch", k=size["k"])
        r_matrix = oracle.r_matrix
        deadline = time.perf_counter() + cfg.seconds / cfg.setups
        while i < cap and time.perf_counter() < deadline:
            pairs = list(zip(call_s[i].tolist(), call_t[i].tolist()))
            i += 1
            try:
                with rec.span("bench.call"):
                    t0 = time.perf_counter()
                    summary = run_workload(scheme, pairs, oracle=oracle, jobs=jobs)
                    lat.append(time.perf_counter() - t0)
            except ReproError as exc:
                failed += 1
                lat.append(math.inf)
                chk.fail(f"run_workload call {i - 1} raised {exc!r}")
                continue
            summaries.append(summary)
            r_sum = float(r_matrix[call_s[i - 1], call_t[i - 1]].sum())
            if (summary.pairs != call or not summary.max_stretch <= bound * (1 + REL_TOL)
                    or not summary.total_cost >= r_sum * (1 - REL_TOL)):
                chk.fail(f"call {i - 1}: {summary.pairs} pairs, max stretch "
                         f"{summary.max_stretch!r} (bound {bound}), total cost "
                         f"{summary.total_cost!r} against sum r {r_sum!r}")
    pool_rss = rss_mb(resource.RUSAGE_CHILDREN)

    # references, outside the timed loop: the first call again serially
    # (same shard plan, so the summary must be bit-identical), and a
    # pair-by-pair sample on the hop-by-hop simulator
    first = list(zip(call_s[0].tolist(), call_t[0].tolist()))
    with rec.span("bench.check"):
        serial = run_workload(scheme, first, oracle=oracle, shard_size=512)
    if summaries and replace(serial, elapsed_s=0.0) != replace(summaries[0], elapsed_s=0.0):
        chk.fail("process-pool summary differs from the serial run of the same pairs")
    sample = first[:size["sample"]]
    with rec.span("bench.check"):
        traces = Simulator(scheme).roundtrip_many(sample, engine="python")
    chk.routes("stack-headers sample", [s for s, _ in sample], [t for _, t in sample],
               [t.total_cost for t in traces],
               [t.total_cost / r_matrix[s, v] for t, (s, v) in zip(traces, sample)],
               r_matrix, bound)

    total = sum(s.pairs for s in summaries)
    done = [x for x in lat if math.isfinite(x)]
    metrics = {
        "setup_s": statistics.median(setups),
        "route_pairs_per_s": total / sum(done),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "peak_rss_mb": rss_mb() + jobs * pool_rss,
        "stretch_mean": sum(s.mean_stretch * s.pairs for s in summaries) / total,
        "table_bits_max": float(router.table_report().max_bits),
    }
    info = {"digest": digest.hexdigest(), "calls": len(lat), "pairs": total,
            "inputs_exhausted": len(lat) == cap,
            "setup_samples_s": setups, "latency_samples_s": lat,
            "samples": {"setup_s": len(setups), "latency": len(lat)}}
    layers: Dict[str, float] = {}
    if traced:
        view = SpanView(rec.spans)
        layers.update(view.build_layers("bench.setup"))
        layers.update(view.simulator_layers())
        layers.update(artifact_counts(net))
        busy = [s.elapsed_s for s in summaries]
        layers["runtime.traffic.pool_overhead_s"] = statistics.median(
            w - b / jobs for w, b in zip(done, busy))
        layers["runtime.traffic.parallel_efficiency"] = sum(busy) / (jobs * sum(done))
    return PassResult(metrics, len(lat), failed, chk.problems, info, layers)


# ----------------------------------------------------------------------
# served-requests
# ----------------------------------------------------------------------
LISTEN = re.compile(r"listening on http://[^:\s]+:(\d+)")


class Daemon:
    """One ``repro serve`` process (or its traced launcher)."""

    def __init__(self, cmd: List[str], log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=subprocess.STDOUT,
                                     env=env, cwd=ROOT)
        self.port: Optional[int] = None

    def wait_healthy(self, timeout: float = 120.0) -> float:
        """Seconds from spawn to the first ``200`` from ``/healthz``."""
        limit = self.started + timeout
        while time.perf_counter() < limit:
            if self.proc.poll() is not None:
                break
            if self.port is None:
                with open(self.log_path) as fh:
                    found = LISTEN.search(fh.read())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None:
                try:
                    status, _ = loadgen.get_json(self.port, "/healthz")
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.001)
        with open(self.log_path) as fh:
            raise RuntimeError(f"daemon did not become healthy:\n{fh.read()[-2000:]}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def served_requests(cfg: Config, rec, traced: bool) -> PassResult:
    """``repro serve`` in its own process, warm-booted from a store this
    pass fills; an open loop of ``POST /route_many`` at a fixed rate."""
    from repro.api import Network
    from repro.store import ArtifactStore, store_override

    size = cfg.size
    n, rate, per = size["n"], size["rate"], size["pairs"]
    scheme = SCHEME[cfg.workload][0]
    zipf = inputs.ZipfPairs(inputs.rng_for(cfg.workload, cfg.seed, "requests"),
                            inputs.rng_for(cfg.workload, NETWORK_SEED, "popularity"),
                            n, size["alpha"])
    count = int(round(rate * cfg.seconds))
    warm_pairs = [zipf.draw(per) for _ in range(size["warmup"])]
    load_pairs = [zipf.draw(per) for _ in range(count)]
    warm_bodies = [inputs.route_many_body(p, scheme) for p in warm_pairs]
    load_bodies = [inputs.route_many_body(p, scheme) for p in load_pairs]

    # fill the store the daemon boots from; this cold-built network is
    # also the offline reference every response is checked against
    store_dir = os.path.join(cfg.work_dir, "store")
    store = ArtifactStore(store_dir)
    with store_override(store):
        ref_net = Network.from_family("random", n, seed=NETWORK_SEED, store=store)
        ref_router = ref_net.router(scheme)
        ref_router.resolve_engine()
    digest = inputs.Digest()
    digest.add("graph", [(e.tail, e.head, e.weight, e.port) for e in ref_net.graph.edges()])
    digest.add("bodies", b"".join(warm_bodies + load_bodies))

    serve_args = ["--family", "random", "--n", str(n), "--seed", str(NETWORK_SEED),
                  "--scheme", scheme, "--port", "0", "--cache-dir", store_dir]
    setups: List[float] = []
    span_files: List[str] = []
    daemon = None
    stats: Dict[str, Any] = {}
    try:
        for i in range(cfg.setups):
            log = os.path.join(cfg.work_dir, f"daemon{i}.log")
            if traced:
                span_files.append(os.path.join(cfg.work_dir, f"daemon{i}.spans.json"))
                cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                       span_files[-1], *serve_args]
            else:
                cmd = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
            daemon = Daemon(cmd, log)
            setups.append(daemon.wait_healthy())
            if i < cfg.setups - 1:
                daemon.stop()
        warm = loadgen.open_loop(daemon.port, "/route_many", warm_bodies, rate, size["conns"])
        t_load = time.perf_counter()
        sent = loadgen.open_loop(daemon.port, "/route_many", load_bodies, rate, size["conns"])
        _, stats = loadgen.get_json(daemon.port, "/stats")
    finally:
        if daemon is not None:
            daemon.stop()
    daemon_rss = rss_mb(resource.RUSAGE_CHILDREN)

    chk = Checker()
    every = warm_pairs + load_pairs
    ref = ref_router.route_many([p for pairs in every for p in pairs])
    got: List[dict] = []
    failed = 0
    for k, (pairs, rec_) in enumerate(zip(every, warm + sent)):
        if not rec_.ok:
            if k >= len(warm):
                failed += 1
            chk.fail(f"request {k}: status {rec_.status} {rec_.payload[:200]!r}")
            got.extend([None] * len(pairs))
            continue
        doc = json.loads(rec_.payload)
        results = doc.get("results", [])
        if len(results) != len(pairs) or doc.get("generation") != 1:
            chk.fail(f"request {k}: {len(results)} results for {len(pairs)} pairs, "
                     f"generation {doc.get('generation')}")
            results = (results + [None] * len(pairs))[:len(pairs)]
        got.extend(results)
    fields = ("source", "dest", "dest_name", "cost", "hops", "max_header_bits", "stretch")
    for g_doc, r in zip(got, ref):
        if g_doc is not None and any(g_doc.get(f) != getattr(r, f) for f in fields):
            chk.fail(f"pair ({r.source}, {r.dest}): served {g_doc} differs from "
                     f"offline route_many")
    served = [(r, g_doc) for g_doc, r in zip(got, ref) if g_doc is not None]
    chk.routes("served-requests", [r.source for r, _ in served],
               [r.dest for r, _ in served], [g["cost"] for _, g in served],
               [g["stretch"] for _, g in served], ref_net.oracle().r_matrix,
               ref_net.stretch_bound(scheme))

    lat = [s.done - s.due if s.ok else math.inf for s in sent]
    late = [s.sent - s.due for s in sent]
    answered = sum(len(p) for p, s in zip(load_pairs, sent) if s.ok)
    load_stretch = [g["stretch"] for g in got[len(warm_pairs) * per:] if g is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "route_pairs_per_s": answered / (max(s.done for s in sent) - sent[0].due),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "peak_rss_mb": daemon_rss,
        "stretch_mean": float(np.mean(load_stretch)),
        "table_bits_max": float(ref_router.table_report().max_bits),
    }
    broker = stats.get("broker", {})
    artifacts = stats.get("session", {}).get("artifacts", {})
    info = {"digest": digest.hexdigest(), "requests": len(sent),
            "setup_samples_s": setups, "latency_samples_s": lat,
            "late_p99_ms": percentile(late, 99) * 1e3,
            "broker": broker,
            "samples": {"setup_s": len(setups), "latency": len(lat)}}
    layers: Dict[str, float] = {
        "loadgen.late_p99_ms": info["late_p99_ms"],
        "serve.pairs_per_batch": broker.get("executed_pairs", 0)
        / max(1, broker.get("executed_batches", 0)),
        "serve.shed": float(broker.get("shed_pairs", 0)),
        "api.artifact_builds": float(sum(a["builds"] for a in artifacts.values())),
        "api.store_hits": float(sum(a["store_hits"] for a in artifacts.values())),
    }
    if traced:
        layers.update(daemon_layers(span_files, sent, t_load))
    return PassResult(metrics, len(sent), failed, chk.problems, info, layers)


def daemon_layers(span_files: List[str], sent, t_load: float) -> Dict[str, float]:
    """Per-layer numbers from the daemons' spans: boot layers per boot
    (median), request layers per measured request (mean)."""
    boots = []
    for path in span_files:
        view = SpanView(tracing.load_spans(path))
        row = view.build_layers("serve.boot")
        loads = view.under("serve.boot", "store.get") + [
            s for s in view.spans
            if s.attrs.get("store_hit") and view.root[s.id].name == "serve.boot"]
        row["store.load_ms"] = sum(tracing.self_time(s, view.kids) for s in loads) * 1e3
        boots.append(row)
    out = {k: statistics.median(b[k] for b in boots) for k in boots[0]}

    spans = [s for s in tracing.load_spans(span_files[-1]) if s.start >= t_load]
    view = SpanView(spans)
    requests = {s.request for s in spans
                if s.name == "serve.dispatch" and s.attrs.get("path") == "POST /route_many"}
    per_req: Dict[str, float] = defaultdict(float)
    executes = tracing.contained_children(spans, "serve.broker", "api.route_many")
    for s in spans:
        if s.request not in requests:
            continue
        if s.name in ("serve.parse", "serve.encode"):
            per_req[s.name] += s.duration
        elif s.name == "serve.broker":
            per_req[s.name] += tracing.self_time(s, view.kids, executes.get(s.id, ()))
        elif s.name == "serve.dispatch":
            per_req[s.name] += s.duration
    count = max(1, len(requests))
    batches = [s for s in spans if s.name == "api.route_many"]
    client = [s.done - s.sent for s in sent if s.ok]
    out.update({
        "serve.parse_ms": per_req["serve.parse"] / count * 1e3,
        "serve.broker_wait_ms": per_req["serve.broker"] / count * 1e3,
        "serve.encode_ms": per_req["serve.encode"] / count * 1e3,
        "serve.execute_ms": statistics.mean(s.duration for s in batches) * 1e3,
        "serve.transport_ms": (statistics.mean(client)
                               - per_req["serve.dispatch"] / count) * 1e3,
    })
    engine = [s for s in spans if s.name == "runtime.engine.batch"]
    if engine:
        hops = sum(s.attrs["hops"] for s in engine)
        out["runtime.engine.batch_ms"] = statistics.median(s.duration for s in engine) * 1e3
        out["runtime.engine.hops"] = hops / sum(s.attrs["pairs"] for s in engine)
        out["runtime.engine.hops_per_s"] = hops / sum(s.duration for s in engine)
    out["api.route_many_self_ms"] = statistics.median(
        tracing.self_time(s, view.kids) for s in batches) * 1e3
    return out


WORKLOADS: Dict[str, Callable[[Config, Any, bool], PassResult]] = {
    "batch-routing": batch_routing,
    "served-requests": served_requests,
    "churn": churn,
    "stack-headers": stack_headers,
}


def run_pass(cfg: Config, traced: bool) -> PassResult:
    """One pass of one workload in this process; a traced pass installs
    the span wrappers first (they stay for the life of the process)."""
    rec = tracing.Recorder() if traced else tracing.NullRecorder()
    if traced:
        tracing.install(rec)
    cfg.work_dir = os.path.join(ROOT, ".perfbench-work", f"{os.getpid()}-{cfg.workload}")
    os.makedirs(cfg.work_dir, exist_ok=True)
    try:
        result = WORKLOADS[cfg.workload](cfg, rec, traced)
    finally:
        shutil.rmtree(cfg.work_dir, ignore_errors=True)
    result.info["tails"] = tails_ms(result.info["latency_samples_s"])
    if traced:
        result.layers = finish_layers(result.layers)
        result.spans = [s.as_list() for s in rec.spans]
    return result
