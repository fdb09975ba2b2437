"""Differential tests: compiled vectorized execution vs. the hop-by-hop
Python simulator.

The vectorized engine (:mod:`repro.runtime.engine`) claims *bit
identity* with the reference simulator — same paths, same float costs,
same hop counts, same max header bits, same aggregate summaries, same
hop-limit behaviour.  This suite asserts that claim for every
registered scheme, every workload kind, and two graph families; for
the double-tree schemes (ExStretch, PolynomialStretch) on all nine
graph families and both table storages; plus
:class:`HopLimitExceeded` and :class:`TableLookupError` parity on
looping schemes, tight hop budgets and deleted table rows.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Network, scheme_names
from repro.api.router import Router
from repro.exceptions import HopLimitExceeded, RoutingError, TableLookupError
from repro.graph.digraph import Digraph
from repro.graph.generators import FAMILY_NAMES
from repro.runtime.engine import (
    CompiledRoutes,
    JourneyPlan,
    NextHopTable,
    Segment,
    constant_bits,
    hop_slots,
    run_roundtrips,
)
from repro.runtime.scheme import (
    Decision,
    Forward,
    Header,
    RoutingScheme,
)
from repro.runtime.simulator import Simulator
from repro.runtime.sizing import header_bits
from repro.runtime.traffic import (
    WORKLOAD_KINDS,
    generate_workload,
    run_workload,
)
from repro.schemes.shortest_path import ShortestPathScheme
from table_storage import forced

N = 32
FAMILIES = ("random", "torus")
PAIRS = 48

#: schemes that must compile (falling back would silently weaken the
#: differential suite to python-vs-python): every registered one
COMPILED = set(scheme_names())


@pytest.fixture(scope="module", params=FAMILIES)
def net(request) -> Network:
    return Network.from_family(request.param, N, seed=3)


def assert_traces_equal(py_traces, vec_traces):
    assert len(py_traces) == len(vec_traces)
    for a, b in zip(py_traces, vec_traces):
        for leg_a, leg_b in (
            (a.outbound, b.outbound),
            (a.inbound, b.inbound),
        ):
            assert leg_a.path == leg_b.path
            assert leg_a.cost == leg_b.cost  # bit-identical floats
            assert leg_a.hops == leg_b.hops
            assert leg_a.max_header_bits == leg_b.max_header_bits


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_traces_bit_identical(net, scheme_name, kind):
    scheme = net.build_scheme(scheme_name)
    workload = generate_workload(
        kind, net.n, PAIRS, rng=random.Random(11), oracle=net.oracle()
    )
    sim = Simulator(scheme)
    expected = "vectorized" if scheme_name in COMPILED else "python"
    assert sim.resolve_engine("auto") == expected
    py = sim.roundtrip_many(workload.pairs, engine="python")
    vec = sim.roundtrip_many(workload.pairs, engine="auto")
    assert_traces_equal(py, vec)


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
@pytest.mark.parametrize("scheme_name", sorted(COMPILED))
def test_summaries_bit_identical(net, scheme_name, kind):
    """TrafficSummary aggregates (incl. total_hops) match exactly."""
    scheme = net.build_scheme(scheme_name)
    workload = generate_workload(
        kind, net.n, PAIRS, rng=random.Random(5), oracle=net.oracle()
    )
    py = run_workload(scheme, workload, oracle=net.oracle(), engine="python")
    vec = run_workload(
        scheme, workload, oracle=net.oracle(), engine="vectorized"
    )
    assert py.total_hops == vec.total_hops
    assert py.total_cost == vec.total_cost
    assert py.max_hops == vec.max_hops
    assert py.max_header_bits == vec.max_header_bits
    assert py.mean_stretch == vec.mean_stretch
    assert py.max_stretch == vec.max_stretch
    assert py.worst_pair == vec.worst_pair


def test_by_name_batches_match(net):
    scheme = net.build_scheme("stretch6")
    sim = Simulator(scheme)
    pairs = [(s, t) for s in range(0, 8) for t in range(8, 12)]
    name_pairs = [(s, scheme.name_of(t)) for (s, t) in pairs]
    py = sim.roundtrip_many(name_pairs, by_name=True, engine="python")
    vec = sim.roundtrip_many(name_pairs, by_name=True, engine="vectorized")
    assert_traces_equal(py, vec)


def test_empty_batch_both_engines(net):
    scheme = net.build_scheme("rtz")
    sim = Simulator(scheme)
    assert sim.roundtrip_many([], engine="python") == []
    assert sim.roundtrip_many([], engine="vectorized") == []


class UncompilableScheme(ShortestPathScheme):
    """Shortest-path forwarding without a compiled form (the default
    ``compile_tables``); every registered scheme has one."""

    def compile_tables(self):
        return None


def test_strict_vectorized_rejects_uncompilable(net):
    sim = Simulator(UncompilableScheme(net.oracle(), net.naming()))
    assert sim.resolve_engine("auto") == "python"
    with pytest.raises(RoutingError, match="does not support"):
        sim.roundtrip_many([(0, 1)], engine="vectorized")


def test_unknown_engine_rejected(net):
    sim = Simulator(net.build_scheme("rtz"))
    with pytest.raises(RoutingError, match="unknown execution engine"):
        sim.roundtrip_many([(0, 1)], engine="warp")


# ----------------------------------------------------------------------
# HopLimitExceeded parity on a deliberately looping scheme
# ----------------------------------------------------------------------
class LoopingScheme(RoutingScheme):
    """A scheme that bounces packets between vertices 0 and 1 forever.

    Its compiled tables reproduce the same loop, so both engines must
    diagnose it identically."""

    name = "looping-stub"

    def __init__(self):
        g = Digraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(3, 0, 1.0)
        g.freeze(port_rng=random.Random(0))
        self._g = g

    @property
    def graph(self) -> Digraph:
        return self._g

    def name_of(self, vertex: int) -> int:
        return vertex

    def vertex_of(self, name: int) -> int:
        return name

    def forward(self, at: int, header: Header) -> Decision:
        nxt = 1 if at == 0 else 0
        return Forward(self._g.port_of(at, nxt), dict(header))

    def table_entries(self, vertex: int) -> int:
        return 1

    def compile_tables(self) -> CompiledRoutes:
        bits = header_bits({"mode": "new", "dest": 0}, self._g.n)
        next_vertex = np.full((4, 4), -1, dtype=np.int64)
        next_vertex[0, :] = 1
        next_vertex[1, :] = 0

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            return JourneyPlan(
                legs=[
                    [Segment(dests.copy(), constant_bits(bits, batch))],
                    [Segment(sources.copy(), constant_bits(bits, batch))],
                ],
                leg_init_bits=[
                    constant_bits(bits, batch),
                    constant_bits(bits, batch),
                ],
            )

        n = self._g.n
        slots = hop_slots(self._g, np.arange(n)[:, None], next_vertex)
        step = NextHopTable(slots)
        return CompiledRoutes(self._g, step, planner)


@pytest.mark.parametrize("engine", ["python", "vectorized"])
def test_hop_limit_parity_on_looping_scheme(engine):
    sim = Simulator(LoopingScheme(), hop_limit=25)
    assert sim.resolve_engine("auto") == "vectorized"
    with pytest.raises(HopLimitExceeded):
        sim.roundtrip_many([(0, 3)], engine=engine)


def test_hop_limit_messages_match():
    """Both engines name the offending journey the same way."""
    sim = Simulator(LoopingScheme(), hop_limit=10)
    messages = []
    for engine in ("python", "vectorized"):
        with pytest.raises(HopLimitExceeded) as exc:
            sim.roundtrip_many([(0, 3)], engine=engine)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


class InboundLoopingScheme(RoutingScheme):
    """Delivers outbound along the chain ``0 -> ... -> 5`` but loops
    the acknowledgment between vertices 4 and 3 forever.

    Exercises leg-accurate :class:`HopLimitExceeded` reporting: the
    failing leg is the *inbound* one, so the message must name the
    destination as the start and the source as the expected end —
    and in multi-pair batches the first input-order pair must win,
    even though a later pair's budget (shorter outbound) runs out
    sweeps earlier."""

    name = "inbound-looping-stub"

    def __init__(self):
        g = Digraph(6)
        for i in range(5):
            g.add_edge(i, i + 1, 1.0)  # outbound chain (incl. 3 -> 4)
        g.add_edge(5, 4, 1.0)
        g.add_edge(4, 3, 1.0)  # closes the inbound 4 <-> 3 bounce
        g.freeze(port_rng=random.Random(0))
        self._g = g

    @property
    def graph(self) -> Digraph:
        return self._g

    def name_of(self, vertex: int) -> int:
        return vertex

    def vertex_of(self, name: int) -> int:
        return name

    def forward(self, at: int, header: Header) -> Decision:
        if header["mode"] in ("new", "o"):
            out = {"mode": "o", "dest": header["dest"]}
            if at == header["dest"]:
                from repro.runtime.scheme import Deliver

                return Deliver(out)
            return Forward(self._g.port_of(at, at + 1), out)
        out = {"mode": "r", "dest": header["dest"]}
        nxt = 4 if at in (5, 3) else 3
        return Forward(self._g.port_of(at, nxt), out)

    def table_entries(self, vertex: int) -> int:
        return 1

    def compile_tables(self) -> CompiledRoutes:
        bits = header_bits({"mode": "new", "dest": 0}, self._g.n)
        next_vertex = np.full((6, 6), -1, dtype=np.int64)
        for i in range(5):
            next_vertex[i, 5] = i + 1  # outbound chain toward 5
        for t in range(5):  # inbound: 5 -> 4 <-> 3, never reaching t
            next_vertex[5, t] = 4
            next_vertex[4, t] = 3
            next_vertex[3, t] = 4

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            return JourneyPlan(
                legs=[
                    [Segment(dests.copy(), constant_bits(bits, batch))],
                    [Segment(sources.copy(), constant_bits(bits, batch))],
                ],
                leg_init_bits=[
                    constant_bits(bits, batch),
                    constant_bits(bits, batch),
                ],
            )

        n = self._g.n
        slots = hop_slots(self._g, np.arange(n)[:, None], next_vertex)
        step = NextHopTable(slots)
        return CompiledRoutes(self._g, step, planner)


def test_inbound_loop_messages_name_the_failing_leg():
    """The message must use the *leg's* endpoints (dest -> source for
    an acknowledgment loop), matching the sequential simulator."""
    sim = Simulator(InboundLoopingScheme(), hop_limit=15)
    messages = []
    for engine in ("python", "vectorized"):
        with pytest.raises(HopLimitExceeded) as exc:
            sim.roundtrip_many([(0, 5)], engine=engine)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "from 5 to 0" in messages[0]


def test_multi_loop_batch_raises_first_input_pair():
    """Pair (2, 5) exhausts its budget sweeps before pair (0, 5) (its
    outbound is shorter), but the sequential reference raises for the
    first input-order pair — both engines must agree."""
    sim = Simulator(InboundLoopingScheme(), hop_limit=15)
    for engine in ("python", "vectorized"):
        with pytest.raises(HopLimitExceeded) as exc:
            sim.roundtrip_many([(0, 5), (2, 5)], engine=engine)
        assert "from 5 to 0" in str(exc.value)


def test_router_serve_workload_honors_hop_limit():
    """The Router's hop_limit override must bind workload serving
    exactly as it binds route()/route_many()."""
    from repro.api.router import Router

    for engine in ("python", "vectorized"):
        router = Router(InboundLoopingScheme(), hop_limit=15, engine=engine)
        with pytest.raises(HopLimitExceeded):
            router.serve_workload([(0, 5)])


def test_mixed_workload_stretch_consistency(net):
    """End-to-end: serving through a Router on either engine yields
    identical per-query results, and measured stretch is finite."""
    results = {}
    for engine in ("python", "vectorized"):
        router = net.router("stretch6", engine=engine)
        batch = router.route_many([(0, 9), (3, 14), (7, 2)])
        results[engine] = [
            (r.cost, r.hops, r.max_header_bits, r.stretch) for r in batch
        ]
        info = router.stats().as_dict()
        assert info[engine]["pairs"] == 3
        other = "python" if engine == "vectorized" else "vectorized"
        assert info[other]["pairs"] == 0
    assert results["python"] == results["vectorized"]
    assert all(math.isfinite(s) for (_, _, _, s) in results["python"])


# ----------------------------------------------------------------------
# double-tree schemes: all nine families, both table storages
# ----------------------------------------------------------------------
#: ExStretch (k, blocks_per_node) and PolynomialStretch k.  A budget of
#: one block per node makes ExStretch's acknowledgment walk over the
#: source before its stack is empty on many pairs (none on ``cycle``).
DOUBLE_TREE = (
    ("exstretch", {"k": 2}),
    ("exstretch", {"k": 3}),
    ("exstretch", {"k": 2, "blocks_per_node": 1}),
    ("exstretch", {"k": 3, "blocks_per_node": 1}),
    ("polystretch", {"k": 2}),
    ("polystretch", {"k": 3}),
)
DOUBLE_TREE_IDS = [
    "-".join([name] + [f"{k}={v}" for k, v in params.items()])
    for name, params in DOUBLE_TREE
]

_FAMILY_NETS = {}


def family_net(family: str) -> Network:
    if family not in _FAMILY_NETS:
        _FAMILY_NETS[family] = Network.from_family(family, N, seed=3)
    return _FAMILY_NETS[family]


def sample_pairs(n: int, count: int, seed: int):
    rng = random.Random(seed)
    every = [(s, t) for s in range(n) for t in range(n) if s != t]
    return rng.sample(every, min(count, len(every)))


@pytest.mark.parametrize("scheme_name,params", DOUBLE_TREE, ids=DOUBLE_TREE_IDS)
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_double_tree_schemes_bit_identical(family, scheme_name, params):
    net = family_net(family)
    scheme = net.build_scheme(scheme_name, **params)
    pairs = sample_pairs(net.n, 580, seed=17)
    py = Simulator(scheme).roundtrip_many(pairs, engine="python")
    workload = generate_workload(
        "mixed", net.n, 64, rng=random.Random(5), oracle=net.oracle()
    )
    ref = run_workload(
        scheme, workload, oracle=net.oracle(), engine="python",
        shard_size=16,
    )
    for storage in ("dense", "blocked"):
        with forced(storage):
            sim = Simulator(scheme)
            assert sim.resolve_engine("auto") == "vectorized"
            assert_traces_equal(py, sim.roundtrip_many(pairs, engine="auto"))
            vec = run_workload(
                scheme, workload, oracle=net.oracle(), engine="vectorized",
                shard_size=16,
            )
        assert replace(vec, elapsed_s=0.0) == replace(ref, elapsed_s=0.0)


def test_exstretch_acknowledgment_ends_on_standing_at_the_source():
    """forward() delivers the acknowledgment the first time it stands
    on the source, whatever is left on its stack.  The plan flags the
    inbound leg for that; without the flag the same batch routes
    differently, so the sample really exercises the rule."""
    net = family_net("random")
    scheme = net.build_scheme("exstretch", k=2, blocks_per_node=1)
    pairs = sample_pairs(net.n, 400, seed=23)
    compiled = scheme.compiled_routes()
    hop_limit = 8 * net.n + 64
    py = Simulator(scheme).roundtrip_many(pairs, engine="python")
    assert_traces_equal(py, run_roundtrips(compiled, pairs, hop_limit))

    def unflagged(sources, dests):
        return replace(compiled.plan(sources, dests), ends_on_arrival=None)

    bare = CompiledRoutes(compiled.graph, compiled.tables, unflagged)
    routed = run_roundtrips(bare, pairs, hop_limit)
    assert sum(a != b for a, b in zip(py, routed)) > 0


# ----------------------------------------------------------------------
# failure paths: deleted rows and tight hop budgets
# ----------------------------------------------------------------------
def both_engines_raise(scheme, pairs, error):
    """Route ``pairs`` on each engine; both must raise ``error``.
    Returns the two messages."""
    messages = []
    for engine in ("python", "vectorized"):
        with pytest.raises(error) as exc:
            Simulator(scheme).roundtrip_many(pairs, engine=engine)
        messages.append(str(exc.value))
    return messages


@pytest.mark.parametrize("scheme_name", ["exstretch", "polystretch"])
def test_pair_at_its_own_destination_raises_on_both_engines(net, scheme_name):
    scheme = net.build_scheme(scheme_name)
    both_engines_raise(scheme, [(0, 1), (2, 2)], TableLookupError)


def drop_entry(table, row: int, col: int) -> None:
    """Delete one entry from a sorted-key table in place."""
    keep = table.keys != row * table.n + col
    assert (~keep).sum() == 1
    table.keys, table.values = table.keys[keep], table.values[keep]


def test_deleted_exstretch_prefix_row_raises_on_both_engines():
    net = Network.from_family("random", N, seed=3, store=None)
    scheme = net.build_scheme("exstretch", k=2)
    scheme.compiled_routes()
    s = 0
    t = next(
        v for v in range(1, net.n)
        if scheme._near.get(s, scheme.name_of(v)) < 0
    )
    # hop 1 reads the row of t's first digit
    drop_entry(scheme._rows, s, scheme.name_of(t) // scheme.blocks.q)
    both_engines_raise(scheme, [(1, 0), (s, t)], TableLookupError)


def test_deleted_polystretch_row_changes_both_engines_alike():
    """A missing dictionary row is a failed search in that tree: both
    engines send the packet home and climb a level, identically."""
    net = Network.from_family("random", N, seed=3, store=None)
    scheme = net.build_scheme("polystretch", k=2)
    compiled = scheme.compiled_routes()
    n, q = net.n, scheme.blocks.q
    pairs = sample_pairs(n, 120, seed=37)
    before = Simulator(scheme).roundtrip_many(pairs, engine="python")
    # the first row each source's search finds, in the lowest home
    # tree that has one
    for s, t in pairs[:10]:
        name_s, name_t = scheme.name_of(s), scheme.name_of(t)
        h = scheme.blocks.match_length(name_s, name_t)
        col = h * q + scheme.blocks.digits(name_t)[h]
        for tree_id in scheme._home_id[s].tolist():
            if scheme._rows.get(tree_id * n + s, col) >= 0:
                drop_entry(scheme._rows, tree_id * n + s, col)
                break
    assert scheme.compiled_routes() is compiled
    py = Simulator(scheme).roundtrip_many(pairs, engine="python")
    assert_traces_equal(py, Simulator(scheme).roundtrip_many(pairs))
    assert sum(a != b for a, b in zip(before, py)) > 0


def test_deleted_next_hop_raises_on_both_engines():
    """The full-table baseline holds one slot matrix, read by its
    ``forward`` and by the compiled engine in either storage: an entry
    cleared after compiling stops the packet on either engine."""
    net = Network.from_family("random", N, seed=3, store=None)
    scheme = net.build_scheme("shortest_path")
    tables = scheme.compiled_routes().tables
    with forced("blocked"):
        assert scheme.compiled_routes().tables is tables
    pairs = sample_pairs(net.n, 40, seed=31)
    s, t = pairs[7]
    tables.slots = tables.slots.copy()
    tables.slots[s, t] = -1
    messages = both_engines_raise(scheme, pairs, TableLookupError)
    assert messages[0].endswith(f"vertex {s} toward name {scheme.name_of(t)}")
    assert messages[1].endswith(f"vertex {s} toward {t}")


def test_deleted_tree_row_raises_on_both_engines():
    """After compiling, remove the in-pointer that a pair's first hop
    climbs, or the child row at the root that it descends by.  The
    hierarchy holds each row once, so the double tree can no longer
    forward there on either engine, for both double-tree schemes."""
    in_pointer = ("up_keys", "up_slot", "up_port")
    child_row = ("row_keys", "row_hi", "row_slot", "row_port")
    for scheme_name in ("polystretch", "exstretch"):
        for names in (in_pointer, child_row):
            net = Network.from_family("random", N, seed=3, store=None)
            scheme = net.build_scheme(scheme_name, k=2)
            compiled = scheme.compiled_routes()
            pairs = sample_pairs(net.n, 40, seed=29)
            sources = np.array([s for s, _ in pairs], dtype=np.int64)
            dests = np.array([t for _, t in pairs], dtype=np.int64)
            outbound = compiled.plan(sources, dests).legs[0]
            trees = compiled.tables.trees
            n = net.n
            # the first pair whose first segment starts below its tree's
            # root (in-pointer) or at it (child row)
            for i, s in enumerate(sources.tolist()):
                seg = next(seg for seg in outbound if seg.target[i] >= 0)
                tree = int(seg.tree[i])
                if (s == trees.root[tree]) == (names is child_row):
                    break
            else:
                pytest.fail("no pair's first hop leaves from the wanted place")
            node = tree * n + s
            if names is in_pointer:
                key = node
            else:
                y = int(seg.target[i])
                dfs = trees.address_of(int(trees.tree_ids[tree]), y).dfs
                pos = np.searchsorted(trees.row_keys, node * n + dfs, side="right")
                key = int(trees.row_keys[pos - 1])
            keep = getattr(trees, names[0]) != key
            assert (~keep).sum() == 1
            for name in names:
                setattr(trees, name, getattr(trees, name)[keep])
            assert scheme.compiled_routes() is compiled
            both_engines_raise(scheme, pairs, TableLookupError)


@pytest.mark.parametrize(
    "scheme_name,params",
    [("stretch6", {}), ("exstretch", {"k": 2}), ("polystretch", {"k": 2})],
    ids=["stretch6", "exstretch", "polystretch"],
)
def test_hop_budget_of_the_longest_leg(net, scheme_name, params):
    """A budget equal to the longest leg routes on both engines; one
    less raises the same message on both."""
    scheme = net.build_scheme(scheme_name, **params)
    pairs = sample_pairs(net.n, 60, seed=31)
    traces = Simulator(scheme).roundtrip_many(pairs, engine="python")
    longest = max(
        max(t.outbound.hops, t.inbound.hops) for t in traces
    )
    for engine in ("python", "vectorized"):
        sim = Simulator(scheme, hop_limit=longest)
        assert_traces_equal(traces, sim.roundtrip_many(pairs, engine=engine))
    messages = []
    for engine in ("python", "vectorized"):
        sim = Simulator(scheme, hop_limit=longest - 1)
        with pytest.raises(HopLimitExceeded) as exc:
            sim.roundtrip_many(pairs, engine=engine)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert f"exceeded {longest - 1} hops" in messages[0]


@pytest.mark.parametrize("engine", ["python", "vectorized"])
def test_hop_limit_zero_allows_no_hop(net, engine):
    """``0`` is a budget, not "use the default": any s != t needs at
    least one hop, so every journey raises."""
    scheme = net.build_scheme("stretch6")
    sim = Simulator(scheme, hop_limit=0)
    for pair in ((0, 5), (3, 1)):
        with pytest.raises(HopLimitExceeded, match="exceeded 0 hops"):
            sim.roundtrip_many([pair], engine=engine)


def test_negative_hop_limit_rejected_at_construction(net):
    scheme = net.build_scheme("stretch6")
    with pytest.raises(RoutingError, match="hop_limit"):
        Simulator(scheme, hop_limit=-1)
    with pytest.raises(RoutingError, match="hop_limit"):
        Router(scheme, hop_limit=-1)
    with pytest.raises(RoutingError, match="hop_limit"):
        run_workload(scheme, [(0, 5)], hop_limit=-1)
