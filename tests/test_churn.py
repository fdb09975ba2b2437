"""The dynamic-topology layer: deltas, evolution, and churn timelines.

Four concerns, bottom-up:

* :class:`~repro.graph.delta.GraphDelta` — the value type and its JSON
  round-trip, plus :meth:`~repro.graph.digraph.Digraph.apply_delta`'s
  port-preservation contract;
* :meth:`~repro.api.Network.evolve` — generation lineage, repair
  accounting, and artifact carry;
* the **differential**: incremental oracle repair must be
  *bit-identical* to a cold full rebuild — distances, parents, the
  shortest-path baseline's next-hop slots, and every routed journey,
  across compiled schemes, including a hypothesis sweep over random
  edit sequences (weight increases included: those invalidate paths,
  the hard direction for repair);
* churn timelines, written as ``repro-scenario/1`` specs whose phases
  carry events — parsing, event materialization, and the per-epoch
  stretch rows the scenario runner threads through
  :class:`~repro.runtime.traffic.TrafficSummary`.
"""

from __future__ import annotations

import json
import random
from typing import List, Tuple

import numpy as np
import pytest

from repro.api import Network, all_specs
from repro.exceptions import GraphError
from repro.graph.delta import (
    Arrival,
    Departure,
    GraphDelta,
    LinkDown,
    LinkUp,
    Reweight,
)
from repro.graph.blocked import next_hop_slots
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Digraph
from repro.graph.scc import is_strongly_connected
from repro.graph.shortest_paths import DistanceOracle
from repro.runtime import traffic
from repro.runtime.churn import materialize_delta
from repro.scenarios import (
    ScenarioSpec,
    load_scenario,
    run_scenario,
    summary_fingerprint,
)
from python_engine import python_engine


def _grid_graph(n: int, seed: int, extra: int = 0) -> Digraph:
    """A strongly connected digraph with two-decimal grid weights
    (a directed cycle plus ``extra`` random chords).  Grid weights keep
    distinct path sums separated by >= 0.01, the regime the repair
    certificates assume."""
    rng = random.Random(seed)
    g = Digraph(n)
    present = set()
    for u in range(n):
        v = (u + 1) % n
        g.add_edge(u, v, round(rng.uniform(0.5, 8.0), 2))
        present.add((u, v))
    added = 0
    while added < extra:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in present:
            continue
        g.add_edge(u, v, round(rng.uniform(0.5, 8.0), 2))
        present.add((u, v))
        added += 1
    return g.freeze()


# ----------------------------------------------------------------------
# GraphDelta: the value type
# ----------------------------------------------------------------------

class TestGraphDelta:
    def test_needs_at_least_one_op(self):
        with pytest.raises(GraphError):
            GraphDelta(())

    def test_rejects_unknown_op_values(self):
        with pytest.raises(GraphError):
            GraphDelta(("not-an-op",))  # type: ignore[arg-type]

    def test_doc_round_trip_all_op_kinds(self):
        delta = GraphDelta((
            Reweight(0, 1, 2.5),
            LinkDown(1, 2),
            LinkUp(2, 3, 1.25),
            Departure(4),
            Arrival(((0, 1.0), (1, 2.0)), ((2, 3.0),)),
        ))
        assert GraphDelta.from_doc(delta.to_doc()) == delta
        # the wire form survives an actual JSON encode/decode
        assert GraphDelta.from_doc(json.loads(json.dumps(delta.to_doc()))) == delta

    def test_op_names_in_order(self):
        delta = GraphDelta((LinkUp(0, 2, 1.0), Reweight(0, 1, 2.0)))
        assert delta.op_names() == ["link_up", "reweight"]

    def test_same_n(self):
        assert GraphDelta.reweight(0, 1, 2.0).same_n
        assert GraphDelta.link_down(0, 1).same_n
        assert not GraphDelta.departure(3).same_n
        assert not GraphDelta.arrival([(0, 1.0)], [(1, 1.0)]).same_n

    @pytest.mark.parametrize("doc", [
        "nope",
        {},
        {"ops": {}},
        {"ops": ["x"]},
        {"ops": [{"op": "teleport"}]},
        {"ops": [{"op": "reweight", "tail": 0}]},
        {"ops": [{"op": "link_up", "tail": 0, "head": 1}]},
        {"ops": [{"op": "arrival", "out": [[0]], "in": []}]},
    ])
    def test_from_doc_rejects_malformed(self, doc):
        with pytest.raises(GraphError):
            GraphDelta.from_doc(doc)


# ----------------------------------------------------------------------
# Digraph.apply_delta: port preservation and validation
# ----------------------------------------------------------------------

class TestApplyDelta:
    def test_reweight_keeps_ports(self):
        g = _grid_graph(6, 0, extra=4)
        tail, head = next((e.tail, e.head) for e in g.edges())
        port = g.port_of(tail, head)
        h = g.apply_delta(GraphDelta.reweight(tail, head, 4.44))
        assert h.frozen
        assert h.weight(tail, head) == 4.44
        assert h.port_of(tail, head) == port
        # every other edge is untouched, weight and port alike
        for e in g.edges():
            if (e.tail, e.head) != (tail, head):
                assert h.weight(e.tail, e.head) == e.weight
                assert h.port_of(e.tail, e.head) == g.port_of(e.tail, e.head)

    def test_link_up_takes_smallest_free_port(self):
        g = Digraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        g = g.freeze()
        h = g.apply_delta(GraphDelta.link_up(0, 2, 2.0))
        assert h.port_of(0, 1) == g.port_of(0, 1)
        # port 0 at tail 0 is taken by 0->1 (or vice versa); the new
        # edge fills the smallest hole
        used = {h.port_of(0, 1)}
        assert h.port_of(0, 2) == min(set(range(2)) - used)

    def test_down_then_up_reuses_freed_port(self):
        g = _grid_graph(5, 1)
        freed = g.port_of(0, 1)
        h = g.apply_delta(GraphDelta((LinkDown(0, 1), LinkUp(0, 1, 3.0))))
        assert h.port_of(0, 1) == freed
        assert h.weight(0, 1) == 3.0

    def test_departure_shifts_ids(self):
        g = _grid_graph(5, 2)
        # keep it connected: bridge around the departing node 2
        h = g.apply_delta(GraphDelta((LinkUp(1, 3, 1.5), Departure(2))))
        assert h.n == 4
        # old vertex 3 is now 2, old 4 is now 3; the bridge survives
        assert h.has_edge(1, 2)
        assert h.weight(1, 2) == 1.5

    def test_arrival_appends_vertex(self):
        g = _grid_graph(4, 3)
        h = g.apply_delta(GraphDelta.arrival([(0, 1.0)], [(1, 2.0)]))
        assert h.n == 5
        assert h.weight(4, 0) == 1.0
        assert h.weight(1, 4) == 2.0
        assert is_strongly_connected(h)

    @pytest.mark.parametrize("delta, msg", [
        (GraphDelta.reweight(0, 3, 1.0), "missing edge"),
        (GraphDelta.link_down(0, 3), "missing edge"),
        (GraphDelta.reweight(0, 1, -1.0), "positive"),
        (GraphDelta.link_up(0, 0, 1.0), "self-loop"),
    ])
    def test_rejects_inconsistent_ops(self, delta, msg):
        g = _grid_graph(6, 4)
        with pytest.raises(GraphError, match=msg):
            g.apply_delta(delta)

    def test_rejects_duplicate_link_up(self):
        g = _grid_graph(6, 5)
        with pytest.raises(GraphError):
            g.apply_delta(GraphDelta.link_up(0, 1, 1.0))


# ----------------------------------------------------------------------
# Network.evolve: lineage, carry, repair accounting
# ----------------------------------------------------------------------

class TestEvolve:
    def test_generation_lineage(self):
        net = Network(_grid_graph(10, 6, extra=6), seed=3, store=None)
        assert net.generation == 1
        child = net.evolve(GraphDelta.reweight(0, 1, 7.77))
        grand = child.evolve(GraphDelta.reweight(1, 2, 6.66))
        assert (child.generation, grand.generation) == (2, 3)
        assert net.generation == 1  # parent untouched
        assert child.seed == net.seed

    def test_incremental_repair_accounting(self):
        net = Network(_grid_graph(12, 7, extra=8), seed=0, store=None)
        net.oracle()  # warm: repair needs the parent oracle in memory
        net.naming()
        child = net.evolve(GraphDelta.reweight(0, 1, 0.51))
        repair = child.stats().repair
        assert repair is not None
        assert repair.incremental == 1 and repair.full_rebuilds == 0
        assert repair.rows_recomputed + repair.rows_reused == net.n
        assert repair.artifacts_carried >= 1
        # the TINN promise: names survive topology change
        assert child.naming() is net.naming()

    @pytest.mark.parametrize(
        "delta",
        [
            GraphDelta.reweight(0, 1, 0.53),
            GraphDelta((Reweight(0, 1, 0.54), LinkUp(3, 0, 2.5))),
        ],
        ids=["one-op", "two-op"],
    )
    def test_delta_applied_once_and_served_with_its_oracle(
        self, monkeypatch, delta
    ):
        net = Network(_grid_graph(12, 13, extra=8), seed=0, store=None)
        net.oracle()
        built = {"graphs": 0, "snapshots": 0}
        from_port_edges = Digraph.from_port_edges.__func__
        build = CSRGraph._build.__func__

        def count_graph(cls, *args, **kwargs):
            built["graphs"] += 1
            return from_port_edges(cls, *args, **kwargs)

        def count_snapshot(cls, g):
            built["snapshots"] += 1
            return build(cls, g)

        monkeypatch.setattr(Digraph, "from_port_edges", classmethod(count_graph))
        monkeypatch.setattr(CSRGraph, "_build", classmethod(count_snapshot))
        child = net.evolve(delta)
        assert child.stats().repair.incremental == 1
        assert child.graph is child.oracle().graph
        # one graph and one snapshot per op: the repair steps through
        # each intermediate graph and ends on the one the child serves
        assert built == {"graphs": len(delta.ops), "snapshots": len(delta.ops)}
        cold = DistanceOracle(net.graph.apply_delta(delta))
        assert np.array_equal(cold.d_matrix, child.oracle().d_matrix)
        assert np.array_equal(cold.parent_matrix(), child.oracle().parent_matrix())

    def test_reweight_keeps_names(self):
        """The TINN promise across a chain of reweights: every node
        keeps its name at every generation."""
        net = Network(_grid_graph(16, 17, extra=12), seed=4, store=None)
        net.oracle()
        names = [net.naming().name_of(v) for v in range(net.n)]
        rng = random.Random(9)
        for _ in range(3):
            e = rng.choice(list(net.graph.edges()))
            w = e.weight * rng.choice([0.5, 2.0])
            net = net.evolve(GraphDelta.reweight(e.tail, e.head, w))
            assert net.stats().repair.incremental == 1
            assert [net.naming().name_of(v) for v in range(net.n)] == names

    def test_reweight_keeps_landmarks(self):
        """The rebuilt RTZ substrate keeps its landmarks across a
        reweight: they come from the network seed, not from the
        distances."""
        net = Network(_grid_graph(16, 17, extra=12), seed=4, store=None)
        net.oracle()
        landmarks = list(net.rtz().centers)
        child = net.evolve(GraphDelta.reweight(0, 1, 7.93))
        assert child.stats().repair.incremental == 1
        assert child.rtz() is not net.rtz()
        assert list(child.rtz().centers) == landmarks

    def test_stored_name_routes_after_evolve(self):
        """An application holds a name; the edge its shortest path
        leaves by gets dearer; the name still routes, by name, at
        stretch 1 on the evolved network."""
        net = Network(_grid_graph(16, 18, extra=12), seed=4, store=None)
        oracle = net.oracle()
        s, t = 0, 7
        name = net.naming().name_of(t)
        hop = oracle.next_hop(s, t)
        child = net.evolve(GraphDelta.reweight(s, hop, 7.97))
        assert child.stats().repair.incremental == 1
        assert child.oracle().r(s, t) != oracle.r(s, t)
        result = child.router("shortest_path").route(s, name, by_name=True)
        assert (result.dest, result.dest_name) == (t, name)
        assert result.stretch == 1.0
        assert result.cost == pytest.approx(child.oracle().r(s, t))

    def test_cold_parent_means_full_rebuild(self):
        net = Network(_grid_graph(12, 8, extra=8), seed=0, store=None)
        child = net.evolve(GraphDelta.reweight(0, 1, 0.52))
        repair = child.stats().repair
        assert repair.incremental == 0 and repair.full_rebuilds == 1

    def test_arrival_is_full_rebuild(self):
        net = Network(_grid_graph(10, 9, extra=4), seed=0, store=None)
        net.oracle()
        child = net.evolve(GraphDelta.arrival([(0, 1.0)], [(1, 1.0)]))
        assert child.n == net.n + 1
        repair = child.stats().repair
        assert repair.incremental == 0 and repair.full_rebuilds == 1

    def test_accepts_document_form(self):
        net = Network(_grid_graph(8, 10, extra=4), seed=0, store=None)
        child = net.evolve({"ops": [{"op": "reweight", "tail": 0,
                                     "head": 1, "weight": 2.0}]})
        assert child.generation == 2
        assert child.graph.weight(0, 1) == 2.0

    def test_rejects_junk(self):
        net = Network(_grid_graph(8, 11, extra=4), seed=0, store=None)
        with pytest.raises(GraphError):
            net.evolve(42)
        with pytest.raises(GraphError):
            net.evolve({"ops": [{"op": "teleport"}]})

    def test_stats_carry_generation(self):
        net = Network(_grid_graph(8, 12, extra=4), seed=0, store=None)
        child = net.evolve(GraphDelta.reweight(0, 1, 1.23))
        doc = child.stats().as_dict()
        assert doc["generation"] == 2
        assert doc["repair"]["ops"] == 1


# ----------------------------------------------------------------------
# The differential: incremental repair == full rebuild, bit for bit
# ----------------------------------------------------------------------

def _oracle_triple(net: Network):
    """``d``, the parents, and the shortest-path baseline's next-hop
    slot matrix, which is folded from them."""
    oracle = net.oracle()
    scheme = net.build_scheme("shortest_path")
    return (
        np.array(oracle.d_matrix, copy=True),
        oracle.parent_matrix(),
        scheme.compiled_routes().tables.slots,
    )


def _assert_oracles_identical(evolved: Network, fresh: Network):
    d1, p1, s1 = _oracle_triple(evolved)
    d2, p2, s2 = _oracle_triple(fresh)
    assert np.array_equal(d1, d2), "repaired distances drifted from rebuild"
    assert np.array_equal(p1, p2), "repaired parents drifted from rebuild"
    assert np.array_equal(s1, s2), "next-hop slots drifted from rebuild"


def _fresh_like(evolved: Network) -> Network:
    """A cold network over the evolved graph: same seed, empty cache,
    so every artifact is a genuine full rebuild."""
    return Network(evolved.graph, seed=evolved.seed, store=None)


def _a_chord(g: Digraph) -> Tuple[int, int]:
    """An edge that is not on the 0 -> 1 -> ... -> 0 backbone cycle:
    removing it always keeps a :func:`_grid_graph` strongly connected
    (the full cycle survives), so intermediates stay in the repair
    protocol's regime."""
    n = g.n
    return next(
        (e.tail, e.head) for e in g.edges() if (e.head - e.tail) % n != 1
    )


def _a_non_edge(g: Digraph) -> Tuple[int, int]:
    return next(
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if u != v and not g.has_edge(u, v)
    )


def _mixed_events(g: Digraph) -> Tuple[GraphDelta, ...]:
    """A mixed same-n edit sequence: weight drop, weight increase (path
    invalidation — the hard repair direction), edge birth + chord
    removal (every intermediate graph stays strongly connected — the
    repair protocol folds ops one at a time)."""
    chord = _a_chord(g)
    new_edge = _a_non_edge(g)
    return (
        GraphDelta.reweight(0, 1, 0.55),
        GraphDelta.reweight(0, 1, 7.95),
        GraphDelta((LinkUp(*new_edge, 1.05), LinkDown(*chord))),
        GraphDelta.link_up(*_a_non_edge(g.apply_delta(GraphDelta.link_up(*new_edge, 1.05))), 0.75),
    )


def test_differential_mixed_sequence_every_event():
    """After *every* event in a mixed churn sequence the repaired
    oracle equals a cold rebuild bit-for-bit (d, parents, next-hop
    slots)."""
    net = Network(_grid_graph(24, 13, extra=20), seed=5, store=None)
    net.oracle()  # warm: repair starts from the oracle in memory
    for delta in _mixed_events(net.graph):
        child = net.evolve(delta)
        assert child.stats().repair.incremental == 1, (
            f"expected incremental repair for {delta.op_names()}"
        )
        _assert_oracles_identical(child, _fresh_like(child))
        net = child


_PAIR_RNG_SEED = 99


def _sample_pairs(n: int, count: int) -> List[Tuple[int, int]]:
    rng = random.Random(_PAIR_RNG_SEED)
    pairs = []
    while len(pairs) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            pairs.append((s, t))
    return pairs


def test_differential_routed_traces_every_scheme():
    """Routing on an evolved network (repaired oracle) is bit-identical
    to routing on a cold rebuild, for every registered scheme — cost,
    hops, headers, and full traces."""
    net = Network(_grid_graph(16, 14, extra=14), seed=2, store=None)
    net.oracle()
    child = net.evolve(GraphDelta((
        Reweight(0, 1, 7.5),
        LinkUp(*_a_non_edge(net.graph), 0.85),
        LinkDown(*_a_chord(net.graph)),
    )))
    assert child.stats().repair.incremental == 1
    fresh = _fresh_like(child)
    _assert_oracles_identical(child, fresh)
    pairs = _sample_pairs(child.n, 12)
    for spec in all_specs():
        params = {"k": 2} if spec.accepts("k") else {}
        evolved_router = child.router(spec.name, **params)
        fresh_router = fresh.router(spec.name, **params)
        got = evolved_router.route_many(pairs)
        want = fresh_router.route_many(pairs)
        for a, b in zip(got, want):
            assert (a.source, a.dest, a.dest_name) == (b.source, b.dest, b.dest_name)
            assert a.cost == b.cost, f"{spec.name}: cost drift on {a.source}->{a.dest}"
            assert a.hops == b.hops
            assert a.max_header_bits == b.max_header_bits
            assert a.trace == b.trace


def test_differential_blocked_first_hops_cross_boundaries(monkeypatch):
    """Shrink the row-block size so the next-hop slot matrices of the
    evolved network and of the cold rebuild are folded in blocks that
    split mid-matrix; both equal a one-block fold."""
    import repro.graph.blocked as blocked

    monkeypatch.setattr(blocked, "_BLOCK_ELEMS", 64)
    net = Network(_grid_graph(20, 15, extra=16), seed=1, store=None)
    assert blocked.default_block_rows(net.n) == 3
    net.oracle()
    child = net.evolve(GraphDelta.reweight(0, 1, 7.91))
    assert child.stats().repair.incremental == 1
    fresh = _fresh_like(child)
    _assert_oracles_identical(child, fresh)
    split = _oracle_triple(child)[2]
    monkeypatch.undo()
    assert blocked.default_block_rows(net.n) == net.n
    assert np.array_equal(next_hop_slots(child.oracle()), split)


def test_differential_mixed_timeline_every_event():
    """The acceptance bar: after *every* event in a mixed churn
    timeline — reweight, link up/down, arrival, departure — the
    evolved network's oracle and routed traces are bit-identical to a
    cold rebuild.  Events come from the timeline machinery's own
    materializer (connectivity-preserving candidates, seeded)."""
    net = Network(_grid_graph(18, 16, extra=12), seed=3, store=None)
    net.oracle()
    event_docs = (
        ({"op": "reweight"},),
        ({"op": "link_up"}, {"op": "link_down"}),
        ({"op": "arrival"},),
        ({"op": "departure"},),
        ({"op": "reweight"},),
    )
    for i, docs in enumerate(event_docs):
        delta = materialize_delta(net.graph, docs, random.Random(f"diff|{i}"))
        child = net.evolve(delta)
        fresh = _fresh_like(child)
        _assert_oracles_identical(child, fresh)
        pairs = _sample_pairs(child.n, 6)
        got = child.router("stretch6").route_many(pairs)
        want = fresh.router("stretch6").route_many(pairs)
        for a, b in zip(got, want):
            assert (a.cost, a.hops, a.max_header_bits, a.trace) == (
                b.cost, b.hops, b.max_header_bits, b.trace
            )
        net = child


# ----------------------------------------------------------------------
# hypothesis: random edit sequences
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def edit_sequences(draw):
    """(graph seed, [ops]) — each op is a recipe applied against the
    then-current graph, so sequences stay consistent as edges move."""
    gseed = draw(st.integers(min_value=0, max_value=3))
    count = draw(st.integers(min_value=1, max_value=4))
    recipes = []
    for _ in range(count):
        kind = draw(st.sampled_from(["reweight", "increase", "link_up", "link_down"]))
        recipes.append((kind, draw(st.integers(min_value=0, max_value=10 ** 6))))
    return gseed, recipes


def _materialize_recipe(g: Digraph, kind: str, salt: int):
    """Turn a recipe into a concrete op valid for ``g`` (or None)."""
    rng = random.Random(salt)
    edges = sorted((e.tail, e.head) for e in g.edges())
    if kind == "reweight":
        t, h = edges[rng.randrange(len(edges))]
        return Reweight(t, h, round(rng.uniform(0.5, 8.0), 2))
    if kind == "increase":
        # poison a currently-used-looking edge: push it near the top of
        # the weight range so shortest paths re-route around it
        t, h = edges[rng.randrange(len(edges))]
        return Reweight(t, h, round(rng.uniform(7.0, 8.0), 2))
    if kind == "link_up":
        candidates = [
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and not g.has_edge(u, v)
        ]
        if not candidates:
            return None
        t, h = candidates[rng.randrange(len(candidates))]
        return LinkUp(t, h, round(rng.uniform(0.5, 8.0), 2))
    # link_down: only candidates that keep the graph strongly connected
    rng.shuffle(edges)
    for t, h in edges:
        candidate = g.apply_delta(GraphDelta.link_down(t, h))
        if is_strongly_connected(candidate):
            return LinkDown(t, h)
    return None


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=edit_sequences())
def test_differential_random_edit_sequences(instance):
    gseed, recipes = instance
    net = Network(_grid_graph(12, 20 + gseed, extra=10), seed=0, store=None)
    net.oracle()
    for kind, salt in recipes:
        op = _materialize_recipe(net.graph, kind, salt)
        if op is None:
            continue
        child = net.evolve(GraphDelta((op,)))
        assert child.stats().repair.incremental == 1
        _assert_oracles_identical(child, _fresh_like(child))
        net = child


# ----------------------------------------------------------------------
# timelines: scenario specs whose phases carry churn events
# ----------------------------------------------------------------------

def _timeline_doc(graph, phases, **extra):
    doc = {
        "schema": "repro-scenario/1", "name": "timeline", "seed": 7,
        "graph": graph, "workload": {"phases": phases},
    }
    doc.update(extra)
    return doc


_TIMELINE_DOC = _timeline_doc({"family": "random", "n": 14}, [
    {"kind": "mixed", "pairs": 30},
    {"kind": "mixed", "pairs": 30,
     "events": [{"op": "reweight"}, {"op": "link_up"}]},
    {"kind": "uniform", "pairs": 20, "events": [{"op": "arrival"}]},
])


class TestTimeline:
    """A churn timeline is a ``repro-scenario/1`` spec: one phase per
    epoch, its ``events`` applied before its traffic.  It loads from a
    dict, JSON text or a file, round-trips, and rejects what the
    retired version-1 timeline document rejected."""

    def test_load_from_dict_string_and_file(self, tmp_path):
        t1 = load_scenario(_TIMELINE_DOC)
        t2 = load_scenario(json.dumps(_TIMELINE_DOC))
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(_TIMELINE_DOC))
        t3 = load_scenario(str(path))
        assert t1 == t2 == t3
        assert t1.seed == 7
        assert len(t1.phases) == 3
        assert t1.phases[2].kind == "uniform"
        assert t1.total_events == 3

    def test_doc_round_trip(self):
        timeline = load_scenario(_TIMELINE_DOC)
        assert ScenarioSpec.from_doc(timeline.to_doc()) == timeline

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(schema="repro-scenario/99"),
        lambda d: d["workload"]["phases"][0].update(kind="bogus"),
        lambda d: d["workload"].update(phases=[]),
        lambda d: d["workload"].update(phases=[{"kind": "mixed", "pairs": -1}]),
        lambda d: d["workload"].update(phases=[
            {"kind": "mixed", "pairs": 5, "events": [{"op": "teleport"}]}]),
        lambda d: d["workload"].update(phases=[
            {"kind": "mixed", "pairs": 5, "events": ["x"]}]),
    ])
    def test_from_doc_rejects_malformed(self, mutate):
        doc = json.loads(json.dumps(_TIMELINE_DOC))
        mutate(doc)
        with pytest.raises(GraphError):
            ScenarioSpec.from_doc(doc)

    def test_materialize_preserves_connectivity(self):
        g = _grid_graph(10, 30, extra=6)
        events = ({"op": "link_down"}, {"op": "departure"})
        delta = materialize_delta(g, events, random.Random(4))
        h = g.apply_delta(delta)
        assert is_strongly_connected(h)

    def test_materialize_is_deterministic(self):
        g = _grid_graph(10, 31, extra=6)
        events = ({"op": "reweight"}, {"op": "link_up"}, {"op": "arrival"})
        d1 = materialize_delta(g, events, random.Random(9))
        d2 = materialize_delta(g, events, random.Random(9))
        assert d1 == d2


class TestRunTimeline:
    @staticmethod
    def _graph(seed=40):
        g = _grid_graph(14, seed, extra=10)
        return {
            "family": "edgelist",
            "edges": [[e.tail, e.head, e.weight] for e in g.edges()],
        }

    def test_epoch_rows_track_generations(self):
        doc = _timeline_doc(self._graph(), [
            {"kind": "mixed", "pairs": 20},
            {"kind": "mixed", "pairs": 20, "events": [{"op": "reweight"}]},
            {"kind": "mixed", "pairs": 15, "events": [{"op": "arrival"}]},
        ], seed=3)
        (cell,) = run_scenario(doc, store=None).cells
        summary = cell.summary
        assert summary.pairs == 55
        assert [e.generation for e in summary.epochs] == [1, 2, 3]
        assert [e.repair for e in summary.epochs] == [
            "none", "incremental", "rebuild",
        ]
        assert summary.epochs[1].events == ("reweight",)
        assert summary.epochs[2].events == ("arrival",)
        assert cell.final_generation == 3
        # the arrival's vertex 14 is routable in the last epoch
        assert max(summary.epochs[2].worst_pair) <= 14
        # per-epoch rows show up in the human format
        text = summary.format()
        assert "epoch 0" in text and "gen 3" in text

    def test_bit_identical_across_jobs(self, monkeypatch):
        """A timeline whose matrix lists ``jobs`` (and ``engines``)
        values still loads, runs each cell once, and gives the summary
        of the same spec without them: the keys have no effect.  The
        python engine gives that summary too."""
        phases = [
            {"kind": "mixed", "pairs": 24, "events": [{"op": "reweight"}]},
            {"kind": "mixed", "pairs": 24,
             "events": [{"op": "link_down"}, {"op": "link_up"}]},
        ]
        matrix = {"schemes": ["stretch6", "rtz"]}
        doc = _timeline_doc(self._graph(), phases, matrix=matrix)
        plain = run_scenario(doc, store=None)
        with python_engine():
            python = run_scenario(doc, store=None)
        calls = []
        run_workload = traffic.run_workload

        def counting(*args, **kwargs):
            calls.append(1)
            return run_workload(*args, **kwargs)

        monkeypatch.setattr(
            "repro.scenarios.runner.run_workload", counting
        )
        with_jobs = run_scenario(_timeline_doc(
            self._graph(), phases,
            matrix=dict(matrix, jobs=[1, 2, 4], engines=["auto", "python"]),
        ), store=None)
        # two cells (one per scheme), two phases each: four workloads
        assert len(with_jobs.cells) == 2 and len(calls) == 4
        prints = [summary_fingerprint(c.summary) for c in plain.cells]
        assert [summary_fingerprint(c.summary) for c in with_jobs.cells] == prints
        assert [summary_fingerprint(c.summary) for c in python.cells] == prints
