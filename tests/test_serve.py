"""End-to-end tests for the ``repro.serve`` daemon.

Covers the batching broker (coalescing without a timer, submission
interleavings, admission control, failure demux), the dispatch layer (endpoints, error mapping, max-inflight
shedding), the HTTP transport (keep-alive, unknown endpoints), the
tentpole acceptance criteria — eight concurrent clients whose coalesced
responses are bit-identical to direct ``Router.route_many`` calls, and
graceful ``/reload`` under load with zero dropped requests and correct
generation tagging — plus a reload whose build raises, clients that
drop mid-``/route_many``, when the client sends a request again, the
per-label build lock in
:class:`~repro.api.Network`, and the no-DeprecationWarning guarantee on
CLI paths.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.server
import json
import random
import socket
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Network
from repro.cli import main
from repro.runtime.traffic import generate_workload
from repro.serve import (
    BatchBroker,
    OverloadedError,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeConnectionError,
    ServeDaemon,
    build_app,
)
from repro.serve.protocol import decode_body, decode_results

N = 32
SEED = 1


def make_pairs(count: int, n: int = N, seed: int = 7):
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        pairs.append((s, t))
    return pairs


def route_key(route):
    """The bit-identity fingerprint of one routed pair."""
    return (route.cost, route.hops, route.max_header_bits, route.stretch)


def hold_route_many(router):
    """Make ``router.route_many`` wait until the returned event is set
    (or 30 s pass), so the requests it serves stay in flight for as
    long as a test needs them to."""
    release = threading.Event()
    route_many = router.route_many

    def held(*args, **kwargs):
        release.wait(30)
        return route_many(*args, **kwargs)

    router.route_many = held
    return release


@pytest.fixture(scope="module")
def daemon():
    config = ServeConfig(
        family="random", n=N, seed=SEED, schemes=("stretch6", "rtz"),
        port=0,
    )
    d = ServeDaemon(config).start()
    yield d
    d.stop()


@pytest.fixture(scope="module")
def direct():
    return Network.from_family("random", N, seed=SEED, store=None)


# ----------------------------------------------------------------------
# broker unit tests
# ----------------------------------------------------------------------

def test_broker_coalesces_concurrent_submits():
    calls = []

    def execute(key, pairs):
        calls.append(list(pairs))
        return [s * 100 + t for s, t in pairs]

    async def main():
        broker = BatchBroker(execute)
        return await asyncio.gather(
            broker.submit("k", [(1, 2), (3, 4)]),
            broker.submit("k", [(5, 6)]),
        ), broker

    (first, second), broker = asyncio.run(main())
    assert first == [102, 304]
    assert second == [506]
    assert len(calls) == 1, "concurrent submits must ride one batch"
    stats = broker.stats()
    assert stats["max_coalesced"] == 3
    assert stats["executed_batches"] == 1
    assert stats["submitted_pairs"] == 3


def test_broker_batches_what_queued_while_it_ran():
    """No timer: a lone submission A executes at once, and B and C,
    submitted while A's batch runs, go out together in the next one."""
    calls = []
    started, release = threading.Event(), threading.Event()

    def execute(key, pairs):
        calls.append(list(pairs))
        started.set()
        release.wait(30)
        return [s * 100 + t for s, t in pairs]

    async def main():
        broker = BatchBroker(execute)
        a = asyncio.create_task(broker.submit("k", [(1, 2)]))
        await asyncio.get_running_loop().run_in_executor(
            None, started.wait, 30
        )
        b = asyncio.create_task(broker.submit("k", [(3, 4)]))
        c = asyncio.create_task(broker.submit("k", [(5, 6), (7, 8)]))
        await asyncio.sleep(0)  # b and c queue behind A's batch
        assert broker.pending_pairs == 3
        release.set()
        return await asyncio.gather(a, b, c), broker

    try:
        (a, b, c), broker = asyncio.run(main())
    finally:
        release.set()
    assert (a, b, c) == ([102], [304], [506, 708])
    assert calls == [[(1, 2)], [(3, 4), (5, 6), (7, 8)]]
    stats = broker.stats()
    assert stats["executed_batches"] == 2
    assert stats["max_coalesced"] == 3


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(0, 2),  # key
        st.integers(0, 6),  # pairs in the submission
        st.integers(0, 3),  # loop yields before the next submission
    ),
    min_size=1, max_size=8,
))
def test_broker_interleavings(submissions):
    """Whatever the keys, sizes and arrival times of the submissions,
    each gets exactly its own results in order, no batch mixes keys or
    starts empty, and the counters add up."""
    keys = [f"k{key}" for key, _, _ in submissions]
    calls = []

    def execute(key, pairs):
        calls.append((key, list(pairs)))
        return [(key, s, t) for s, t in pairs]

    async def main():
        broker = BatchBroker(execute)
        tasks = []
        for i, (_, size, yields) in enumerate(submissions):
            pairs = [(i, j) for j in range(size)]
            tasks.append(
                asyncio.create_task(broker.submit(keys[i], pairs))
            )
            for _ in range(yields):
                await asyncio.sleep(0)
        return await asyncio.gather(*tasks), broker

    results, broker = asyncio.run(main())
    for i, (_, size, _) in enumerate(submissions):
        assert results[i] == [(keys[i], i, j) for j in range(size)]
    for key, pairs in calls:
        assert pairs, "an empty submission started a batch"
        assert {keys[i] for i, _ in pairs} == {key}
    stats = broker.stats()
    assert stats["pending_pairs"] == 0
    assert stats["executed_pairs"] == stats["submitted_pairs"] == sum(
        size for _, size, _ in submissions
    )
    assert stats["executed_batches"] == len(calls)
    assert stats["max_coalesced"] == max(
        (len(pairs) for _, pairs in calls), default=0
    )


def test_broker_sheds_when_backlog_full():
    async def main():
        broker = BatchBroker(lambda k, p: [0] * len(p), max_queue=2)
        t1 = asyncio.create_task(broker.submit("k", [(0, 1), (1, 0)]))
        await asyncio.sleep(0)  # t1 enqueues; its drainer has not run yet
        with pytest.raises(OverloadedError):
            await broker.submit("k", [(2, 3)])
        assert await t1 == [0, 0]
        return broker

    broker = asyncio.run(main())
    assert broker.stats()["shed_pairs"] == 1


def test_broker_demuxes_execute_failures_and_recovers():
    class Boom(RuntimeError):
        pass

    state = {"fail": True}

    def execute(key, pairs):
        if state["fail"]:
            raise Boom("engine exploded")
        return [1] * len(pairs)

    async def main():
        broker = BatchBroker(execute)
        with pytest.raises(Boom):
            await broker.submit("k", [(0, 1)])
        state["fail"] = False
        return await broker.submit("k", [(0, 1), (2, 3)])

    assert asyncio.run(main()) == [1, 1]


def test_broker_failure_fails_only_its_keys_batch():
    """Two submitters coalesced on key ``a`` and one on key ``b``, and
    ``execute`` raises for ``a``: both ``a`` submissions get that
    exception, ``b`` gets its results, and ``a`` serves its next
    batch."""
    class Boom(RuntimeError):
        pass

    calls = []
    state = {"fail": True}

    def execute(key, pairs):
        calls.append((key, list(pairs)))
        if key == "a" and state["fail"]:
            raise Boom("engine exploded")
        return [f"{key}{s}{t}" for s, t in pairs]

    async def main():
        broker = BatchBroker(execute)
        outcomes = await asyncio.gather(
            broker.submit("a", [(0, 1)]),
            broker.submit("a", [(2, 3), (4, 5)]),
            broker.submit("b", [(6, 7)]),
            return_exceptions=True,
        )
        state["fail"] = False
        return broker, outcomes, await broker.submit("a", [(8, 9)])

    broker, (a1, a2, b), again = asyncio.run(main())
    assert sorted(calls) == [
        ("a", [(0, 1), (2, 3), (4, 5)]),  # one coalesced batch
        ("a", [(8, 9)]),
        ("b", [(6, 7)]),
    ]
    assert isinstance(a1, Boom) and a2 is a1
    assert b == ["b67"]
    assert again == ["a89"]
    stats = broker.stats()
    assert (stats["executed_batches"], stats["executed_pairs"]) == (3, 2)
    assert stats["pending_pairs"] == 0


def test_broker_refuses_submissions_after_close():
    async def main():
        broker = BatchBroker(lambda k, p: [0] * len(p))
        broker.close()
        with pytest.raises(OverloadedError):
            await broker.submit("k", [(0, 1)])

    asyncio.run(main())


# ----------------------------------------------------------------------
# dispatch layer (in-process, no sockets)
# ----------------------------------------------------------------------

def small_config(**overrides):
    base = dict(
        family="random", n=24, seed=0, schemes=("stretch6",), port=0,
    )
    base.update(overrides)
    return ServeConfig(**base)


def dispatch(app, method, path, doc=None):
    body = b"" if doc is None else json.dumps(doc).encode()
    return asyncio.run(app.dispatch(method, path, body))


def test_dispatch_unknown_endpoint_is_404():
    app = build_app(small_config())
    status, raw = dispatch(app, "GET", "/nope")
    assert status == 404
    with pytest.raises(ProtocolError) as err:
        decode_body(raw)
    assert err.value.code == "unknown-endpoint"


def test_dispatch_malformed_body_is_400():
    app = build_app(small_config())
    status, raw = asyncio.run(
        app.dispatch("POST", "/route_many", b"not json")
    )
    assert status == 400
    with pytest.raises(ProtocolError) as err:
        decode_body(raw)
    assert err.value.code == "bad-request"


def test_dispatch_unknown_scheme_surfaces_choices():
    app = build_app(small_config())
    status, raw = dispatch(
        app, "POST", "/route_many", {"pairs": [[0, 1]], "scheme": "bogus"}
    )
    assert status == 400
    with pytest.raises(ProtocolError) as err:
        decode_body(raw)
    assert err.value.code == "unknown-scheme"
    assert "stretch6" in err.value.extra["choices"]


def test_dispatch_rejects_out_of_range_and_self_pairs():
    app = build_app(small_config())
    # a JSON big integer overflows int64 inside check_pairs: still a 400
    for pairs in ([[0, 99]], [[-1, 3]], [[5, 5]], [[0, 2**70]]):
        status, raw = dispatch(app, "POST", "/route_many", {"pairs": pairs})
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "bad-request"


def test_empty_route_many_starts_no_batch():
    app = build_app(small_config())
    status, raw = dispatch(app, "POST", "/route_many", {"pairs": []})
    assert status == 200
    assert decode_results(decode_body(raw)) == (1, [])
    stats = app.lifecycle.current.broker.stats()
    assert (stats["submitted_pairs"], stats["executed_batches"]) == (0, 0)


def test_route_many_beyond_max_queue_is_a_bad_request():
    """A batch larger than the whole backlog could never be admitted:
    it is a 400 naming the limit, not a 429 a client would retry, and
    neither shed counter moves."""
    app = build_app(small_config(max_queue=4))
    pairs = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]
    status, raw = dispatch(app, "POST", "/route_many", {"pairs": pairs[:4]})
    assert status == 200
    assert len(json.loads(raw)["results"]) == 4
    status, raw = dispatch(app, "POST", "/route_many", {"pairs": pairs})
    assert status == 400
    with pytest.raises(ProtocolError) as err:
        decode_body(raw)
    assert err.value.code == "bad-request"
    assert str(err.value) == (
        "5 pairs exceed the per-request limit of 4 (max_queue); split "
        "the batch, or generate it server-side with /workload"
    )
    assert app.counters.errors == 1
    assert app.counters.shed == 0
    assert app.lifecycle.current.broker.stats()["shed_pairs"] == 0


def test_dispatch_sheds_beyond_max_inflight():
    app = build_app(small_config(max_inflight=1))
    release = hold_route_many(app.lifecycle.current.router("stretch6"))
    body = json.dumps({"pairs": [[0, 1]]}).encode()

    async def main():
        first = asyncio.create_task(
            app.dispatch("POST", "/route_many", body)
        )
        await asyncio.sleep(0.01)  # first admitted, held in the engine
        shed = await app.dispatch("POST", "/route_many", body)
        release.set()
        return await first, shed

    try:
        (status1, _), (status2, raw2) = asyncio.run(main())
    finally:
        release.set()
    assert status1 == 200
    assert status2 == 429
    with pytest.raises(ProtocolError) as err:
        decode_body(raw2)
    assert err.value.code == "server-busy"
    assert app.counters.shed == 1


def test_graph_descriptor_bytes():
    """``/healthz``, ``/stats`` and ``/reload`` describe the graph as
    ``{"engine": "auto", "family", "n", "seed"}``.  No option picks an
    engine, and the key keeps the ``repro-serve/1`` bytes as they were
    when the default was the only engine any daemon ran."""
    app = build_app(small_config())

    async def main():
        return [
            await app.dispatch("GET", "/healthz", b""),
            await app.dispatch("GET", "/stats", b""),
            await app.dispatch(
                "POST", "/reload", json.dumps({"seed": 9}).encode()
            ),
        ]

    (s1, healthz), (s2, stats), (s3, reload) = asyncio.run(main())
    assert (s1, s2, s3) == (200, 200, 200)
    before = b'"graph": {"engine": "auto", "family": "random", "n": 24, "seed": 0}'
    after = b'"graph": {"engine": "auto", "family": "random", "n": 24, "seed": 9}'
    assert before in healthz and before in stats and after in reload
    assert decode_body(reload)["graph"] == {
        "family": "random", "n": 24, "seed": 9, "engine": "auto",
    }


def test_reload_under_load_zero_drops_in_process():
    """Requests racing a /reload all succeed, and every response's
    results match the generation it claims to have been served by."""
    app = build_app(small_config())
    pairs = make_pairs(12, n=24)
    expected = {}
    for gen_id, seed in ((1, 0), (2, 9)):
        net = Network.from_family("random", 24, seed=seed, store=None)
        expected[gen_id] = [
            route_key(r) for r in net.router("stretch6").route_many(pairs)
        ]
    body = json.dumps({"pairs": [[s, t] for s, t in pairs]}).encode()

    async def route_once():
        status, raw = await app.dispatch("POST", "/route_many", body)
        assert status == 200, raw
        generation, routes = decode_results(decode_body(raw))
        assert [route_key(r) for r in routes] == expected[generation]
        return generation

    async def main():
        generations = []
        reload_task = asyncio.create_task(
            app.dispatch("POST", "/reload", json.dumps({"seed": 9}).encode())
        )
        while not reload_task.done():
            generations.extend(
                await asyncio.gather(*(route_once() for _ in range(4)))
            )
        status, raw = await reload_task
        assert status == 200
        doc = decode_body(raw)
        assert doc["old_generation"] == 1
        assert doc["generation"] == 2
        assert doc["graph"]["seed"] == 9
        generations.extend(
            await asyncio.gather(*(route_once() for _ in range(4)))
        )
        return generations

    generations = asyncio.run(main())
    assert set(generations) <= {1, 2}
    assert 1 in generations, "pre-swap requests must serve on the old graph"
    assert generations[-1] == 2, "post-reload requests must see the new graph"


# ----------------------------------------------------------------------
# the daemon over real sockets
# ----------------------------------------------------------------------

def test_healthz_schemes_stats(daemon):
    with ServeClient(port=daemon.port) as client:
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["generation"] == 1
        assert health["graph"]["n"] == N
        schemes = client.schemes()
        assert schemes["default"] == "stretch6"
        assert schemes["loaded"] == ["stretch6", "rtz"]
        assert any(s["name"] == "rtz" for s in schemes["schemes"])
        stats = client.stats()
        assert stats["schema"] == "repro-serve/1"
        assert {"broker", "server", "session", "graph"} <= set(stats)


def test_eight_concurrent_clients_bit_identical(daemon, direct):
    """The tentpole acceptance criterion: >= 8 concurrent clients, the
    broker coalescing their requests into shared engine batches, every
    response bit-identical to a direct library call."""
    pairs = make_pairs(400)
    chunks = [pairs[i * 50:(i + 1) * 50] for i in range(8)]
    outcomes = [None] * 8
    barrier = threading.Barrier(8)

    def worker(i):
        with ServeClient(port=daemon.port) as client:
            barrier.wait()
            outcomes[i] = client.route_many(chunks[i])

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    served = []
    for generation, routes in outcomes:
        assert generation == 1
        served.extend(routes)
    expected = direct.router("stretch6").route_many(pairs)
    assert len(served) == len(expected)
    for route, result in zip(served, expected):
        assert route.source == result.source
        assert route.dest == result.dest
        assert route.dest_name == result.dest_name
        assert route_key(route) == route_key(result)

    broker = daemon.app.lifecycle.current.broker
    assert broker.max_coalesced > 50, (
        "pairs from different clients must ride shared batches, "
        f"got max_coalesced={broker.max_coalesced}"
    )


def test_scheme_selection_and_errors_over_http(daemon, direct):
    pairs = make_pairs(20, seed=11)
    with ServeClient(port=daemon.port) as client:
        _, rtz_routes = client.route_many(pairs, scheme="rtz")
        rtz_expected = direct.router("rtz").route_many(pairs)
        assert [route_key(r) for r in rtz_routes] == [
            route_key(r) for r in rtz_expected
        ]
        with pytest.raises(ProtocolError) as err:
            client.route_many(pairs, scheme="bogus")
        assert err.value.code == "unknown-scheme"
        assert "rtz" in err.value.extra["choices"]
        with pytest.raises(ProtocolError):
            client.route_many([(0, N + 5)])


def test_workload_bit_identical_to_direct(daemon, direct):
    with ServeClient(port=daemon.port) as client:
        generation, summary = client.workload("mixed", 120, seed=SEED)
    assert generation == 1
    workload = generate_workload(
        "mixed", N, 120, rng=random.Random(SEED + 3),
        oracle=direct.oracle(),
    )
    expected = direct.router("stretch6").serve_workload(workload)
    assert dataclasses.replace(summary, elapsed_s=0.0) == dataclasses.replace(
        expected, elapsed_s=0.0
    )


def test_unknown_endpoint_and_keepalive_over_http(daemon):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
    try:
        conn.request("GET", "/nope")
        resp = conn.getresponse()
        body = resp.read()
        assert resp.status == 404
        assert json.loads(body)["error"]["code"] == "unknown-endpoint"
        # the connection survives an error response (keep-alive)
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        assert resp.status == 200
        resp.read()
    finally:
        conn.close()


def test_http_reload_under_load_zero_drops():
    """Worker threads hammer /route_many while the graph is swapped:
    no request fails, every response matches its tagged generation,
    and traffic lands on both generations."""
    config = ServeConfig(
        family="random", n=24, seed=0, schemes=("stretch6",), port=0,
    )
    daemon = ServeDaemon(config).start()
    try:
        pairs = make_pairs(10, n=24, seed=3)
        expected = {}
        for gen_id, seed in ((1, 0), (2, 4)):
            net = Network.from_family("random", 24, seed=seed, store=None)
            expected[gen_id] = [
                route_key(r)
                for r in net.router("stretch6").route_many(pairs)
            ]
        stop = threading.Event()
        failures = []
        seen = set()

        def worker():
            try:
                with ServeClient(port=daemon.port) as client:
                    while not stop.is_set():
                        generation, routes = client.route_many(pairs)
                        got = [route_key(r) for r in routes]
                        if got != expected[generation]:
                            failures.append((generation, got))
                        seen.add(generation)
            except Exception as exc:  # any drop / error fails the test
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        with ServeClient(port=daemon.port) as client:
            doc = client.reload(seed=4)
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join(30)
        assert not failures, failures[:3]
        assert doc["old_generation"] == 1
        assert doc["generation"] == 2
        assert seen == {1, 2}, f"traffic must span the swap, saw {seen}"
        with ServeClient(port=daemon.port) as client:
            generation, _ = client.route_many(pairs)
        assert generation == 2
    finally:
        daemon.stop()


def test_clients_dropping_mid_route_many_leak_no_slot():
    """Three clients close their sockets while their /route_many is
    held in the engine, and a fourth sends half a body and closes.
    Every in-flight slot is released: the next request routes exactly
    like a direct route_many, and a /reload drains the old generation."""
    daemon = ServeDaemon(small_config()).start()
    app = daemon.app
    gen = app.lifecycle.current
    release = hold_route_many(gen.router("stretch6"))
    try:
        pairs = make_pairs(8, n=24, seed=3)
        body = json.dumps({"pairs": [[s, t] for s, t in pairs]}).encode()
        head = (
            "POST /route_many HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()

        def wait_for(predicate):
            deadline = time.monotonic() + 10.0
            while not predicate():
                assert time.monotonic() < deadline, "daemon state never settled"
                time.sleep(0.005)

        dropped = []
        for _ in range(3):
            sock = socket.create_connection(("127.0.0.1", daemon.port))
            sock.sendall(head + body)
            dropped.append(sock)
        wait_for(lambda: app.active == 3 and gen.inflight == 3)
        for sock in dropped:
            sock.close()
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(head + body[: len(body) // 2])
        release.set()
        wait_for(lambda: app.active == 0 and gen.inflight == 0)

        expected = [
            route_key(r)
            for r in Network.from_family("random", 24, seed=0, store=None)
            .router("stretch6").route_many(pairs)
        ]
        with ServeClient(port=daemon.port, timeout=30.0) as client:
            generation, routes = client.route_many(pairs)
            assert generation == 1
            assert [route_key(r) for r in routes] == expected
            doc = client.reload(seed=4)
        assert (doc["old_generation"], doc["generation"]) == (1, 2)
        assert gen.retired and gen.inflight == 0 and app.active == 0
    finally:
        release.set()
        daemon.stop()


# ----------------------------------------------------------------------
# delta reloads: POST /reload with a topology mutation
# ----------------------------------------------------------------------

def test_delta_reload_evolves_in_process():
    """A /reload carrying a delta body evolves the current network
    (generation-linked, incremental oracle repair) instead of building
    a fresh snapshot, and the swapped generation routes exactly like a
    directly-evolved network."""
    app = build_app(small_config())
    base = Network.from_family("random", 24, seed=0, store=None)
    edge = next(iter(base.graph.edges()))
    delta_doc = {"ops": [{
        "op": "reweight", "tail": edge.tail, "head": edge.head,
        "weight": 7.77,
    }]}
    pairs = make_pairs(10, n=24, seed=5)
    base.oracle()
    expected_net = base.evolve(delta_doc)
    expected = [
        route_key(r)
        for r in expected_net.router("stretch6").route_many(pairs)
    ]

    async def main():
        status, raw = await app.dispatch(
            "POST", "/reload", json.dumps({"delta": delta_doc}).encode()
        )
        assert status == 200, raw
        doc = decode_body(raw)
        assert doc["old_generation"] == 1
        assert doc["generation"] == 2
        assert doc["delta"]["ops"] == ["reweight"]
        assert doc["delta"]["network_generation"] == 2
        # the daemon warmed the old oracle at startup, so the evolve
        # path must have repaired incrementally, not rebuilt
        assert doc["delta"]["repair"]["incremental"] == 1
        assert doc["delta"]["repair"]["full_rebuilds"] == 0
        body = json.dumps({"pairs": [[s, t] for s, t in pairs]}).encode()
        status, raw = await app.dispatch("POST", "/route_many", body)
        assert status == 200, raw
        generation, routes = decode_results(decode_body(raw))
        assert generation == 2
        assert [route_key(r) for r in routes] == expected

    asyncio.run(main())


def test_delta_reload_validation_in_process():
    """Delta bodies are validated at the protocol layer: mutually
    exclusive with snapshot parameters, and malformed ops are rejected
    before any build starts."""
    app = build_app(small_config())

    async def main():
        status, raw = await app.dispatch(
            "POST", "/reload",
            json.dumps({"delta": {"ops": [{"op": "link_down", "tail": 0,
                                           "head": 1}]},
                        "seed": 5}).encode(),
        )
        assert status == 400
        with pytest.raises(ProtocolError, match="not both"):
            decode_body(raw)
        status, raw = await app.dispatch(
            "POST", "/reload",
            json.dumps({"delta": {"ops": [{"op": "teleport"}]}}).encode(),
        )
        assert status == 400
        with pytest.raises(ProtocolError, match="malformed delta"):
            decode_body(raw)
        # a delta inconsistent with the live graph (no such edge) maps
        # to a client error too, and the generation is unchanged
        status, raw = await app.dispatch(
            "POST", "/reload",
            json.dumps({"delta": {"ops": [{"op": "reweight", "tail": 0,
                                           "head": 0, "weight": 1.0}]}}
                       ).encode(),
        )
        assert status == 400
        status, raw = await app.dispatch("GET", "/healthz", b"")
        assert decode_body(raw)["generation"] == 1

    asyncio.run(main())


def test_reload_whose_build_raises_keeps_serving_in_process():
    """A /reload whose build raises (an unknown family) is a structured
    400 listing the families; the old generation keeps answering
    /healthz and /route_many, and the next valid reload still swaps."""
    from repro.graph.generators import FAMILY_NAMES

    app = build_app(small_config())
    pairs = make_pairs(6, n=24, seed=3)
    expected = [
        route_key(r)
        for r in Network.from_family("random", 24, seed=0, store=None)
        .router("stretch6").route_many(pairs)
    ]
    route_body = {"pairs": [[s, t] for s, t in pairs]}

    async def main():
        status, raw = await app.dispatch(
            "POST", "/reload", json.dumps({"family": "smallworld"}).encode()
        )
        assert status == 400
        with pytest.raises(ProtocolError) as err:
            decode_body(raw)
        assert err.value.code == "bad-request"
        assert "unknown family 'smallworld'" in str(err.value)
        for family in FAMILY_NAMES:
            assert repr(family) in str(err.value)
        status, raw = await app.dispatch("GET", "/healthz", b"")
        assert status == 200
        assert decode_body(raw)["generation"] == 1
        status, raw = await app.dispatch(
            "POST", "/route_many", json.dumps(route_body).encode()
        )
        assert status == 200, raw
        generation, routes = decode_results(decode_body(raw))
        assert generation == 1
        assert [route_key(r) for r in routes] == expected
        status, raw = await app.dispatch(
            "POST", "/reload", json.dumps({"seed": 9}).encode()
        )
        assert status == 200, raw
        doc = decode_body(raw)
        assert (doc["old_generation"], doc["generation"]) == (1, 2)

    asyncio.run(main())


def test_http_delta_reload_under_load_zero_drops():
    """Worker threads hammer /route_many while a delta reload evolves
    the graph over the wire: no request drops, responses match their
    tagged generation, and traffic spans the swap."""
    config = ServeConfig(
        family="random", n=24, seed=0, schemes=("stretch6",), port=0,
    )
    base = Network.from_family("random", 24, seed=0, store=None)
    edge = next(iter(base.graph.edges()))
    delta_doc = {"ops": [{
        "op": "reweight", "tail": edge.tail, "head": edge.head,
        "weight": 6.25,
    }]}
    pairs = make_pairs(10, n=24, seed=3)
    base.oracle()
    evolved = base.evolve(delta_doc)
    expected = {
        1: [route_key(r) for r in base.router("stretch6").route_many(pairs)],
        2: [route_key(r) for r in evolved.router("stretch6").route_many(pairs)],
    }
    daemon = ServeDaemon(config).start()
    try:
        stop = threading.Event()
        failures = []
        seen = set()

        def worker():
            try:
                with ServeClient(port=daemon.port) as client:
                    while not stop.is_set():
                        generation, routes = client.route_many(pairs)
                        got = [route_key(r) for r in routes]
                        if got != expected[generation]:
                            failures.append((generation, got))
                        seen.add(generation)
            except Exception as exc:  # any drop / error fails the test
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        with ServeClient(port=daemon.port) as client:
            doc = client.reload(delta=delta_doc)
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join(30)
        assert not failures, failures[:3]
        assert doc["old_generation"] == 1
        assert doc["generation"] == 2
        assert doc["delta"]["ops"] == ["reweight"]
        assert doc["delta"]["repair"]["incremental"] == 1
        assert seen == {1, 2}, f"traffic must span the swap, saw {seen}"
        with ServeClient(port=daemon.port) as client:
            generation, _ = client.route_many(pairs)
        assert generation == 2
    finally:
        daemon.stop()


def test_client_rejects_malformed_delta_before_the_wire():
    """ServeClient.reload(delta=) parses document deltas client-side,
    so a malformed delta raises GraphError without a daemon."""
    from repro.exceptions import GraphError

    client = ServeClient(port=1)  # never connected
    with pytest.raises(GraphError):
        client.reload(delta={"ops": [{"op": "teleport"}]})


class _FakeDaemon(http.server.ThreadingHTTPServer):
    """A stand-in daemon that records each request it reads.  GETs
    answer at once (closing the connection afterwards when
    ``close_after_get`` is set, without saying so); POSTs answer only
    once ``release`` is set."""

    daemon_threads = True

    def __init__(self, close_after_get: bool = False):
        super().__init__(("127.0.0.1", 0), _FakeHandler)
        self.close_after_get = close_after_get
        self.requests = []
        self.release = threading.Event()
        threading.Thread(
            target=self.serve_forever, args=(0.05,), daemon=True
        ).start()

    def stop(self):
        self.release.set()
        self.shutdown()
        self.server_close()

    def handle_error(self, request, client_address):
        pass  # answering a client that timed out and left


class _FakeHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def answer(self):
        payload = json.dumps({"schema": "repro-serve/1", "status": "ok"})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload.encode())

    def do_GET(self):
        self.server.requests.append(("GET", self.path))
        self.answer()
        self.close_connection = self.server.close_after_get

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append(("POST", self.path))
        self.server.release.wait(10)
        self.answer()


def test_client_never_resends_a_timed_out_request():
    """A POST that times out on a kept-alive connection reaches the
    daemon once: it may still be applying it, and a delta reload sent
    twice would apply twice."""
    server = _FakeDaemon()
    try:
        client = ServeClient(port=server.server_address[1], timeout=0.3)
        assert client.healthz()["status"] == "ok"  # keeps the connection
        delta = {"ops": [{"op": "reweight", "tail": 0, "head": 1,
                          "weight": 2.0}]}
        with pytest.raises(ServeConnectionError, match="timed out"):
            client.reload(delta=delta)
        assert server.requests == [("GET", "/healthz"), ("POST", "/reload")]
        client.close()
    finally:
        server.stop()


def test_client_retries_a_connection_closed_while_idle():
    """When the daemon has closed an idle kept-alive connection, the
    next call is sent once more on a fresh connection and succeeds."""
    server = _FakeDaemon(close_after_get=True)
    try:
        with ServeClient(port=server.server_address[1], timeout=5) as client:
            assert client.healthz()["status"] == "ok"
            time.sleep(0.05)  # the daemon's close reaches the client
            assert client.healthz()["status"] == "ok"
        assert server.requests == [("GET", "/healthz")] * 2
    finally:
        server.stop()


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------

def test_network_artifact_builds_once_under_threads():
    """The per-label build lock: concurrent threads racing a cold
    artifact produce exactly one build; everyone shares the object."""
    net = Network.from_family("random", 20, seed=2, store=None)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def worker(i):
        barrier.wait()
        results[i] = net.artifact("oracle")

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert all(r is results[0] for r in results)
    info = net.stats().cache.as_dict()
    label = next(lbl for lbl in info if "oracle" in lbl)
    assert info[label]["builds"] == 1
    assert info[label]["hits"] == 7


def test_cli_paths_emit_no_deprecation_warnings(capsys):
    """CLI paths are deprecation-clean: no repro-originated
    DeprecationWarning escapes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["stretch", "--n", "16", "--pairs", "20"]) == 0
        assert main(["tables", "--n", "16"]) == 0
        assert main(["traffic", "--n", "16", "--pairs", "30"]) == 0
    capsys.readouterr()
    offenders = [
        w for w in caught
        if issubclass(w.category, DeprecationWarning)
        and "repro" in str(getattr(w, "filename", ""))
    ]
    assert not offenders, [str(w.message) for w in offenders]
