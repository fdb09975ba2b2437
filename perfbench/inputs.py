"""Seeded inputs for every workload, built before any timing starts.

The program under test receives only finished inputs: graphs come from
the library's ``random`` family generator (the one ``repro serve
--family random`` uses, so the daemon and the offline reference see the
same graph), while pair lists, request bodies and topology deltas come
from this module's own seeded code.  :class:`Digest` hashes whatever a
workload measured, so two runs can be shown to have used the same
inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from collections import deque
from typing import Dict, List, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]
Quad = Tuple[int, int, float, int]


class Digest:
    """SHA-256 over a workload's inputs (graph edges, pairs, deltas)."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, label: str, value) -> None:
        self._h.update(label.encode() + b"\0")
        if isinstance(value, np.ndarray):
            self._h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, bytes):
            self._h.update(value)
        else:
            self._h.update(json.dumps(value, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """An independent, reproducible stream per (workload, seed, use)."""
    return random.Random(f"perfbench|{workload}|{seed}|{stream}")


def random_graph_quads(n: int, seed: int) -> List[Quad]:
    """Edges ``(tail, head, weight, port)`` of the library's ``random``
    family graph for ``(n, seed)`` — the graph ``Network.from_family``
    and ``repro serve --family random`` build."""
    from repro.graph.generators import random_strongly_connected

    g = random_strongly_connected(n, rng=random.Random(seed))
    return [(e.tail, e.head, e.weight, e.port) for e in g.edges()]


def fresh_graph(n: int, quads: Sequence[Quad]):
    """A new frozen ``Digraph`` object with exactly these edges and
    ports.  Every set-up gets its own object, so no per-graph cache in
    the library can carry work from one set-up into the next."""
    from repro.graph.digraph import Digraph

    return Digraph.from_port_edges(n, quads)


def distinct_pair_codes(seed: int, n: int) -> np.ndarray:
    """Every ordered pair ``s != t`` exactly once, in seeded random
    order, coded as ``s * (n - 1) + t'`` (see :func:`decode_pairs`)."""
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.permutation(n * (n - 1)).astype(np.int64)


def decode_pairs(codes: np.ndarray, n: int) -> List[Pair]:
    """Inverse of the coding in :func:`distinct_pair_codes`."""
    s = codes // (n - 1)
    t = codes % (n - 1)
    t = t + (t >= s)
    return list(zip(s.tolist(), t.tolist()))


class ZipfPairs:
    """Uniform sources, Zipf(alpha)-skewed destinations: the rank-k
    destination is drawn with probability proportional to
    ``k ** -alpha``.  Which vertex holds each rank is fixed by
    ``popularity`` (a property of the deployment); ``rng`` draws the
    requests."""

    def __init__(self, rng: random.Random, popularity: random.Random,
                 n: int, alpha: float):
        self._rng = rng
        self._n = n
        self._order = list(range(n))
        popularity.shuffle(self._order)
        total = 0.0
        self._cdf = []
        for k in range(1, n + 1):
            total += k ** -alpha
            self._cdf.append(total)

    def draw(self, count: int) -> List[Pair]:
        out = []
        while len(out) < count:
            u = self._rng.random() * self._cdf[-1]
            t = self._order[min(bisect.bisect_left(self._cdf, u), self._n - 1)]
            s = self._rng.randrange(self._n)
            if s != t:
                out.append((s, t))
        return out


def route_many_body(pairs: Sequence[Pair], scheme: str) -> bytes:
    """A ready-to-send ``POST /route_many`` body."""
    doc = {"schema": "repro-serve/1", "scheme": scheme,
           "pairs": [[s, t] for s, t in pairs]}
    return json.dumps(doc).encode()


# ----------------------------------------------------------------------
# topology deltas
# ----------------------------------------------------------------------
CHURN_CYCLE = ("reweight", "link_down", "link_up")


class EdgeModel:
    """The benchmark's own copy of a graph's edge set, used to draw
    valid deltas ahead of time and to check the program's final graph."""

    def __init__(self, n: int, quads: Sequence[Quad]):
        self.n = n
        self.weights: Dict[Pair, float] = {(u, v): w for u, v, w, _ in quads}
        self.out: List[set] = [set() for _ in range(n)]
        for u, v in self.weights:
            self.out[u].add(v)

    def remove(self, u: int, v: int) -> None:
        del self.weights[(u, v)]
        self.out[u].discard(v)

    def add(self, u: int, v: int, w: float) -> None:
        self.weights[(u, v)] = w
        self.out[u].add(v)

    def reaches_without(self, u: int, v: int) -> bool:
        """Whether ``v`` stays reachable from ``u`` once edge ``(u, v)``
        is gone — exactly the condition for the removal to keep a
        strongly connected graph strongly connected."""
        seen = {u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in self.out[x]:
                if (x, y) == (u, v) or y in seen:
                    continue
                if y == v:
                    return True
                seen.add(y)
                queue.append(y)
        return False


def churn_ops(
    rng: random.Random, model: EdgeModel, count: int
) -> List[Tuple[str, int, int, float]]:
    """``count`` single-op deltas cycling reweight -> link_down ->
    link_up.  A link_down only removes an edge that keeps the graph
    strongly connected; a link_up restores the most recently downed
    link (new weight).  Weights are drawn from the generator's range
    [1, 10).  ``model`` ends in the state after the last op."""
    ops = []
    downed: List[Pair] = []
    for i in range(count):
        kind = CHURN_CYCLE[i % len(CHURN_CYCLE)]
        if kind == "link_up" and not downed:
            kind = "reweight"
        edges = list(model.weights)
        if kind == "reweight":
            u, v = edges[rng.randrange(len(edges))]
            op = (kind, u, v, rng.uniform(1.0, 10.0))
        elif kind == "link_down":
            while True:
                u, v = edges[rng.randrange(len(edges))]
                if model.reaches_without(u, v):
                    break
            downed.append((u, v))
            op = (kind, u, v, 0.0)
        else:
            u, v = downed.pop()
            op = (kind, u, v, rng.uniform(1.0, 10.0))
        apply_op(model, op)
        ops.append(op)
    return ops


def apply_op(model: EdgeModel, op: Tuple[str, int, int, float]) -> None:
    """Fold one drawn op into the model."""
    kind, u, v, w = op
    if kind == "link_down":
        model.remove(u, v)
    else:
        model.add(u, v, w)


def to_delta(op: Tuple[str, int, int, float]):
    """One drawn op as the library's ``GraphDelta``."""
    from repro.graph.delta import GraphDelta

    kind, u, v, w = op
    if kind == "reweight":
        return GraphDelta.reweight(u, v, w)
    if kind == "link_down":
        return GraphDelta.link_down(u, v)
    return GraphDelta.link_up(u, v, w)
