"""The roundtrip metric, the ``Init_v`` total order, and neighborhoods.

Section 1.1 defines the roundtrip distance
``r(u, v) = d(u, v) + d(v, u)`` — the minimum cost of a directed tour
from ``u`` through ``v`` and back.  It is symmetric and satisfies the
triangle inequality, so it is a genuine metric on a strongly connected
digraph (vertices at distance 0 are identical because weights are
positive).

Section 2 defines, for each node ``v``, the total order ``u <_v w``:

1. ``r(v, u) < r(v, w)``, or
2. equal roundtrip and ``d(u, v) < d(w, v)``, or
3. both equal and ``ID_u < ID_w``.

Sorting all of ``V`` by this key yields the sequence ``Init_v`` starting
with ``v`` itself; the paper's neighborhoods are prefixes of it:

* Section 2: ``N(u)`` = first ``sqrt(n)`` nodes of ``Init_u``;
* Section 3: ``N_i(u)`` = first ``n^{i/k}`` nodes of ``Init_u``;
* Section 4: ``N^d(v)`` = all nodes within roundtrip distance ``d``.

The tie-break ID is the node's adversarial *name*, not its internal
vertex id ("ID_u refers to the index of u in a listing of V"); callers
pass the naming's id list so the structure stays topology-independent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graph.blocked import default_block_rows
from repro.graph.shortest_paths import DistanceOracle


def level_size(n: int, i: int, k: int) -> int:
    """``ceil(n^{i/k})`` in exact integer arithmetic: the smallest
    ``s >= 0`` with ``s**k >= n**i``.

    The float form ``math.ceil(n ** (i / k))`` is one too large at some
    perfect powers (``32 ** (4 / 5)`` evaluates to ``16.000000000000004``).
    """
    target = n ** i
    s = int(round(n ** (i / k)))
    while s ** k < target:
        s += 1
    while s > 0 and (s - 1) ** k >= target:
        s -= 1
    return s


class RoundtripMetric:
    """Roundtrip-metric structure over a :class:`DistanceOracle`.

    Neighborhoods (prefixes of ``Init_v``) are computed for all ``v`` at
    once per prefix length by :meth:`neighborhoods` and cached, since
    scheme construction consults them for every node.

    Args:
        oracle: all-pairs distance oracle of the digraph.
        ids: tie-breaking identifier per vertex (typically the
            adversarial node names).  Defaults to the vertex ids.
    """

    def __init__(self, oracle: DistanceOracle, ids: Optional[Sequence[int]] = None):
        self._oracle = oracle
        n = oracle.n
        if ids is None:
            ids = list(range(n))
        if len(ids) != n:
            raise GraphError(
                f"ids must have length n={n}, got {len(ids)}"
            )
        self._ids = list(ids)
        self._neighborhoods: Dict[int, np.ndarray] = {}

    @property
    def oracle(self) -> DistanceOracle:
        """The underlying distance oracle."""
        return self._oracle

    @property
    def ids(self) -> List[int]:
        """The tie-breaking identifiers (a copy)."""
        return list(self._ids)

    @property
    def n(self) -> int:
        """Vertex count."""
        return self._oracle.n

    def d(self, u: int, v: int) -> float:
        """One-way distance ``d(u, v)``."""
        return self._oracle.d(u, v)

    def r(self, u: int, v: int) -> float:
        """Roundtrip distance ``r(u, v)``."""
        return self._oracle.r(u, v)

    # ------------------------------------------------------------------
    # the total order
    # ------------------------------------------------------------------
    def order_key(self, v: int, u: int) -> tuple:
        """The sort key of ``u`` in ``Init_v`` (Section 2's three rules)."""
        return (self._oracle.r(v, u), self._oracle.d(u, v), self._ids[u])

    def precedes(self, v: int, u: int, w: int) -> bool:
        """Return whether ``u <_v w`` in the Section 2 total order."""
        return self.order_key(v, u) < self.order_key(v, w)

    def init_order(self, v: int) -> List[int]:
        """Return ``Init_v``: all vertices sorted by ``<_v``.

        The first element is always ``v`` itself (its roundtrip distance
        to itself is 0 and weights are positive).
        """
        return self.neighborhood(v, self.n)

    # ------------------------------------------------------------------
    # neighborhoods
    # ------------------------------------------------------------------
    def neighborhoods(self, size: int) -> np.ndarray:
        """The first ``size`` nodes of every ``Init_v``: a read-only
        ``(n, size)`` int32 array whose row ``v`` lists them in
        ``<_v`` order (``size`` is clamped to ``n``; cached per size).

        Each row equals ``sorted(range(n), key=lambda u:
        order_key(v, u))[:size]``.  Per row, :func:`numpy.partition`
        finds the ``size``-th smallest ``r(v, .)``; every member of the
        prefix lies at or below it, so only those candidates are sorted,
        by one stable :func:`numpy.lexsort` over (row, ``r(v, u)``,
        ``d(u, v)``, id).  Rows are processed in blocks of
        :func:`~repro.graph.blocked.default_block_rows` so transient
        memory stays ``O(block * n)``.
        """
        if size < 0:
            raise GraphError(f"neighborhood size must be >= 0, got {size}")
        size = min(size, self.n)
        cached = self._neighborhoods.get(size)
        if cached is None:
            cached = self._init_prefixes(size)
            cached.flags.writeable = False
            self._neighborhoods[size] = cached
        return cached

    def _init_prefixes(self, size: int) -> np.ndarray:
        n = self.n
        out = np.empty((n, size), dtype=np.int32)
        if size == 0:
            return out
        r = self._oracle.r_matrix
        d = self._oracle.d_matrix
        ids = np.asarray(self._ids, dtype=np.int64)
        step = default_block_rows(n)
        for lo in range(0, n, step):
            block = r[lo:lo + step]
            kth = np.partition(block, size - 1, axis=1)[:, size - 1]
            rows, cols = np.nonzero(block <= kth[:, None])
            order = np.lexsort(
                (ids[cols], d[cols, rows + lo], block[rows, cols], rows)
            )
            cols = cols[order]
            starts = np.concatenate(([0], np.cumsum(np.bincount(rows))[:-1]))
            out[lo:lo + step] = cols[starts[:, None] + np.arange(size)]
        return out

    def neighborhood(self, v: int, size: int) -> List[int]:
        """First ``size`` nodes of ``Init_v`` (the paper's ``N`` balls).

        ``size`` is clamped to ``n``.
        """
        return self.neighborhoods(size)[v].tolist()

    def sqrt_neighborhood(self, v: int) -> List[int]:
        """Section 2's ``N(v)``: the first ``ceil(sqrt(n))`` nodes."""
        return self.level_neighborhood(v, 1, 2)

    def level_neighborhood(self, v: int, i: int, k: int) -> List[int]:
        """Section 3's ``N_i(v)``: the first ``ceil(n^{i/k})`` nodes
        (:func:`level_size`).

        ``N_0(v)`` is ``{v}`` (the first node of ``Init_v``) and
        ``N_k(v)`` is all of ``V``.
        """
        if not (0 <= i <= k):
            raise GraphError(f"level i={i} out of range [0, {k}]")
        return self.neighborhood(v, level_size(self.n, i, k))

    def ball(self, v: int, radius: float) -> List[int]:
        """Section 4's ``N^d(v)``: all ``w`` with ``r(v, w) <= radius``."""
        row = self._oracle.r_matrix[v]
        members = np.nonzero(row <= radius + 1e-12)[0]
        return members.tolist()

    def radius_of_kth(self, v: int, size: int) -> float:
        """Roundtrip distance from ``v`` to the last node of
        ``neighborhood(v, size)`` — the effective ball radius."""
        nb = self.neighborhood(v, size)
        return self._oracle.r(v, nb[-1])

    # ------------------------------------------------------------------
    # cluster geometry (used by the cover construction, Section 4)
    # ------------------------------------------------------------------
    def rt_radius_from(self, c: int, members: Sequence[int]) -> float:
        """``max r(c, w)`` over ``w`` in ``members``."""
        if len(members) == 0:
            return 0.0
        idx = np.fromiter(members, dtype=np.int64)
        return float(self._oracle.r_matrix[c, idx].max())

    def rt_center(self, members: Sequence[int]) -> int:
        """``RTCenter``: a member minimising the max roundtrip distance
        to the other members (ties to smaller vertex id)."""
        if len(members) == 0:
            raise GraphError("rt_center of an empty cluster")
        if len(members) == 1:
            return int(next(iter(members)))
        idx = np.fromiter(sorted(members), dtype=np.int64)
        sub = self._oracle.r_matrix[np.ix_(idx, idx)]
        eccentricities = sub.max(axis=1)
        best = int(np.argmin(eccentricities))
        return int(idx[best])

    def rt_radius(self, members: Sequence[int]) -> float:
        """``RTRad``: the max roundtrip distance from the center."""
        c = self.rt_center(members)
        return self.rt_radius_from(c, members)

    def rt_diameter(self, members: Sequence[int]) -> float:
        """``RTDiam`` of a cluster: max pairwise roundtrip distance."""
        if len(members) == 0:
            return 0.0
        idx = np.fromiter(sorted(members), dtype=np.int64)
        sub = self._oracle.r_matrix[np.ix_(idx, idx)]
        return float(sub.max())

    def nearest(self, v: int, candidates: Sequence[int]) -> int:
        """The candidate minimising the ``Init_v`` order key (i.e. the
        closest-by-roundtrip candidate, paper tie-breaks included)."""
        if len(candidates) == 0:
            raise GraphError("nearest() over an empty candidate set")
        return min(candidates, key=lambda u: self.order_key(v, u))


def verify_metric_axioms(metric: RoundtripMetric, tol: float = 1e-9) -> None:
    """Assert the roundtrip metric axioms on every triple (test helper).

    Checks symmetry, positivity off the diagonal, zero diagonal, and the
    triangle inequality ``r(u, w) <= r(u, v) + r(v, w)``.

    Raises:
        AssertionError: on the first violated axiom.
    """
    r = metric.oracle.r_matrix
    n = metric.n
    assert np.allclose(r, r.T, atol=tol), "roundtrip metric must be symmetric"
    assert np.all(np.diag(r) == 0), "r(v, v) must be 0"
    off_diag = r + np.eye(n) * 1.0
    assert np.all(off_diag > 0), "r(u, v) must be positive for u != v"
    for v in range(n):
        # r[u, w] <= r[u, v] + r[v, w] for all u, w simultaneously:
        via = r[:, v][:, None] + r[v, :][None, :]
        assert np.all(r <= via + tol), f"triangle inequality fails via {v}"
