"""Center (landmark) selection for the RTZ-style substrate.

The stretch-3 scheme of Roditty, Thorup and Zwick samples a landmark
set ``A`` of about ``sqrt(n)`` vertices; every vertex ``v`` then has a
*home center* ``a(v)`` minimising the roundtrip distance ``r(v, c)``,
and a *cluster* ``C(v) = {u : r(u, v) < r(v, A)}`` of vertices closer
to ``v`` than ``v``'s own center is.

With a uniform sample of size ``s``, each ``|C(v)|`` is a prefix of the
roundtrip order stopped at the first sampled vertex, so
``E|C(v)| <= n / (s + 1)`` — choosing ``s = ceil(sqrt(n))`` balances
the two table contributions at ``~O(sqrt(n))`` each.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConstructionError
from repro.graph.blocked import default_block_rows
from repro.graph.roundtrip import RoundtripMetric


def sample_centers(
    n: int,
    rng: Optional[random.Random] = None,
    size: Optional[int] = None,
) -> List[int]:
    """Uniformly sample the landmark set ``A``.

    Args:
        n: vertex count.
        rng: randomness source.
        size: landmark count; defaults to ``ceil(sqrt(n))``.

    Returns:
        Sorted vertex list (non-empty).
    """
    rng = rng or random.Random(0)
    if size is None:
        size = int(math.ceil(math.sqrt(n)))
    size = max(1, min(size, n))
    return sorted(rng.sample(range(n), size))


class CenterAssignment:
    """Home centers and clusters induced by a landmark set.

    Args:
        metric: the roundtrip metric.
        centers: the landmark set ``A`` (non-empty).

    Raises:
        ConstructionError: on an empty landmark set.
    """

    def __init__(self, metric: RoundtripMetric, centers: Sequence[int]):
        if len(centers) == 0:
            raise ConstructionError("landmark set A must be non-empty")
        self._metric = metric
        self.centers: List[int] = sorted(set(centers))
        # argmin takes the first minimum and the centers ascend, so a
        # tie goes to the smaller landmark: the (r(v, c), c) minimum
        r = metric.oracle.r_matrix
        home = np.asarray(self.centers)[np.argmin(r[:, self.centers], axis=1)]
        self._home: List[int] = home.tolist()
        self._r_to_a: List[float] = r[np.arange(metric.n), home].tolist()
        # cluster membership is O(n^2) to enumerate and only needed on
        # the build path (direct tables, size accounting); computed
        # lazily so store-rehydrated assignments never pay for it
        self._clusters: Optional[List[Set[int]]] = None

    @classmethod
    def restore(
        cls,
        metric: RoundtripMetric,
        centers: Sequence[int],
        home: Sequence[int],
        r_to_a: Sequence[float],
    ) -> "CenterAssignment":
        """Rehydrate an assignment from stored arrays (the artifact
        store's load path), skipping the per-vertex center scan.

        ``home``/``r_to_a`` must be what the constructor would have
        computed for ``(metric, centers)``; clusters stay lazy and are
        re-derived from the metric if ever requested.
        """
        if len(centers) == 0:
            raise ConstructionError("landmark set A must be non-empty")
        self = cls.__new__(cls)
        self._metric = metric
        self.centers = sorted(set(int(c) for c in centers))
        self._home = [int(h) for h in home]
        self._r_to_a = [float(r) for r in r_to_a]
        self._clusters = None
        return self

    def cluster_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every ``(u, v)`` with ``u in C(v)``, i.e. ``r(u, v) < r(v, A)
        - 1e-12``, as two int64 arrays sorted by ``(u, v)``: one
        comparison per row block of ``r``."""
        n = self._metric.n
        r = self._metric.oracle.r_matrix
        bound = np.asarray(self._r_to_a) - 1e-12
        us, vs = [], []
        step = default_block_rows(n)
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            inside = r[lo:hi] < bound
            inside[np.arange(hi - lo), np.arange(lo, hi)] = False
            u, v = np.nonzero(inside)
            us.append(u + lo)
            vs.append(v)
        return (
            np.concatenate(us).astype(np.int64),
            np.concatenate(vs).astype(np.int64),
        )

    def _cluster_sets(self) -> List[Set[int]]:
        """``C(v)`` for every ``v`` (lazily computed, cached)."""
        if self._clusters is None:
            clusters: List[Set[int]] = [set() for _ in range(self._metric.n)]
            for u, v in zip(*(a.tolist() for a in self.cluster_pairs())):
                clusters[v].add(u)
            self._clusters = clusters
        return self._clusters

    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric."""
        return self._metric

    def home_center(self, v: int) -> int:
        """``a(v)``: the landmark minimising ``r(v, c)``."""
        return self._home[v]

    def r_to_centers(self, v: int) -> float:
        """``r(v, A) = r(v, a(v))``."""
        return self._r_to_a[v]

    def cluster(self, v: int) -> Set[int]:
        """``C(v)``: vertices with a direct route to ``v``."""
        return set(self._cluster_sets()[v])

    def in_cluster(self, u: int, v: int) -> bool:
        """Whether ``u`` may route directly to ``v``."""
        return u in self._cluster_sets()[v]

    def max_cluster_size(self) -> int:
        """Largest ``|C(v)|`` (drives the direct-table bound)."""
        return max(len(c) for c in self._cluster_sets())

    def mean_cluster_size(self) -> float:
        """Average ``|C(v)|``."""
        return sum(len(c) for c in self._cluster_sets()) / self._metric.n

    def verify_cluster_path_closure(self) -> None:
        """Check the closure property direct routing relies on: for
        ``u`` in ``C(v)``, every vertex on the canonical shortest
        ``u -> v`` path is in ``C(v)`` too.

        (Proof: for ``x`` on a shortest ``u -> v`` path,
        ``d(x,v) <= d(u,v) - d(u,x)`` and ``d(v,x) <= d(v,u) + d(u,x)``,
        so ``r(x,v) <= r(u,v) < r(v,A)``.)

        Raises:
            ConstructionError: naming a violating path.
        """
        u, v = self.cluster_pairs()
        n = self._metric.n
        check_cluster_closure(n, u * n + v, self._metric.oracle.next_hops(u, v))


def check_cluster_closure(n: int, keys: np.ndarray, nxt: np.ndarray) -> None:
    """The closure check over direct entries, in one pass: the entry
    for ``(u, v)`` (sorted ``keys``, ``u * n + v``) leads to the next
    vertex ``nxt`` on the ``u -> v`` path, which must be ``v`` or hold
    an entry for ``v`` itself.  By induction every vertex of the path
    then holds one, so hop-by-hop direct forwarding cannot get stuck.

    Raises:
        ConstructionError: naming the first entry that leads nowhere.
    """
    v = keys % n
    onward = np.flatnonzero(nxt != v)
    want = nxt[onward] * n + v[onward]
    pos = np.minimum(np.searchsorted(keys, want), max(keys.shape[0] - 1, 0))
    bad = np.flatnonzero(keys[pos] != want)
    if bad.size:
        i = onward[bad[0]]
        raise ConstructionError(
            f"cluster closure violated: {int(nxt[i])} on the path "
            f"{int(keys[i] // n)} -> {int(v[i])} holds no direct entry "
            f"for {int(v[i])}"
        )
