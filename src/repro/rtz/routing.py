"""The name-dependent stretch-3 roundtrip substrate (Lemma 2).

Re-implementation of the Roditty-Thorup-Zwick SODA'02 scheme from its
defining properties (see DESIGN.md, substitutions):

* landmarks ``A`` (about ``sqrt(n)`` of them); per landmark ``c`` a
  full in-pointer structure (optimal ``x -> c``) and out-tree (optimal
  ``c -> x`` by interval routing);
* clusters ``C(v) = {u : r(u, v) < r(v, A)}``; every member stores a
  direct next-hop for ``v`` along the canonical shortest path.  The
  cluster is closed under shortest-path suffixes, so hop-by-hop direct
  forwarding is well defined;
* the label ``R3(v) = (v, a(v), addr_{OutTree(a(v))}(v))`` of
  ``O(log n)`` bits.

Routing a leg ``x -> y`` given ``R3(y)``:

* if ``x`` holds a direct entry for ``y`` the leg is the exact shortest
  path (cost ``d(x, y)``);
* otherwise up to ``a(y)`` (cost ``d(x, a(y))``) and down the out-tree
  (cost ``d(a(y), y)``); since the direct case failed,
  ``r(y, a(y)) <= r(x, y)``, giving the Lemma 2 leg bound
  ``p(x, y) <= d(x, y) + r(x, y)``.

Two legs make a roundtrip of cost at most ``3 r(x, y)`` — stretch 3.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TableLookupError
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import dijkstra
from repro.rtz.centers import CenterAssignment, sample_centers
from repro.runtime.sizing import id_bits
from repro.tree_routing.fixed_port import (
    OutTreeRouter,
    ToRootPointers,
    TreeAddress,
)

#: leg-forwarding modes
DIRECT = "dir"
TO_CENTER = "up"
DOWN_TREE = "dn"


@dataclass(frozen=True)
class R3Label:
    """The globally valid routing address of one vertex (Lemma 2).

    Attributes:
        dest: destination vertex identifier.
        center: the destination's home landmark ``a(dest)``.
        addr: the destination's address in ``OutTree(center)``.
    """

    dest: int
    center: int
    addr: TreeAddress

    def header_bits(self, n: int) -> int:
        """Encoded size: two identifiers plus a tree address."""
        return 2 * id_bits(n) + self.addr.bit_size(n)


class RTZStretch3:
    """The Lemma 2 substrate over one graph.

    Args:
        metric: roundtrip metric of the graph.
        rng: landmark sampling randomness.
        center_count: landmark count override (default ``ceil(sqrt n)``).
        centers: explicit landmark set (sorted on entry); when given,
            ``rng`` and ``center_count`` are ignored.
    """

    def __init__(
        self,
        metric: RoundtripMetric,
        rng: Optional[random.Random] = None,
        center_count: Optional[int] = None,
        centers: Optional[Sequence[int]] = None,
    ):
        self._metric = metric
        oracle = metric.oracle
        g = oracle.graph
        n = g.n
        if centers is None:
            centers = sample_centers(n, rng, center_count)
        else:
            centers = sorted(centers)
        self.assignment = CenterAssignment(metric, centers)

        # Per-landmark tree structures spanning all of V.
        self._in_trees: Dict[int, ToRootPointers] = {}
        self._out_trees: Dict[int, OutTreeRouter] = {}
        for idx, c in enumerate(self.assignment.centers):
            parents = oracle.forward_tree_parents(c)
            self._out_trees[c] = OutTreeRouter(g, c, parents, tree_id=idx)
            _dist, succ = dijkstra(g, c, reverse=True)
            succ[c] = -1
            self._in_trees[c] = ToRootPointers(g, c, succ)

        # Direct tables: direct[u][v] = port toward v, for u in C(v).
        self._direct: List[Dict[int, int]] = [dict() for _ in range(n)]
        for v in range(n):
            for u in self.assignment.cluster(v):
                nxt = oracle.next_hop(u, v)
                self._direct[u][v] = g.port_of(u, nxt)

        self._labels: List[R3Label] = []
        for v in range(n):
            c = self.assignment.home_center(v)
            self._labels.append(
                R3Label(dest=v, center=c, addr=self._out_trees[c].address_of(v))
            )

    # ------------------------------------------------------------------
    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric."""
        return self._metric

    @property
    def centers(self) -> List[int]:
        """The landmark set ``A``."""
        return list(self.assignment.centers)

    def label(self, v: int) -> R3Label:
        """``R3(v)`` — assigned at preprocessing, handed to senders by
        the TINN dictionary layer."""
        return self._labels[v]

    def has_direct(self, u: int, v: int) -> bool:
        """Whether ``u`` stores a direct next-hop for ``v``."""
        return v in self._direct[u]

    # ------------------------------------------------------------------
    # leg forwarding (pure local decisions)
    # ------------------------------------------------------------------
    def begin_leg(self, at: int, label: R3Label) -> str:
        """Choose the leg mode at the leg's first vertex."""
        if at == label.dest or self.has_direct(at, label.dest):
            return DIRECT
        if at == label.center:
            return DOWN_TREE
        return TO_CENTER

    def leg_step(
        self, at: int, label: R3Label, mode: str
    ) -> Tuple[Optional[int], str]:
        """One forwarding decision of a leg.

        Args:
            at: current vertex.
            label: the leg's destination label.
            mode: current leg mode (``DIRECT``/``TO_CENTER``/
                ``DOWN_TREE``).

        Returns:
            ``(port, next_mode)`` — ``port`` is ``None`` exactly when
            ``at`` is the destination.

        Raises:
            TableLookupError: on a missing table entry (a bug; the
                closure property rules it out for correct tables).
        """
        if at == label.dest:
            return None, mode
        if mode == DIRECT:
            try:
                return self._direct[at][label.dest], DIRECT
            except KeyError as exc:
                raise TableLookupError(
                    f"direct entry for {label.dest} missing at {at} "
                    "(cluster closure violated?)"
                ) from exc
        if mode == TO_CENTER:
            if at == label.center:
                mode = DOWN_TREE
            else:
                return self._in_trees[label.center].next_port(at), TO_CENTER
        if mode == DOWN_TREE:
            port = self._out_trees[label.center].next_port(at, label.addr)
            if port is None:  # pragma: no cover - dest check above
                return None, DOWN_TREE
            return port, DOWN_TREE
        raise TableLookupError(f"unknown leg mode {mode!r}")

    def route_leg(self, x: int, y: int) -> List[int]:
        """Drive a full leg ``x -> y`` (analysis helper; packet-time
        forwarding goes through a scheme + simulator)."""
        label = self.label(y)
        mode = self.begin_leg(x, label)
        at = x
        path = [at]
        g = self._metric.oracle.graph
        for _ in range(4 * g.n + 8):
            port, mode = self.leg_step(at, label, mode)
            if port is None:
                return path
            at = g.head_of_port(at, port)
            path.append(at)
        raise TableLookupError(f"leg {x} -> {y} failed to terminate")

    def leg_cost_bound(self, x: int, y: int) -> float:
        """Lemma 2's per-leg bound ``r(x, y) + d(x, y)``."""
        return self._metric.r(x, y) + self._metric.d(x, y)

    # ------------------------------------------------------------------
    # artifact-store serialization
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the substrate into store arrays.

        The arrays capture exactly the parts whose reconstruction is
        expensive or rng-dependent: the landmark set, the home-center
        assignment, and the two table families that needed shortest-path
        computations (in-tree successors from the reverse Dijkstras,
        direct next-hop ports from the cluster scan).  Out-trees and
        labels are *not* serialized — :meth:`from_arrays` re-derives
        them from the oracle's canonical forward trees, which is cheap
        and deterministic.
        """
        g = self._metric.oracle.graph
        n = g.n
        centers = self.assignment.centers
        in_succ = np.full((len(centers), n), -1, dtype=np.int64)
        for idx, c in enumerate(centers):
            tree = self._in_trees[c]
            for v in range(n):
                port = tree.next_port(v) if v != c else None
                if port is not None:
                    in_succ[idx, v] = g.head_of_port(v, port)
        direct_u: List[int] = []
        direct_v: List[int] = []
        direct_port: List[int] = []
        for u in range(n):
            for v, port in sorted(self._direct[u].items()):
                direct_u.append(u)
                direct_v.append(v)
                direct_port.append(port)
        return {
            "centers": np.asarray(centers, dtype=np.int64),
            "home": np.asarray(self.assignment._home, dtype=np.int64),
            "r_to_a": np.asarray(self.assignment._r_to_a, dtype=np.float64),
            "in_succ": in_succ,
            "direct_u": np.asarray(direct_u, dtype=np.int64),
            "direct_v": np.asarray(direct_v, dtype=np.int64),
            "direct_port": np.asarray(direct_port, dtype=np.int64),
        }

    @classmethod
    def from_arrays(
        cls, metric: RoundtripMetric, arrays: Dict[str, np.ndarray]
    ) -> "RTZStretch3":
        """Rehydrate a substrate from :meth:`to_arrays` output.

        Skips every shortest-path computation the constructor performs
        (the reverse Dijkstras and the O(n^2) cluster scan); only the
        cheap deterministic derivations (out-tree DFS numbering,
        labels) run.  The result is bit-identical to a fresh build.
        """
        oracle = metric.oracle
        g = oracle.graph
        n = g.n
        self = cls.__new__(cls)
        self._metric = metric
        centers = [int(c) for c in arrays["centers"]]
        self.assignment = CenterAssignment.restore(
            metric, centers, arrays["home"], arrays["r_to_a"]
        )
        self._in_trees = {}
        self._out_trees = {}
        in_succ = arrays["in_succ"]
        for idx, c in enumerate(self.assignment.centers):
            parents = oracle.forward_tree_parents(c)
            self._out_trees[c] = OutTreeRouter(g, c, parents, tree_id=idx)
            self._in_trees[c] = ToRootPointers(g, c, in_succ[idx].tolist())
        self._direct = [dict() for _ in range(n)]
        for u, v, port in zip(
            arrays["direct_u"], arrays["direct_v"], arrays["direct_port"]
        ):
            self._direct[int(u)][int(v)] = int(port)
        self._labels = []
        for v in range(n):
            c = self.assignment.home_center(v)
            self._labels.append(
                R3Label(dest=v, center=c, addr=self._out_trees[c].address_of(v))
            )
        return self

    def __getstate__(self):
        """Pickle the substrate *without* its compiled step tables.

        The :class:`~repro.runtime.engine.SubstrateStepTables` cache
        (per table family; ``(n, n)``-shaped in dense storage) is
        rebuilt worker-side from the substrate's own structures on the
        first compile, so process-pool shard execution never ships it.
        """
        state = dict(self.__dict__)
        state.pop("_compiled_step_tables", None)
        return state

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def table_entries(self, u: int) -> int:
        """Rows stored at ``u``: direct entries, per-landmark pointers
        and interval rows, plus its own label."""
        total = len(self._direct[u])
        for c in self.assignment.centers:
            total += self._in_trees[c].table_entries_at(u)
            total += self._out_trees[c].table_entries_at(u)
        total += 3  # own label (dest, center, addr)
        return total

    def expected_entry_bound(self) -> float:
        """The ``~O(sqrt(n))`` shape: ``c * sqrt(n) * log(n)`` with a
        generous constant, used by size benchmarks."""
        n = self._metric.n
        return 12.0 * math.sqrt(n) * max(1.0, math.log2(n))

