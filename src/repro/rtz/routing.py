"""The name-dependent stretch-3 roundtrip substrate (Lemma 2).

Re-implementation of the Roditty-Thorup-Zwick SODA'02 scheme from its
defining properties (see DESIGN.md, substitutions):

* landmarks ``A`` (about ``sqrt(n)`` of them); per landmark ``c`` a
  full in-pointer structure (optimal ``x -> c``) and out-tree (optimal
  ``c -> x`` by interval routing).  The in-pointers of all landmarks
  come from one
  :meth:`~repro.graph.shortest_paths.DistanceOracle.in_tree_rows` call,
  the out-trees' DFS intervals from one
  :func:`~repro.tree_routing.fixed_port.tree_intervals` call;
* clusters ``C(v) = {u : r(u, v) < r(v, A)}``; every member stores a
  direct next-hop for ``v`` along the canonical shortest path.  The
  cluster is closed under shortest-path suffixes, so hop-by-hop direct
  forwarding is well defined (checked on every build and rehydrate);
* the label ``R3(v) = (v, a(v), addr_{OutTree(a(v))}(v))`` of
  ``O(log n)`` bits.

Every table is held once, as arrays: the compiled engine
(:func:`~repro.runtime.engine.compile_substrate_tables`) and the python
reference engine (:meth:`RTZStretch3.leg_step`) read the same ones.

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConstructionError, TableLookupError
from repro.graph.csr import edge_ports, port_heads
from repro.graph.roundtrip import RoundtripMetric
from repro.rtz.centers import (
    CenterAssignment,
    check_cluster_closure,
    sample_centers,
)
from repro.tree_routing.fixed_port import TreeAddress, id_bits, tree_intervals

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

    Landmark ``i`` is ``centers[i]``; every per-landmark array has one
    row per landmark in that order, and the out-tree addresses carry
    ``i`` as their ``tree_id``.
    """

    def __init__(
        self,
        metric: RoundtripMetric,
        rng: Optional[random.Random] = None,
        center_count: Optional[int] = None,
    ):
        oracle = metric.oracle
        self._metric = metric
        self.assignment = CenterAssignment(
            metric, sample_centers(oracle.n, rng, center_count)
        )
        # direct tables: u in C(v) stores the port toward v, sorted by (u, v)
        u, v = self.assignment.cluster_pairs()
        nxt = oracle.next_hops(u, v)
        self._build(
            oracle.in_tree_rows(self.assignment.centers),
            u * oracle.n + v,
            nxt,
            edge_ports(oracle.graph, u, nxt),
        )

    def _build(
        self,
        in_succ: np.ndarray,
        direct_keys: np.ndarray,
        direct_next: np.ndarray,
        direct_port: np.ndarray,
    ) -> None:
        """Derive every table from the in-tree successor rows, the
        direct entries and the oracle's out-trees, checking each.

        Raises:
            ConstructionError: on an in-tree or out-tree edge missing
                from the graph, a vertex cut off from a landmark,
                unsorted direct entries, or a cluster-closure violation.
        """
        oracle = self._metric.oracle
        g = oracle.graph
        n = self._n = g.n
        centers = np.asarray(self.assignment.centers, dtype=np.int64)
        count = centers.shape[0]
        vertex = np.arange(n, dtype=np.int64)

        # in-trees: each vertex's successor toward every landmark
        in_succ = np.asarray(in_succ, dtype=np.int64)
        if in_succ.shape != (count, n):
            raise ConstructionError(
                f"in-tree rows have shape {in_succ.shape}, expected {(count, n)}"
            )
        tail = np.broadcast_to(vertex, in_succ.shape)
        ptr = tail != centers[:, None]
        in_port = np.full(in_succ.shape, -1, dtype=np.int64)
        in_port[ptr] = edge_ports(g, tail[ptr], in_succ[ptr])
        if (in_port[ptr] < 0).any():
            ci, x = np.argwhere(ptr & (in_port < 0))[0]
            raise ConstructionError(
                f"in-tree edge ({x}, {in_succ[ci, x]}) toward landmark "
                f"{centers[ci]} not present in the digraph"
            )
        self._in_succ = in_succ
        self._in_port = in_port

        # out-trees: the landmarks' canonical parent rows, numbered at once
        parent = oracle.parent_rows(centers)
        dfs, end = tree_intervals(g, parent, centers)
        ci, x = np.nonzero(ptr)
        p = parent[ci, x].astype(np.int64)
        row_keys = (ci * n + p) * n + dfs[ci, x]
        order = np.argsort(row_keys)
        self._out_parent = parent
        self._row_keys = row_keys[order]
        self._row_hi = end[ci, x][order]
        self._row_port = edge_ports(g, p, x)[order]

        # direct entries
        direct_keys = np.asarray(direct_keys, dtype=np.int64)
        if (direct_keys[1:] <= direct_keys[:-1]).any():
            raise ConstructionError("direct entries are not sorted by (u, v)")
        check_cluster_closure(n, direct_keys, direct_next)
        self._direct_keys = direct_keys
        self._direct_next = np.asarray(direct_next, dtype=np.int64)
        self._direct_port = np.asarray(direct_port, dtype=np.int64)

        home = np.asarray(self.assignment._home, dtype=np.int64)
        self._home_idx = np.searchsorted(centers, home)
        self._labels: List[R3Label] = [
            R3Label(dest=v, center=c, addr=TreeAddress(i, d))
            for v, (c, i, d) in enumerate(zip(
                home.tolist(),
                self._home_idx.tolist(),
                dfs[self._home_idx, vertex].tolist(),
            ))
        ]
        # rows per node: direct entries, in-pointers, 2 + 3 per child
        # row in every out-tree, and its own label
        self._entries: List[int] = (
            np.bincount(direct_keys // n, minlength=n)
            + np.count_nonzero(in_port >= 0, axis=0)
            + 2 * count
            + 3 * np.bincount(p, minlength=n)
            + 3
        ).tolist()

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

    def _direct_at(self, u: int, v: int) -> int:
        """Position of ``u``'s direct entry for ``v``, or ``-1``."""
        key = u * self._n + v
        keys = self._direct_keys
        pos = keys.searchsorted(key)
        return pos if pos < keys.shape[0] and keys.item(pos) == key else -1

    def has_direct(self, u: int, v: int) -> bool:
        """Whether ``u`` stores a direct next-hop for ``v``."""
        return self._direct_at(u, v) >= 0

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
            pos = self._direct_at(at, label.dest)
            if pos < 0:
                raise TableLookupError(
                    f"direct entry for {label.dest} missing at {at} "
                    "(cluster closure violated?)"
                )
            return self._direct_port.item(pos), DIRECT
        tree = label.addr.tree_id
        if mode == TO_CENTER:
            if at == label.center:
                mode = DOWN_TREE
            else:
                port = self._in_port.item(tree, at)
                if port < 0:
                    raise TableLookupError(
                        f"vertex {at} has no pointer toward root {label.center}"
                    )
                return port, TO_CENTER
        if mode == DOWN_TREE:
            # the child row at ``at`` whose interval holds the target
            n = self._n
            node = tree * n + at
            dfs = label.addr.dfs
            pos = self._row_keys.searchsorted(node * n + dfs, side="right") - 1
            if (
                pos < 0
                or self._row_keys.item(pos) // n != node
                or dfs >= self._row_hi.item(pos)
            ):
                raise TableLookupError(
                    f"target dfs {dfs} not under vertex {at} in tree {tree}"
                )
            return self._row_port.item(pos), DOWN_TREE
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
        computations (in-tree successors from the in-tree kernel,
        direct ports from the cluster scan, sorted by ``(u, v)``).
        Out-trees and labels are *not* serialized — :meth:`from_arrays`
        re-derives them from the oracle's canonical forward trees with
        one :func:`~repro.tree_routing.fixed_port.tree_intervals` call.
        """
        n = self._n
        return {
            "centers": np.asarray(self.assignment.centers, dtype=np.int64),
            "home": np.asarray(self.assignment._home, dtype=np.int64),
            "r_to_a": np.asarray(self.assignment._r_to_a, dtype=np.float64),
            "in_succ": self._in_succ,
            "direct_u": self._direct_keys // n,
            "direct_v": self._direct_keys % n,
            "direct_port": self._direct_port,
        }

    @classmethod
    def from_arrays(
        cls, metric: RoundtripMetric, arrays: Dict[str, np.ndarray]
    ) -> "RTZStretch3":
        """Rehydrate a substrate from :meth:`to_arrays` output.

        Skips the in-tree kernel and the O(n^2) cluster scan; each
        direct entry's next vertex is read back through its stored
        port.  The out-tree intervals and labels are re-derived as the
        constructor derives them, and the same checks run, so an
        inconsistent entry raises :class:`ConstructionError` (the store
        then quarantines it and rebuilds).  The result is bit-identical
        to a fresh build.
        """
        self = cls.__new__(cls)
        self._metric = metric
        g = metric.oracle.graph
        self.assignment = CenterAssignment.restore(
            metric, arrays["centers"], arrays["home"], arrays["r_to_a"]
        )
        u = np.asarray(arrays["direct_u"], dtype=np.int64)
        port = np.asarray(arrays["direct_port"], dtype=np.int64)
        nxt = port_heads(g, u, port)
        if (nxt < 0).any():
            i = int(np.flatnonzero(nxt < 0)[0])
            raise ConstructionError(
                f"stored direct port {port[i]} does not exist at vertex {u[i]}"
            )
        self._build(
            arrays["in_succ"],
            u * g.n + np.asarray(arrays["direct_v"], dtype=np.int64),
            nxt,
            port,
        )
        return self

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def table_entries(self, u: int) -> int:
        """Rows stored at ``u``: direct entries, per-landmark pointers
        and interval rows, plus its own label."""
        return self._entries[u]

    def expected_entry_bound(self) -> float:
        """The ``~O(sqrt(n))`` shape: ``c * sqrt(n) * log(n)`` with a
        generous constant, used by size benchmarks."""
        n = self._metric.n
        return 12.0 * math.sqrt(n) * max(1.0, math.log2(n))
