"""Compiled vectorized routing execution (the batched fast path).

The hop-by-hop :class:`~repro.runtime.simulator.Simulator` is the
reference semantics: one ``forward()`` call per packet per hop, dict
headers, Python everywhere.  Under traffic that is the last scalar
bottleneck — a workload of ``10^5`` journeys executes ``10^6+``
interpreted forwarding decisions.

This module *compiles* a built scheme's forwarding function into
numpy decision tables over the graph's CSR snapshot and executes whole
workloads as **frontier sweeps**: every in-flight packet advances one
hop per sweep via array gathers, so the per-hop cost is a few vector
operations amortized over the batch instead of a Python call.

The compilation contract
------------------------

A scheme opts in by implementing
:meth:`~repro.runtime.scheme.RoutingScheme.compile_tables`, returning a
:class:`CompiledRoutes`:

* ``tables`` — a :class:`StepTables` giving the *within-leg* decision
  function as lookups ``table[at, target]`` of the hop's **CSR
  out-edge slot**, the compiled form of the port the scheme forwards
  on: an index into the graph's :class:`~repro.graph.csr.CSRGraph`
  ``out_heads``/``out_weights``, so the sweep reads each hop's next
  vertex and weight with two gathers (entries are converted once, at
  compile time, by :func:`~repro.graph.csr.edge_slots`);
* ``plan(sources, dests)`` — a :class:`JourneyPlan` describing each
  journey as two legs (outbound, acknowledgment), each a short list of
  :class:`Segment` s (e.g. ``s -> dictionary node``, then
  ``dictionary node -> t``) with the per-segment forwarded-header bit
  size precomputed from representative headers.

This covers every scheme whose header changes only at segment
boundaries (waypoints), so every registered scheme compiles:

* the stretch-6 family and the RTZ baseline route each segment over
  the Lemma 2 substrate (:class:`SubstrateStepTables`);
* ExStretch and PolynomialStretch route each segment inside one
  Theorem 13 double tree, named per packet by the segment's ``tree``
  (:class:`DoubleTreeStepTables`, over the hierarchy's own tables):
  up the in-pointers to the root, then down the out-tree by Lemma 14
  interval rows.  Their growing waypoint stacks change the header
  only at waypoints, so each segment's bit size is fixed by the stack
  depth at plan time.

A leg normally ends when its last segment reaches its target.  A plan
may flag a leg (:attr:`JourneyPlan.ends_on_arrival`) to end the first
time the packet *stands on* the leg's last target, even mid-segment:
ExStretch's acknowledgment delivers whenever it walks over the
source, whatever is still on its stack.

A scheme whose ``compile_tables`` returns ``None`` runs on the Python
simulator; ``engine="auto"`` resolves to it only then.

Bit-identical by construction
-----------------------------

The executor reproduces the reference semantics *exactly* — paths,
float costs (same per-packet addition order), hop counts, max header
bits, and :class:`~repro.exceptions.HopLimitExceeded` behaviour — and
``tests/test_engine_differential.py`` asserts that equivalence for
every registered scheme on every workload kind.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    ConstructionError,
    HopLimitExceeded,
    RoutingError,
    TableLookupError,
)
from repro.graph.csr import CSRGraph, PairTable, edge_slots
from repro.graph.digraph import Digraph
from repro.runtime.simulator import (  # noqa: F401  (re-export)
    EXECUTION_ENGINES,
    LegTrace,
    RoundtripTrace,
    TraceBatch,
)

#: substrate leg phases (mirror repro.rtz.routing's DIRECT/TO_CENTER/
#: DOWN_TREE leg modes)
PHASE_DIRECT = 0
PHASE_UP = 1
PHASE_DOWN = 2

# ----------------------------------------------------------------------
# step tables: the compiled within-leg decision function
# ----------------------------------------------------------------------
class StepTables:
    """Vectorized within-leg forwarding over CSR out-edge slot tables.

    Subclasses implement :meth:`begin_phase` (the segment's first
    decision mode, mirroring the scheme's ``begin_leg``) and
    :meth:`step` (one forwarding decision for a batch of packets *not
    yet at their target*).  ``tree`` is the per-packet tree index of
    the current segment (:attr:`Segment.tree`), or ``None`` when the
    plan names no trees; tables that route without trees ignore it."""

    def begin_phase(
        self,
        at: np.ndarray,
        target: np.ndarray,
        tree: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Initial phase for packets starting a segment at ``at``
        toward ``target`` (int8 array)."""
        raise NotImplementedError

    def step(
        self,
        at: np.ndarray,
        target: np.ndarray,
        phase: np.ndarray,
        tree: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One decision per packet: ``(slot, new_phase)``, ``slot`` the
        CSR out-edge slot the packet leaves ``at`` by (its next vertex
        is ``out_heads[slot]``, the hop's cost ``out_weights[slot]``).

        Raises:
            TableLookupError: when any packet has no table entry (the
                compiled analogue of the scheme's own lookup errors).
        """
        raise NotImplementedError


def hop_slots(graph: Digraph, tails, heads) -> np.ndarray:
    """Compile next-vertex entries to int32 CSR out-edge slots: the slot
    of edge ``tails[i] -> heads[i]``, and ``-1`` where ``heads[i]`` is
    ``-1`` (no entry).  Any array shape; one vectorized lookup.

    Raises:
        ConstructionError: for an entry that names no edge of ``graph``.
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    slots = edge_slots(graph, tails, heads)
    missing = (slots < 0) & (heads >= 0)
    if missing.any():
        tail, head = np.broadcast_arrays(tails, heads)
        i = np.argwhere(missing)[0]
        raise ConstructionError(
            f"compiled entry names no edge: ({int(tail[tuple(i)])}, "
            f"{int(head[tuple(i)])}) is not in the digraph"
        )
    return slots.astype(np.int32)


class NextHopTable(StepTables):
    """Next-hop step tables of full-table forwarding: ``slots[u, target]``
    is the CSR out-edge slot of the hop from ``u`` toward ``target``
    (``-1`` where there is none), one ``(n, n)`` int32 matrix read with
    one gather.  Full-table routing is n² by definition, so this is the
    matrix the scheme's own ``forward`` reads, at every graph size."""

    def __init__(self, slots: np.ndarray):
        self.slots = slots

    def begin_phase(self, at, target, tree=None) -> np.ndarray:
        return np.zeros(at.shape[0], dtype=np.int8)

    def step(self, at, target, phase, tree=None):
        slot = self.slots[at, target]
        if (slot < 0).any():
            bad = int(np.flatnonzero(slot < 0)[0])
            raise TableLookupError(
                f"no compiled next hop at vertex {int(at[bad])} toward "
                f"{int(target[bad])}"
            )
        return slot, phase


class SubstrateStepTables(StepTables):
    """Compiled Lemma 2 substrate legs (direct / up-tree / down-tree).

    Every entry is the CSR out-edge slot of the hop (see
    :func:`hop_slots`), and ``-1`` where there is no entry.
    ``direct_slot`` and ``down_slot`` are ``(n, n)`` int32 matrices read
    as ``table[at, target]`` with one gather: an executor index of
    8n² bytes beside an oracle that holds 20 bytes per pair, not the
    per-node tables the paper's space bounds count (those are the
    substrate's own arrays, which ``table_report()`` and the python
    engine read).

    Attributes:
        direct_slot: the hop on the direct (cluster) path toward
            ``target``; present exactly when ``target`` is in ``at``'s
            cluster, the membership test ``begin_leg`` makes (Θ(n·√n)
            entries for the balanced RTZ clusters).
        up_slot: ``(n, C)`` int32 — the hop toward landmark (column =
            landmark index), ``-1`` at the landmark itself.
        down_slot: the hop from ``at`` toward ``target`` inside
            ``OutTree(center(target))``; only slots on canonical
            ``center -> target`` paths are populated (O(n · avg path
            length) entries).
        center_of: ``(n,)`` int32 — ``a(v)``, the home landmark vertex.
        center_idx: ``(n,)`` int32 — column of ``a(v)`` in ``up_slot``.
    """

    def __init__(
        self,
        direct_slot: np.ndarray,
        up_slot: np.ndarray,
        down_slot: np.ndarray,
        center_of: np.ndarray,
        center_idx: np.ndarray,
    ):
        self.direct_slot = direct_slot
        self.up_slot = up_slot
        self.down_slot = down_slot
        self.center_of = center_of
        self.center_idx = center_idx

    def begin_phase(self, at, target, tree=None) -> np.ndarray:
        direct = (at == target) | (self.direct_slot[at, target] >= 0)
        at_center = at == self.center_of[target]
        return np.where(
            direct, PHASE_DIRECT, np.where(at_center, PHASE_DOWN, PHASE_UP)
        ).astype(np.int8)

    def step(self, at, target, phase, tree=None):
        # TO_CENTER flips to DOWN_TREE on arrival at the landmark,
        # within the same decision (exactly as leg_step does).
        center = self.center_of[target]
        phase = np.where(
            (phase == PHASE_UP) & (at == center), PHASE_DOWN, phase
        ).astype(np.int8)
        slot = np.where(
            phase == PHASE_DIRECT,
            self.direct_slot[at, target],
            np.where(
                phase == PHASE_UP,
                self.up_slot[at, self.center_idx[target]],
                self.down_slot[at, target],
            ),
        )
        if (slot < 0).any():
            bad = int(np.flatnonzero(slot < 0)[0])
            raise TableLookupError(
                f"no compiled substrate entry at vertex {int(at[bad])} "
                f"toward {int(target[bad])} (phase {int(phase[bad])})"
            )
        return slot, phase


def compile_substrate_tables(substrate) -> SubstrateStepTables:
    """Compile an :class:`~repro.rtz.routing.RTZStretch3` substrate's
    three forwarding structures into step tables.

    Every table comes from the substrate's arrays, its next vertices
    converted to slots once (:func:`hop_slots`): ``up_slot`` is its
    in-tree successor rows transposed, ``direct_slot`` its direct
    entries, and ``down_slot`` one walk of every ``v`` up its home
    landmark's parent row, all at once, each scattered into an
    ``(n, n)`` matrix.

    The result is cached on the substrate (``_compiled_step_tables``),
    so every scheme sharing one substrate (stretch-6, its variant, wild
    names, the RTZ baseline — all reading one
    :class:`~repro.api.network.Network`'s ``rtz`` artifact) compiles
    it once.
    """
    cached = getattr(substrate, "_compiled_step_tables", None)
    if cached is not None:
        return cached
    graph = substrate.metric.oracle.graph
    n = graph.n
    home_idx = substrate._home_idx
    centers = np.asarray(substrate.centers, dtype=np.int64)
    home = centers[home_idx]
    parent = substrate._out_parent

    def slot_matrix(keys: np.ndarray, heads) -> np.ndarray:
        """An ``(n, n)`` matrix holding, at each entry ``[u, v]`` keyed
        ``u * n + v``, the slot of the hop from ``u`` to the matching
        ``heads`` vertex; every other pair reads ``-1``.  The slots come
        first, so their temporaries are freed before the matrix exists."""
        slots = hop_slots(graph, keys // n, heads)
        mat = np.full((n, n), -1, dtype=np.int32)
        mat.reshape(-1)[keys] = slots
        return mat

    # Down-tree entries are only ever consulted on canonical
    # center(v) -> v paths, so populate exactly those: walking up from
    # v, each parent's entry toward v is the hop to the vertex below it.
    at = np.arange(n, dtype=np.int64)
    down_keys, below = [at[:0]], [at[:0]]
    walking = np.flatnonzero(at != home)
    while walking.size:
        above = parent[home_idx[walking], at[walking]].astype(np.int64)
        down_keys.append(above * n + walking)
        below.append(at[walking])
        at[walking] = above
        walking = walking[above != home[walking]]

    step = substrate._compiled_step_tables = SubstrateStepTables(
        slot_matrix(substrate._direct_keys, substrate._direct_next),
        np.ascontiguousarray(
            hop_slots(graph, np.arange(n)[None, :], substrate._in_succ).T
        ),
        slot_matrix(np.concatenate(down_keys), np.concatenate(below)),
        home.astype(np.int32),
        home_idx.astype(np.int32),
    )
    return step


class DoubleTreeStepTables(StepTables):
    """Compiled Theorem 13 double-tree hops (Sections 3 and 4).

    A segment toward ``target`` inside tree ``tree`` goes up the tree's
    in-pointers to its root, then down the out-tree by the Lemma 14
    child-interval rows: the decisions of
    :meth:`~repro.covers.double_tree.DoubleTreeTables.next_port` for a
    whole batch, read from the same arrays, the hierarchy's ``trees``
    (:attr:`~repro.covers.hierarchy.TreeHierarchy.tables`), at every
    step.  Rows are found by binary search over their sorted keys, so
    this one storage serves every graph size.
    """

    def __init__(self, trees):
        self.trees = trees

    def begin_phase(self, at, target, tree=None) -> np.ndarray:
        return np.where(
            at == self.trees.root[tree], PHASE_DOWN, PHASE_UP
        ).astype(np.int8)

    def _down(self, at, target, tree) -> np.ndarray:
        """The slot of the hop to the child of ``at`` whose interval
        holds ``target``'s DFS number (``-1`` where there is none)."""
        t = self.trees
        n = t.n
        d = PairTable(n, t.dfs_keys, t.dfs)[tree, target]
        node = tree * n + at
        pos = np.searchsorted(t.row_keys, node * n + d, side="right") - 1
        ok = (d >= 0) & (pos >= 0)
        np.maximum(pos, 0, out=pos)
        ok &= (t.row_keys[pos] // n == node) & (d < t.row_hi[pos])
        return np.where(ok, t.row_slot[pos], -1)

    def step(self, at, target, phase, tree=None):
        t = self.trees
        # UP flips to DOWN at the root within the same decision, as in
        # DoubleTreeTables.next_port.
        phase = np.where(
            (phase == PHASE_UP) & (at == t.root[tree]), PHASE_DOWN, phase
        ).astype(np.int8)
        up = phase == PHASE_UP
        slot = np.empty(at.shape[0], dtype=np.int64)
        slot[up] = PairTable(t.n, t.up_keys, t.up_slot)[tree[up], at[up]]
        down = ~up
        slot[down] = self._down(at[down], target[down], tree[down])
        if (slot < 0).any():
            bad = int(np.flatnonzero(slot < 0)[0])
            raise TableLookupError(
                f"no compiled tree entry at vertex {int(at[bad])} toward "
                f"{int(target[bad])} in tree "
                f"{int(t.tree_ids[tree[bad]])} (phase {int(phase[bad])})"
            )
        return slot, phase


# ----------------------------------------------------------------------
# journey plans
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """One within-leg stage of a batch of journeys.

    Attributes:
        target: ``(B,)`` int64 per-packet segment endpoint; ``-1``
            marks packets that skip this segment entirely (e.g. no
            dictionary detour needed).
        fwd_bits: ``(B,)`` int64 bit size of the header attached to
            every ``Forward`` decision made during this segment.
        tree: optional ``(B,)`` int64 per-packet tree index the
            segment routes in (:class:`DoubleTreeStepTables`); ``None``
            for tables that route without trees.
    """

    target: np.ndarray
    fwd_bits: np.ndarray
    tree: Optional[np.ndarray] = None


@dataclass
class JourneyPlan:
    """A compiled batch: two legs (outbound, acknowledgment), each a
    list of segments, plus each leg's *initial* header bit size (the
    header as injected / as returned by the destination host, measured
    before any forwarding decision).

    Every packet has at least one present segment per leg; a leg's
    *last target* is the target of its last present segment.
    ``ends_on_arrival[leg]`` ends that leg the first time the packet
    stands on its last target, even mid-segment (default: never)."""

    legs: List[List[Segment]]
    leg_init_bits: List[np.ndarray]
    ends_on_arrival: Optional[Sequence[bool]] = None


class CompiledRoutes:
    """What :meth:`RoutingScheme.compile_tables` returns.

    Args:
        graph: the scheme's (frozen) digraph.
        tables: the within-leg step tables.
        planner: ``(sources, dest_vertices) -> JourneyPlan`` over int64
            vertex arrays.
    """

    def __init__(self, graph: Digraph, tables: StepTables, planner):
        self.graph = graph
        self.tables = tables
        self._planner = planner

    def plan(self, sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
        """Compile a batch of (source, dest-vertex) pairs."""
        return self._planner(sources, dests)


def constant_bits(value: int, batch: int) -> np.ndarray:
    """Broadcast one representative-header bit size over a batch."""
    return np.full(batch, int(value), dtype=np.int64)


# ----------------------------------------------------------------------
# the frontier-sweep executor
# ----------------------------------------------------------------------
def _flatten_plan(plan: JourneyPlan, batch: int):
    """Compact a plan's ``(segments, batch)`` rows into one flat,
    packet-major list of *present* segments.

    Returns ``(target, bits, tree, stop)``: per flat segment its
    target, forwarded-header bits and tree index (``tree`` is ``None``
    when no segment names one), and ``stop[leg, p]``, the flat index one
    past packet ``p``'s last segment of ``leg``.  Packet ``p``'s
    segments occupy ``[stop[-1, p - 1], stop[-1, p])`` in leg order.
    """
    rows = [seg for leg in plan.legs for seg in leg]
    leg_of_row = np.array(
        [li for li, leg in enumerate(plan.legs) for _ in leg], dtype=np.int64
    )
    target = np.stack([seg.target for seg in rows], axis=1).astype(np.int64)
    present = target >= 0
    counts = np.stack(
        [present[:, leg_of_row == li].sum(axis=1)
         for li in range(len(plan.legs))],
        axis=1,
    )
    if (counts == 0).any():
        raise RoutingError("compiled plan gives a packet a leg with no segment")
    bits = np.stack([seg.fwd_bits for seg in rows], axis=1).astype(np.int64)
    tree = None
    if any(seg.tree is not None for seg in rows):
        no_tree = np.full(batch, -1, dtype=np.int64)
        tree = np.stack(
            [no_tree if seg.tree is None else seg.tree for seg in rows], axis=1
        ).astype(np.int64)[present]
    stop = np.cumsum(counts.reshape(-1)).reshape(counts.shape).T
    return target[present], bits[present], tree, stop


def run_roundtrips(
    compiled: CompiledRoutes,
    pairs: "np.ndarray | Sequence[Tuple[int, int]]",
    hop_limit: int,
    scheme_name: str = "?",
) -> TraceBatch:
    """Execute a batch of roundtrips against compiled tables.

    All in-flight packets advance one hop per sweep; per-packet leg
    cost/hop/header-bit accounting reproduces the Python simulator
    bit-for-bit (see the module docstring).

    Args:
        compiled: the scheme's compiled routes.
        pairs: ``(source_vertex, dest_vertex)`` pairs; a ``(B, 2)``
            int64 array (what :func:`~repro.runtime.traffic.check_pairs`
            returns) is used without converting it again, any other
            sequence is converted once.
        hop_limit: per-leg hop budget (same contract as the simulator:
            a leg may make at most ``hop_limit + 1`` forwarding
            decisions before :class:`HopLimitExceeded`).
        scheme_name: label used in error messages.

    Returns:
        A :class:`TraceBatch`: one :class:`RoundtripTrace` per pair, in
        input order, and the per-pair columns.  The columns come from
        the sweep itself; the hop-by-hop paths are built from the sweep
        log only when some trace's legs are first read.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    batch = pairs.shape[0]
    if batch == 0:
        return TraceBatch()
    sources, dests = pairs.T.copy()  # the caller's array stays untouched
    plan = compiled.plan(sources, dests)
    tables = compiled.tables
    # Each decision is a CSR out-edge slot: the hop's head and its
    # weight (the float64 Digraph.weight returns, added in the same
    # per-packet order as the simulator) are two gathers.
    csr = CSRGraph.from_digraph(compiled.graph)
    heads, weights = csr.out_heads, csr.out_weights

    num_legs = len(plan.legs)
    seg_target, seg_bits, seg_tree, stop = _flatten_plan(plan, batch)
    # Each leg's last target (the Python simulator's ``expect_end``):
    # hop-limit errors name the failing *leg*'s endpoints exactly as
    # _run_leg does, and flagged legs end on standing there.
    leg_end = seg_target[stop - 1]
    ends_on_arrival = np.zeros(num_legs, dtype=bool)
    if plan.ends_on_arrival is not None:
        ends_on_arrival[:] = plan.ends_on_arrival
    early = bool(ends_on_arrival.any())
    init_bits = np.stack(plan.leg_init_bits).astype(np.int64)

    cur = np.concatenate(([0], stop[-1, :-1]))  # flat segment per packet
    cur_leg = np.zeros(batch, dtype=np.int64)
    at = sources.copy()
    active = np.ones(batch, dtype=bool)

    leg_cost = np.zeros(batch, dtype=np.float64)
    leg_hops = np.zeros(batch, dtype=np.int64)
    leg_bits = init_bits[0].copy()

    out_cost = np.zeros((num_legs, batch), dtype=np.float64)
    out_hops = np.zeros((num_legs, batch), dtype=np.int64)
    out_bits = np.zeros((num_legs, batch), dtype=np.int64)
    leg_start = np.zeros((num_legs, batch), dtype=np.int64)
    leg_start[0] = sources

    # Path log: per sweep, the packets that stepped and where to.  Each
    # packet's steps come in sweep order, its legs one after another.
    log_idx: List[np.ndarray] = []
    log_vert: List[np.ndarray] = []

    def trees(c: np.ndarray) -> Optional[np.ndarray]:
        return None if seg_tree is None else seg_tree[c]

    def aim(p: np.ndarray) -> None:
        c = cur[p]
        phase[p] = tables.begin_phase(at[p], seg_target[c], trees(c))

    # Aim every packet at its first segment.
    phase = np.zeros(batch, dtype=np.int8)
    aim(np.arange(batch))
    failed = np.full(batch, -1, dtype=np.int64)  # leg id at failure

    while True:
        # --- hop budget: the simulator allows a leg at most
        # ``hop_limit + 1`` forwarding decisions; a packet that has
        # forwarded hop_limit + 1 times without delivering is a loop
        # (even if its last hop happened to land on the target).  The
        # sequential reference raises for the first *input-order* pair
        # that loops (later pairs never run), so park failed packets
        # and keep sweeping — the raise below picks the same pair.
        over = active & (leg_hops > hop_limit)
        if over.any():
            failed[over] = cur_leg[over]
            active &= ~over
        # --- segment/leg transitions: packets sitting at their current
        # segment's endpoint (or, on a flagged leg, at the leg's last
        # target) advance without consuming a hop, exactly like the
        # scheme's same-call header reprocessing at a waypoint.
        while True:
            ap = np.flatnonzero(active)
            arrived = seg_target[cur[ap]] == at[ap]
            if early:
                lg = cur_leg[ap]
                ends = ends_on_arrival[lg] & (at[ap] == leg_end[lg, ap])
                arrived |= ends
            if not arrived.any():
                break
            pend = ap[arrived]
            lg = cur_leg[pend]
            leg_stop = stop[lg, pend]
            nxt_seg = cur[pend] + 1
            if early:
                nxt_seg = np.where(ends[arrived], leg_stop, nxt_seg)
            cur[pend] = nxt_seg
            crossed = nxt_seg == leg_stop
            if crossed.any():
                cp = pend[crossed]
                old_leg = lg[crossed]
                out_cost[old_leg, cp] = leg_cost[cp]
                out_hops[old_leg, cp] = leg_hops[cp]
                out_bits[old_leg, cp] = leg_bits[cp]
                new_leg = old_leg + 1
                finished = new_leg >= num_legs
                active[cp[finished]] = False
                open_p = cp[~finished]
                if open_p.shape[0]:
                    olids = new_leg[~finished]
                    cur_leg[open_p] = olids
                    leg_cost[open_p] = 0.0
                    leg_hops[open_p] = 0
                    leg_bits[open_p] = init_bits[olids, open_p]
                    leg_start[olids, open_p] = at[open_p]
            # Re-aim packets that advanced into a live segment.
            moved = pend[active[pend]]
            if moved.shape[0]:
                aim(moved)
        if not ap.shape[0]:
            break
        # --- one synchronized hop for every in-flight packet.
        c = cur[ap]
        here = at[ap]
        slot, new_phase = tables.step(here, seg_target[c], phase[ap], trees(c))
        nxt = heads[slot]
        leg_cost[ap] += weights[slot]
        leg_hops[ap] += 1
        leg_bits[ap] = np.maximum(leg_bits[ap], seg_bits[c])
        log_idx.append(ap)
        log_vert.append(nxt)
        at[ap] = nxt
        phase[ap] = new_phase

    if (failed >= 0).any():
        p = int(np.flatnonzero(failed >= 0)[0])
        li = int(failed[p])
        raise HopLimitExceeded(
            f"scheme {scheme_name} exceeded {hop_limit} hops routing "
            f"from {int(leg_start[li, p])} to {int(leg_end[li, p])} (loop?)"
        )
    paths = _SweepPaths(sources, out_cost, out_hops, out_bits, log_idx, log_vert)
    return TraceBatch(
        [RoundtripTrace.in_batch(paths, i) for i in range(batch)],
        (paths.cost, paths.hops, paths.max_header_bits),
    )


class _SweepPaths:
    """One batch's per-pair columns, and its sweep log turned into
    hop-by-hop legs on first read.

    The columns are computed from the sweep's leg totals: ``cost`` adds
    the outbound and inbound leg costs (as
    :attr:`RoundtripTrace.total_cost` adds them), ``hops`` their hop
    counts, ``max_header_bits`` takes the larger leg maximum.  The first
    :meth:`legs` call lays every packet's path out in one flat array,
    under a lock, and drops the log; each trace's
    :class:`LegTrace` pair is then made once, on its first read.
    """

    def __init__(
        self,
        sources: np.ndarray,
        leg_cost: np.ndarray,
        leg_hops: np.ndarray,
        leg_bits: np.ndarray,
        log_idx: List[np.ndarray],
        log_vert: List[np.ndarray],
    ):
        self.cost = leg_cost[0] + leg_cost[1]
        self.hops = leg_hops[0] + leg_hops[1]
        self.max_header_bits = np.maximum(leg_bits[0], leg_bits[1])
        self._sources = sources
        self._leg_cost = leg_cost
        self._leg_hops = leg_hops
        self._leg_bits = leg_bits
        self._log: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = (
            log_idx, log_vert,
        )
        self._lock = threading.Lock()
        self._legs: List[Optional[Tuple[LegTrace, LegTrace]]] = [None] * len(
            self.cost
        )

    def legs(self, i: int) -> Tuple[LegTrace, LegTrace]:
        """Packet ``i``'s ``(outbound, inbound)`` legs, the same objects
        on every call."""
        legs = self._legs[i]
        if legs is None:
            with self._lock:
                if self._log is not None:
                    self._lay_out()
                legs = self._legs[i]
                if legs is None:
                    lo, mid, hi = self._spans[i]
                    verts = self._verts
                    legs = self._legs[i] = (
                        LegTrace(verts[lo:mid], *self._out[i]),
                        LegTrace(verts[mid:hi], *self._in[i]),
                    )
        return legs

    def _lay_out(self) -> None:
        """Every packet's two paths, back to back in one flat list:
        packet ``p`` holds ``[bounds[p], mid[p])`` (outbound, from its
        source) and ``[mid[p], bounds[p + 1])`` (inbound, from where
        the outbound leg ended).  A stable sort of the log by packet
        keeps each packet's steps in sweep order."""
        log_idx, log_vert = self._log
        h_out, h_in = self._leg_hops
        batch = h_out.shape[0]
        steps = h_out + h_in
        packet = np.concatenate(log_idx)
        order = np.argsort(packet, kind="stable")
        packet = packet[order]
        first = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(steps, out=first[1:])
        bounds = first + 2 * np.arange(batch + 1)
        # step j of packet p lands after its source, and after the
        # repeated inbound start once it is an inbound step
        rank = np.arange(packet.shape[0]) - first[packet]
        slot = bounds[packet] + 1 + rank + (rank >= h_out[packet])
        verts = np.empty(int(bounds[-1]), dtype=np.int64)
        verts[slot] = np.concatenate(log_vert)[order]
        verts[bounds[:-1]] = self._sources
        mid = bounds[:-1] + 1 + h_out
        verts[mid] = verts[mid - 1]
        self._verts = verts.tolist()
        self._spans = list(
            zip(bounds[:-1].tolist(), mid.tolist(), bounds[1:].tolist())
        )
        costs, bits = self._leg_cost.tolist(), self._leg_bits.tolist()
        self._out = list(zip(costs[0], bits[0]))
        self._in = list(zip(costs[1], bits[1]))
        self._log = None
