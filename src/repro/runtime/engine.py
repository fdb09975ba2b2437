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
  function as next-vertex lookups ``table[at, target]`` (ports
  resolved through ``head_of_port`` at compile time); the table family
  only decides how each table stores its entries (:data:`TABLE_FAMILIES`);
* ``plan(sources, dests)`` — a :class:`JourneyPlan` describing each
  journey as two legs (outbound, acknowledgment), each a short list of
  :class:`Segment` s (e.g. ``s -> dictionary node``, then
  ``dictionary node -> t``) with the per-segment forwarded-header bit
  size precomputed from representative headers.

This covers every scheme whose headers, between segment boundaries,
carry a *structurally constant* payload (a fixed set of fields whose
bit sizes do not depend on the packet's position).  Schemes with
growing headers — the ExStretch/PolynomialStretch waypoint stacks —
return ``None`` and transparently fall back to the Python simulator.

Bit-identical by construction
-----------------------------

The executor reproduces the reference semantics *exactly* — paths,
float costs (same per-packet addition order), hop counts, max header
bits, and :class:`~repro.exceptions.HopLimitExceeded` behaviour — and
``tests/test_engine_differential.py`` asserts that equivalence for
every registered scheme on every workload kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import HopLimitExceeded, RoutingError, TableLookupError
from repro.graph.csr import CSRGraph, PairTable
from repro.graph.digraph import Digraph
from repro.graph.limits import dense_table_max_n
from repro.runtime.simulator import (  # noqa: F401  (re-export)
    EXECUTION_ENGINES,
    LegTrace,
    RoundtripTrace,
)

#: substrate leg phases (mirror repro.rtz.routing's DIRECT/TO_CENTER/
#: DOWN_TREE leg modes)
PHASE_DIRECT = 0
PHASE_UP = 1
PHASE_DOWN = 2

#: Compiled-table families: ``dense`` stores each step table as
#: ``(n, n)`` matrices, ``blocked`` as row blocks and sorted pair
#: tables with o(n²) memory; ``auto`` picks by graph size.  Both make
#: identical decisions.
TABLE_FAMILIES = ("auto", "dense", "blocked")


def resolve_table_family(tables: str, n: int) -> str:
    """Resolve a ``--tables`` value to a concrete family.

    ``auto`` selects ``dense`` while the graph fits under the
    dense-table threshold (:func:`repro.graph.limits.dense_table_max_n`)
    and ``blocked`` beyond it, so big graphs never trip
    :class:`~repro.exceptions.TableTooLargeError` by default.
    """
    if tables not in TABLE_FAMILIES:
        raise RoutingError(
            f"unknown table family {tables!r}; expected one of "
            f"{', '.join(TABLE_FAMILIES)}"
        )
    if tables == "auto":
        return "dense" if n <= dense_table_max_n() else "blocked"
    return tables


# ----------------------------------------------------------------------
# step tables: the compiled within-leg decision function
# ----------------------------------------------------------------------
class StepTables:
    """Vectorized within-leg forwarding over next-vertex tables.

    Subclasses implement :meth:`begin_phase` (the leg's first decision
    mode, mirroring the scheme's ``begin_leg``) and :meth:`step` (one
    forwarding decision for a batch of packets *not yet at their
    target*)."""

    def begin_phase(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Initial phase for packets starting a leg at ``at`` toward
        ``target`` (int8 array)."""
        raise NotImplementedError

    def step(
        self, at: np.ndarray, target: np.ndarray, phase: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One decision per packet: ``(next_vertex, new_phase)``.

        Raises:
            TableLookupError: when any packet has no table entry (the
                compiled analogue of the scheme's own lookup errors).
        """
        raise NotImplementedError


def _pack_pairs(n: int, chunks, tables: str, dtype):
    """Store a table walk's entries the way the family ``tables`` names.

    ``chunks`` yields ``(keys, values)`` lists, entry ``[u, v]`` keyed
    ``u * n + v`` — its flat index in an ``(n, n)`` matrix.  ``dense``
    writes each chunk into such a matrix as it arrives; ``blocked``
    sorts them all into a :class:`~repro.graph.csr.PairTable`.  Absent
    pairs read ``False`` in a bool table and ``-1`` otherwise, so either
    storage answers ``table[at, target]`` identically.
    """
    missing = False if dtype is bool else -1
    if tables == "dense":
        mat = np.full((n, n), missing, dtype=dtype)
        flat = mat.reshape(-1)
        for keys, values in chunks:
            flat[keys] = values
        return mat
    keys, values = zip(*(
        (np.asarray(k, dtype=np.int64), np.asarray(v, dtype=dtype))
        for k, v in chunks
    ))
    return PairTable.from_entries(
        n, np.concatenate(keys), np.concatenate(values), missing
    )


class BlockedNextHop(StepTables):
    """Next-hop step tables: ``next[u, target]`` is the next vertex
    (full-table schemes; also the looping-stub test doubles).

    The ``(n, n)`` next-vertex matrix is held as row blocks of
    ``block_rows`` sources each; block ``b`` holds rows
    ``[b * block_rows, min(n, (b + 1) * block_rows))``.  Dense storage
    is the one-block case, gathered in one step; blocked storage
    builds and holds one array per block, so no single ``(n, n)``
    array is ever allocated.  Lookups return results in batch order
    either way, so the decision function — values, phases, and the
    first-failure error — does not depend on the block geometry.
    """

    def __init__(self, n: int, block_rows: int, blocks: Sequence[np.ndarray]):
        self.n = int(n)
        self.block_rows = int(block_rows)
        self.blocks = list(blocks)

    def nbytes(self) -> int:
        """Bytes resident across all currently-loaded blocks."""
        return sum(int(blk.nbytes) for blk in self.blocks)

    def begin_phase(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        return np.zeros(at.shape[0], dtype=np.int8)

    def step(
        self, at: np.ndarray, target: np.ndarray, phase: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if len(self.blocks) == 1:
            nxt = self.blocks[0][at, target]
        else:
            nxt = np.empty(at.shape[0], dtype=np.int64)
            bidx = at // self.block_rows
            for b in np.unique(bidx):
                sel = bidx == b
                block = self.blocks[int(b)]
                nxt[sel] = block[at[sel] - int(b) * self.block_rows, target[sel]]
        if (nxt < 0).any():
            bad = int(np.flatnonzero(nxt < 0)[0])
            raise TableLookupError(
                f"no compiled next hop at vertex {int(at[bad])} toward "
                f"{int(target[bad])}"
            )
        return nxt, phase


def compile_next_hop(oracle, tables: str = "dense") -> BlockedNextHop:
    """Next-hop step tables of full-table forwarding in the given
    family: ``dense`` is one block holding the oracle's memoized
    first-hop matrix (patched row-wise by incremental repair);
    ``blocked`` is :func:`compile_blocked_next_hop`'s per-block rows."""
    if tables == "blocked":
        return compile_blocked_next_hop(oracle)
    return BlockedNextHop(oracle.n, oracle.n, [oracle.first_hop_matrix()])


def compile_blocked_next_hop(
    oracle, block_rows: Optional[int] = None
) -> BlockedNextHop:
    """Build :class:`BlockedNextHop` tables from a distance oracle,
    one source block at a time.

    Each block is folded from the oracle's parent rows via
    :meth:`DistanceOracle.first_hop_block`, so the fold's working
    memory is ``O(block_rows * n)``.
    """
    from repro.graph.blocked import default_block_rows

    n = oracle.n
    if block_rows is None:
        block_rows = default_block_rows(n)
    block_rows = max(1, min(max(n, 1), int(block_rows)))
    blocks: List[np.ndarray] = []
    for lo in range(0, n, block_rows):
        block = oracle.first_hop_block(lo, min(n, lo + block_rows))
        block.flags.writeable = False
        blocks.append(block)
    return BlockedNextHop(n, block_rows, blocks)


class SubstrateStepTables(StepTables):
    """Compiled Lemma 2 substrate legs (direct / up-tree / down-tree).

    ``direct_next`` and ``down_next`` are read as ``table[at, target]``
    and hold ``-1`` where there is no entry.  Dense storage keeps them
    as ``(n, n)`` int32 matrices; blocked storage as
    :class:`~repro.graph.csr.PairTable` s — the paper's landmark
    factorization in o(n²) memory.

    Attributes:
        direct_next: next vertex on the direct (cluster) path toward
            ``target``; present exactly when ``target`` is in ``at``'s
            cluster, the membership test ``begin_leg`` makes (Θ(n·√n)
            entries for the balanced RTZ clusters).
        up_next: ``(n, C)`` int32 — next vertex toward landmark
            (column = landmark index), ``-1`` at the landmark itself;
            O(n·√n), so dense in both storages.
        down_next: next vertex from ``at`` toward ``target`` inside
            ``OutTree(center(target))``; only slots on canonical
            ``center -> target`` paths are populated (O(n · avg path
            length) entries).
        center_of: ``(n,)`` int32 — ``a(v)``, the home landmark vertex.
        center_idx: ``(n,)`` int32 — column of ``a(v)`` in ``up_next``.
    """

    def __init__(
        self,
        direct_next,
        up_next: np.ndarray,
        down_next,
        center_of: np.ndarray,
        center_idx: np.ndarray,
    ):
        self.direct_next = direct_next
        self.up_next = up_next
        self.down_next = down_next
        self.center_of = center_of
        self.center_idx = center_idx

    def arrays(self) -> Dict[str, np.ndarray]:
        """Every backing array by name: a pair table contributes
        ``<leg>_keys`` and ``<leg>_next``, a matrix ``<leg>_next`` alone."""
        out = {
            "up_next": self.up_next,
            "center_of": self.center_of,
            "center_idx": self.center_idx,
        }
        for leg in ("direct", "down"):
            table = getattr(self, f"{leg}_next")
            if isinstance(table, PairTable):
                out[f"{leg}_keys"] = table.keys
                table = table.values
            out[f"{leg}_next"] = table
        return out

    def nbytes(self) -> int:
        """Bytes across every table (the o(n²) claim is testable)."""
        return sum(int(arr.nbytes) for arr in self.arrays().values())

    def begin_phase(self, at: np.ndarray, target: np.ndarray) -> np.ndarray:
        direct = (at == target) | (self.direct_next[at, target] >= 0)
        at_center = at == self.center_of[target]
        return np.where(
            direct, PHASE_DIRECT, np.where(at_center, PHASE_DOWN, PHASE_UP)
        ).astype(np.int8)

    def step(
        self, at: np.ndarray, target: np.ndarray, phase: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # TO_CENTER flips to DOWN_TREE on arrival at the landmark,
        # within the same decision (exactly as leg_step does).
        center = self.center_of[target]
        phase = np.where(
            (phase == PHASE_UP) & (at == center), PHASE_DOWN, phase
        ).astype(np.int8)
        nxt = np.where(
            phase == PHASE_DIRECT,
            self.direct_next[at, target],
            np.where(
                phase == PHASE_UP,
                self.up_next[at, self.center_idx[target]],
                self.down_next[at, target],
            ),
        )
        if (nxt < 0).any():
            bad = int(np.flatnonzero(nxt < 0)[0])
            raise TableLookupError(
                f"no compiled substrate entry at vertex {int(at[bad])} "
                f"toward {int(target[bad])} (phase {int(phase[bad])})"
            )
        return nxt, phase


def compile_substrate_tables(
    substrate, tables: str = "dense"
) -> SubstrateStepTables:
    """Compile an :class:`~repro.rtz.routing.RTZStretch3` substrate's
    three forwarding structures into step tables of the given family.

    One walk of the substrate collects the direct and down-tree
    entries; ``dense`` scatters them into ``(n, n)`` matrices and
    ``blocked`` packs them into sorted pair tables.  Both make
    identical decisions — the family only changes memory.

    Results are cached on the substrate per family
    (``_compiled_step_tables``), so every scheme sharing one substrate
    (stretch-6, its variant, wild names, the RTZ baseline — all reading
    one :class:`~repro.api.network.Network`'s ``rtz`` artifact)
    compiles it at most once per family.
    """
    cache = substrate.__dict__.setdefault("_compiled_step_tables", {})
    if tables in cache:
        return cache[tables]
    g: Digraph = substrate.metric.oracle.graph
    n = g.n
    centers = substrate.centers

    def direct():
        for u in range(n):
            ports = substrate._direct[u]
            yield (
                [u * n + v for v in ports],
                [g.head_of_port(u, port) for port in ports.values()],
            )

    up_next = np.full((n, len(centers)), -1, dtype=np.int32)
    for ci, c in enumerate(centers):
        in_tree = substrate._in_trees[c]
        for u in range(n):
            if u == c:
                continue
            up_next[u, ci] = g.head_of_port(u, in_tree.next_port(u))

    home = [substrate.assignment.home_center(v) for v in range(n)]
    cindex = {c: i for i, c in enumerate(centers)}
    parents = {
        c: substrate.metric.oracle.forward_tree_parents(c) for c in centers
    }

    def down():
        # Down-tree entries are only ever consulted on canonical
        # center(v) -> v paths, so populate exactly those: walking up
        # from v, each parent's entry toward v is the vertex below it.
        for v, c in enumerate(home):
            path = [v]
            while path[-1] != c:
                path.append(parents[c][path[-1]])
            yield [p * n + v for p in path[1:]], path[:-1]

    step = cache[tables] = SubstrateStepTables(
        _pack_pairs(n, direct(), tables, np.int32),
        up_next,
        _pack_pairs(n, down(), tables, np.int32),
        np.array(home, dtype=np.int32),
        np.array([cindex[c] for c in home], dtype=np.int32),
    )
    return step


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
    """

    target: np.ndarray
    fwd_bits: np.ndarray


@dataclass
class JourneyPlan:
    """A compiled batch: two legs (outbound, acknowledgment), each a
    list of segments, plus each leg's *initial* header bit size (the
    header as injected / as returned by the destination host, measured
    before any forwarding decision)."""

    legs: List[List[Segment]]
    leg_init_bits: List[np.ndarray]


class CompiledRoutes:
    """What :meth:`RoutingScheme.compile_tables` returns.

    Args:
        graph: the scheme's (frozen) digraph.
        tables: the within-leg step tables.
        planner: ``(sources, dest_vertices) -> JourneyPlan`` over int64
            vertex arrays.
        family: which table family these routes were compiled with
            (``"dense"`` or ``"blocked"``; surfaced in stats).
    """

    def __init__(
        self,
        graph: Digraph,
        tables: StepTables,
        planner,
        family: str = "dense",
    ):
        self.graph = graph
        self.tables = tables
        self._planner = planner
        self.family = family

    def plan(self, sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
        """Compile a batch of (source, dest-vertex) pairs."""
        return self._planner(sources, dests)


def constant_bits(value: int, batch: int) -> np.ndarray:
    """Broadcast one representative-header bit size over a batch."""
    return np.full(batch, int(value), dtype=np.int64)


class Knowledge:
    """Planner inputs for the dictionary-based schemes.

    ``known[u, v]`` — does ``u`` hold ``v``'s label locally — is an
    ``(n, n)`` bool matrix in dense storage, a
    :class:`~repro.graph.csr.PairTable` in blocked storage (one int64
    key and one bool per (node, known destination) pair, Θ(n·√n) for
    the paper's table sizes).  The block-pointer tables are already
    sub-quadratic.
    """

    def __init__(self, known, block_ptr: np.ndarray, bov: np.ndarray):
        self.known = known
        self.block_ptr = block_ptr
        self.block_of_vertex = bov

    def local(self, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        """Whether each source holds its destination's label locally."""
        return self.known[sources, dests]

    def dict_node(self, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        """The dictionary holder each source consults for its dest."""
        return self.block_ptr[sources, self.block_of_vertex[dests]]


def compile_knowledge(
    n: int,
    label_tables: Sequence[Sequence],
    resolve,
    block_ptr_tables: Sequence[dict],
    num_blocks: int,
    block_of_vertex,
    tables: str = "dense",
) -> Knowledge:
    """Planner inputs shared by the dictionary-based schemes.

    Args:
        n: vertex count.
        label_tables: per-node key->label dicts whose *keys* mean
            "this node holds the destination's label locally" (the
            Fig. 3 cases 1 and 3 tables, in any keying).
        resolve: key -> destination vertex (the scheme's name/wild
            resolution).
        block_ptr_tables: per-node block-index -> holder-vertex dicts
            (case 2).
        num_blocks: size of the block space.
        block_of_vertex: vertex -> responsible block index.
        tables: table family of the ``known`` membership table
            (identical answers; ``blocked`` uses Θ(table entries)
            memory).
    """
    block_ptr = np.full((n, num_blocks), -1, dtype=np.int64)
    for u in range(n):
        for b, holder in block_ptr_tables[u].items():
            block_ptr[u, b] = holder
    bov = np.array([block_of_vertex(v) for v in range(n)], dtype=np.int64)

    def known():
        for table in label_tables:
            for u in range(n):
                keys = [u * n + resolve(key) for key in table[u]]
                yield keys, [True] * len(keys)

    return Knowledge(_pack_pairs(n, known(), tables, bool), block_ptr, bov)


# ----------------------------------------------------------------------
# the frontier-sweep executor
# ----------------------------------------------------------------------
def run_roundtrips(
    compiled: CompiledRoutes,
    pairs: Sequence[Tuple[int, int]],
    hop_limit: int,
    scheme_name: str = "?",
) -> List[RoundtripTrace]:
    """Execute a batch of roundtrips against compiled tables.

    All in-flight packets advance one hop per sweep; per-packet leg
    cost/hop/header-bit accounting reproduces the Python simulator
    bit-for-bit (see the module docstring).

    Args:
        compiled: the scheme's compiled routes.
        pairs: ``(source_vertex, dest_vertex)`` pairs.
        hop_limit: per-leg hop budget (same contract as the simulator:
            a leg may make at most ``hop_limit + 1`` forwarding
            decisions before :class:`HopLimitExceeded`).
        scheme_name: label used in error messages.

    Returns:
        One :class:`RoundtripTrace` per pair, in input order.
    """
    batch = len(pairs)
    if batch == 0:
        return []
    sources = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=batch)
    dests = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=batch)
    plan = compiled.plan(sources, dests)
    tables = compiled.tables
    # Edge weights are charged through the O(m) sparse pair lookup (the
    # dense matrix would reintroduce the n² memory the blocked tables
    # remove); values and accumulation order are identical.
    csr = CSRGraph.from_digraph(compiled.graph)

    num_legs = len(plan.legs)
    # Flatten the per-leg segment lists into (num_segs, batch) matrices;
    # leg_of_seg maps a flat segment index to its leg (with a sentinel
    # row so "past the last segment" reads as leg ``num_legs``).
    target_mat = np.stack(
        [seg.target for leg in plan.legs for seg in leg]
    ).astype(np.int64)
    bits_mat = np.stack(
        [seg.fwd_bits for leg in plan.legs for seg in leg]
    ).astype(np.int64)
    leg_of_seg = np.array(
        [li for li, leg in enumerate(plan.legs) for _ in leg] + [num_legs],
        dtype=np.int64,
    )
    init_bits = np.stack(plan.leg_init_bits).astype(np.int64)
    num_segs = target_mat.shape[0]

    pidx = np.arange(batch, dtype=np.int64)
    at = sources.copy()
    cur_seg = np.zeros(batch, dtype=np.int64)
    phase = np.zeros(batch, dtype=np.int8)
    active = np.ones(batch, dtype=bool)

    leg_cost = np.zeros(batch, dtype=np.float64)
    leg_hops = np.zeros(batch, dtype=np.int64)
    leg_bits = init_bits[0].copy()

    out_cost = np.zeros((num_legs, batch), dtype=np.float64)
    out_bits = np.zeros((num_legs, batch), dtype=np.int64)
    leg_start = np.zeros((num_legs, batch), dtype=np.int64)
    leg_start[0] = sources

    # Path log: per sweep, (packet indices, leg ids, vertices stepped to).
    log_idx: List[np.ndarray] = []
    log_leg: List[np.ndarray] = []
    log_vert: List[np.ndarray] = []

    # Aim every packet at its first segment.
    first_tgt = target_mat[0]
    present = first_tgt >= 0
    if present.any():
        phase[present] = tables.begin_phase(at[present], first_tgt[present])

    # Per-leg destination (the Python simulator's ``expect_end``): the
    # last segment of each leg is always present, so hop-limit errors
    # can name the failing *leg*'s endpoints exactly as _run_leg does.
    leg_end = np.stack([leg[-1].target for leg in plan.legs])
    failed = np.full(batch, -1, dtype=np.int64)  # leg id at failure

    while active.any():
        # --- hop budget: the simulator allows a leg at most
        # ``hop_limit + 1`` forwarding decisions; a packet that has
        # forwarded hop_limit + 1 times without delivering is a loop
        # (even if its last hop happened to land on the target).  The
        # sequential reference raises for the first *input-order* pair
        # that loops (later pairs never run), so park failed packets
        # and keep sweeping — the raise below picks the same pair.
        over = active & (leg_hops > hop_limit)
        if over.any():
            failed[over] = leg_of_seg[cur_seg[over]]
            active &= ~over
            if not active.any():
                break
        # --- segment/leg transitions: packets sitting at their current
        # segment's endpoint (or whose segment is absent for them)
        # advance without consuming a hop, exactly like the scheme's
        # same-call header reprocessing at a dictionary node.
        while True:
            tgt = target_mat[np.minimum(cur_seg, num_segs - 1), pidx]
            pend = active & ((tgt == -1) | (tgt == at))
            if not pend.any():
                break
            old_leg = leg_of_seg[cur_seg[pend]]
            cur_seg[pend] += 1
            new_leg = leg_of_seg[cur_seg[pend]]
            crossed = new_leg != old_leg
            if crossed.any():
                cp = pidx[pend][crossed]
                out_cost[old_leg[crossed], cp] = leg_cost[cp]
                out_bits[old_leg[crossed], cp] = leg_bits[cp]
                finished = new_leg[crossed] >= num_legs
                done_p = cp[finished]
                active[done_p] = False
                open_p = cp[~finished]
                if open_p.shape[0]:
                    olids = new_leg[crossed][~finished]
                    leg_cost[open_p] = 0.0
                    leg_hops[open_p] = 0
                    leg_bits[open_p] = init_bits[olids, open_p]
                    leg_start[olids, open_p] = at[open_p]
            # Re-aim packets that advanced into a live, present segment.
            moved = pend & active
            if moved.any():
                tgt2 = target_mat[cur_seg[moved], pidx[moved]]
                aim_p = pidx[moved][tgt2 >= 0]
                if aim_p.shape[0]:
                    phase[aim_p] = tables.begin_phase(
                        at[aim_p], target_mat[cur_seg[aim_p], aim_p]
                    )
        if not active.any():
            break
        # --- one synchronized hop for every in-flight packet.
        ap = pidx[active]
        tgt = target_mat[cur_seg[ap], ap]
        nxt, new_phase = tables.step(at[ap], tgt, phase[ap])
        leg_cost[ap] += csr.pair_weights(at[ap], nxt)
        leg_hops[ap] += 1
        leg_bits[ap] = np.maximum(leg_bits[ap], bits_mat[cur_seg[ap], ap])
        log_idx.append(ap)
        log_leg.append(leg_of_seg[cur_seg[ap]])
        log_vert.append(nxt.astype(np.int64))
        at[ap] = nxt
        phase[ap] = new_phase

    if (failed >= 0).any():
        p = int(np.flatnonzero(failed >= 0)[0])
        li = int(failed[p])
        raise HopLimitExceeded(
            f"scheme {scheme_name} exceeded {hop_limit} hops routing "
            f"from {int(leg_start[li, p])} to {int(leg_end[li, p])} (loop?)"
        )
    return _assemble_traces(
        batch, num_legs, leg_start, out_cost, out_bits,
        log_idx, log_leg, log_vert,
    )


def _assemble_traces(
    batch: int,
    num_legs: int,
    leg_start: np.ndarray,
    out_cost: np.ndarray,
    out_bits: np.ndarray,
    log_idx: List[np.ndarray],
    log_leg: List[np.ndarray],
    log_vert: List[np.ndarray],
) -> List[RoundtripTrace]:
    """Reconstruct per-packet hop-by-hop traces from the sweep log."""
    if log_idx:
        idx = np.concatenate(log_idx)
        leg = np.concatenate(log_leg)
        vert = np.concatenate(log_vert)
    else:
        idx = np.empty(0, dtype=np.int64)
        leg = np.empty(0, dtype=np.int64)
        vert = np.empty(0, dtype=np.int64)
    paths: List[List[List[int]]] = [
        [[int(leg_start[li, p])] for li in range(num_legs)]
        for p in range(batch)
    ]
    if idx.shape[0]:
        # Stable sort by (packet, leg) keeps sweep order in each group.
        order = np.argsort(idx * num_legs + leg, kind="stable")
        idx, leg, vert = idx[order], leg[order], vert[order]
        keys = idx * num_legs + leg
        boundaries = np.flatnonzero(np.diff(keys)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [keys.shape[0]]))
        for s, e in zip(starts, ends):
            paths[int(idx[s])][int(leg[s])].extend(vert[s:e].tolist())

    traces = []
    for p in range(batch):
        legs = [
            LegTrace(
                path=paths[p][li],
                cost=float(out_cost[li, p]),
                max_header_bits=int(out_bits[li, p]),
            )
            for li in range(num_legs)
        ]
        traces.append(RoundtripTrace(outbound=legs[0], inbound=legs[1]))
    return traces
