"""Compiled step tables hold CSR out-edge slots.

A compiled forwarding decision is the slot of the hop's edge in the
graph's :class:`~repro.graph.csr.CSRGraph` (the compiled form of the
port the scheme forwards on), so the sweep reads the next vertex and
the hop's weight as ``out_heads[slot]`` and ``out_weights[slot]``.
For every registered scheme and both table storages, every compiled
entry must name an out-edge of the vertex it is stored at, and that
edge must lead where the scheme's own scalar forwarding sends the
packet: ``head_of_port(u, port)`` for the port its python-engine
tables hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Network, scheme_names
from repro.exceptions import ConstructionError
from repro.graph.csr import CSRGraph, PairTable
from repro.rtz.routing import DIRECT, DOWN_TREE, TO_CENTER
from repro.runtime.engine import (
    DoubleTreeStepTables,
    NextHopTable,
    SubstrateStepTables,
    hop_slots,
)
from repro.tree_routing.fixed_port import TreeAddress
from table_storage import forced

N = 32


@pytest.fixture(scope="module", params=["random", "torus"])
def net(request) -> Network:
    return Network.from_family(request.param, N, seed=3, store=None)


def table_entries(table, n: int):
    """``(u, v, slot)`` of every present entry of a ``table[u, v]``
    step table, dense or sorted-key."""
    if isinstance(table, PairTable):
        u, v = np.divmod(table.keys, n)
        return u, v, table.values
    u, v = np.nonzero(table >= 0)
    return u, v, table[u, v]


def substrate_entries(scheme, tables: SubstrateStepTables):
    """Every direct, up and down entry with the port ``leg_step``, the
    substrate's scalar decision, forwards on from there."""
    rtz = scheme.rtz
    n = rtz.metric.n
    centers = rtz.centers
    rows = []
    for table, mode in ((tables.direct_slot, DIRECT),
                        (tables.down_slot, DOWN_TREE)):
        for u, v, slot in zip(*(a.tolist() for a in table_entries(table, n))):
            rows.append((u, slot, rtz.leg_step(u, rtz.label(v), mode)[0]))
    for u, ci in zip(*np.nonzero(tables.up_slot >= 0)):
        label = rtz.label(centers[ci])
        assert label.center == centers[ci] and label.addr.tree_id == ci
        port = rtz.leg_step(int(u), label, TO_CENTER)[0]
        rows.append((int(u), int(tables.up_slot[u, ci]), port))
    return rows


def next_hop_entries(scheme, tables: NextHopTable):
    """Every (vertex, destination) slot with the port of the edge to
    the oracle's scalar ``next_hop`` (``forward`` reads this same
    matrix, so it cannot be the reference)."""
    oracle = scheme._oracle
    g = scheme.graph
    n = g.n
    rows = [
        (u, slot, g.port_of(u, oracle.next_hop(u, t)))
        for u, t, slot in zip(*(a.tolist() for a in table_entries(tables.slots, n)))
    ]
    assert len(rows) == n * (n - 1)  # full tables: every u != t
    return rows


def double_tree_entries(scheme, tables: DoubleTreeStepTables):
    """Every in-pointer and child row with the port ``next_port``, the
    tree tables' scalar decision, forwards on from there."""
    trees = tables.trees
    n = trees.n
    rows = []
    for key, slot in zip(trees.up_keys.tolist(), trees.up_slot.tolist()):
        t, x = divmod(key, n)
        tree_id = int(trees.tree_ids[t])
        root = trees.address_of(tree_id, int(trees.root[t]))
        rows.append((x, slot, trees.next_port(x, tree_id, root, True)[0]))
    for key, slot in zip(trees.row_keys.tolist(), trees.row_slot.tolist()):
        node, lo = divmod(key, n)
        t, p = divmod(node, n)
        tree_id = int(trees.tree_ids[t])
        target = TreeAddress(tree_id, lo)
        rows.append((p, slot, trees.next_port(p, tree_id, target, False)[0]))
    return rows


ENTRIES = {
    SubstrateStepTables: substrate_entries,
    NextHopTable: next_hop_entries,
    DoubleTreeStepTables: double_tree_entries,
}


def compiled_entries(scheme):
    """``(u, slot, want)``: every compiled entry's vertex, its slot and
    the vertex the scheme's scalar forwarding reaches from ``u``."""
    step = scheme.compiled_routes().tables
    rows = ENTRIES[type(step)](scheme, step)
    assert rows
    g = scheme.graph
    u, slot, port = (np.array(col, dtype=np.int64) for col in zip(*rows))
    want = np.array([g.head_of_port(a, b) for a, b in zip(u.tolist(), port.tolist())])
    return u, slot, want


def slot_violations(csr: CSRGraph, u, slot, want) -> np.ndarray:
    """Indices of entries whose slot is not one of ``u``'s out-edges
    or does not lead to ``want``."""
    in_row = (csr.out_indptr[u] <= slot) & (slot < csr.out_indptr[u + 1])
    heads = csr.out_heads[np.clip(slot, 0, csr.m - 1)]
    return np.flatnonzero(~in_row | (heads != want))


@pytest.mark.parametrize("storage", ["dense", "blocked"])
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_every_compiled_slot_is_the_scalar_hop(net, scheme_name, storage):
    scheme = net.build_scheme(scheme_name)
    with forced(storage):
        u, slot, want = compiled_entries(scheme)
    csr = CSRGraph.from_digraph(scheme.graph)
    assert slot_violations(csr, u, slot, want).tolist() == []


def test_a_slot_of_another_tail_is_caught():
    """Swap one compiled slot for an edge of another tail into the same
    head: the head still matches, the row check catches it."""
    net = Network.from_family("random", N, seed=3, store=None)
    scheme = net.build_scheme("stretch6")
    csr = CSRGraph.from_digraph(scheme.graph)
    tables = scheme.compiled_routes().tables
    u, ci = (int(x) for x in np.argwhere(tables.up_slot >= 0)[0])
    slot = int(tables.up_slot[u, ci])
    head = int(csr.out_heads[slot])
    other = next(
        e for e in range(csr.m)
        if csr.out_heads[e] == head
        and not csr.out_indptr[u] <= e < csr.out_indptr[u + 1]
    )
    tables.up_slot = tables.up_slot.copy()
    tables.up_slot[u, ci] = other
    u_all, slot_all, want = compiled_entries(scheme)
    bad = slot_violations(csr, u_all, slot_all, want)
    assert [(int(u_all[i]), int(slot_all[i])) for i in bad] == [(u, other)]


def test_an_entry_naming_no_edge_is_a_construction_error():
    net = Network.from_family("random", N, seed=3, store=None)
    g = net.graph
    csr = CSRGraph.from_digraph(g)
    heads = csr.out_heads[csr.out_indptr[0]:csr.out_indptr[1]]
    away = next(v for v in range(1, N) if v not in heads.tolist())
    got = hop_slots(g, [[0], [0]], [[heads[0], -1], [-1, heads[-1]]])
    assert got.dtype == np.int32
    assert got.tolist() == [[csr.out_indptr[0], -1], [-1, csr.out_indptr[1] - 1]]
    with pytest.raises(ConstructionError, match=rf"\(0, {away}\) is not in"):
        hop_slots(g, [0, 0], [heads[0], away])
