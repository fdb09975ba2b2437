"""Fixed-port tree routing substrate (system S10, Lemma 14)."""

from repro.tree_routing.fixed_port import (
    OutTreeRouter,
    ToRootPointers,
    TreeAddress,
    pruned_tree_intervals,
    tree_intervals,
)

__all__ = [
    "OutTreeRouter",
    "ToRootPointers",
    "TreeAddress",
    "pruned_tree_intervals",
    "tree_intervals",
]
