"""Fixed-port tree routing substrate (system S10, Lemma 14)."""

from repro.tree_routing.fixed_port import (
    OutTreeRouter,
    ToRootPointers,
    TreeAddress,
    build_out_tree,
    tree_intervals,
)

__all__ = [
    "OutTreeRouter",
    "ToRootPointers",
    "TreeAddress",
    "build_out_tree",
    "tree_intervals",
]
