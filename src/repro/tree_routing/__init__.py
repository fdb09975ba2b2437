"""Fixed-port tree routing substrate (system S10, Lemma 14)."""

from repro.tree_routing.fixed_port import (
    TreeAddress,
    pruned_tree_intervals,
    tree_intervals,
)

__all__ = [
    "TreeAddress",
    "pruned_tree_intervals",
    "tree_intervals",
]
