"""Sparse double-tree covers (systems S11-S13): DoubleTree, the
PartialCover/Cover algorithms of Figs. 7-8 (Theorem 10/13), and the
level hierarchy of Section 4."""

from repro.covers.double_tree import DoubleTree, DoubleTreeTables
from repro.covers.hierarchy import LEVEL_STRIDE, TreeHierarchy
from repro.covers.partial_cover import PartialCoverResult, partial_cover
from repro.covers.sparse_cover import (
    CoverResult,
    DoubleTreeCover,
    cover,
    cover_load_bound,
)

__all__ = [
    "DoubleTree",
    "DoubleTreeTables",
    "TreeHierarchy",
    "LEVEL_STRIDE",
    "PartialCoverResult",
    "partial_cover",
    "CoverResult",
    "DoubleTreeCover",
    "cover",
    "cover_load_bound",
]
