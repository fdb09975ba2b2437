"""Table-composition analysis: where each scheme's rows live.

The paper's space accounting (Sections 2.1, 3.3, 4.1) itemizes each
scheme's storage into layers (neighborhood labels, block pointers,
dictionary slices, substrate state).  Each itemizing scheme reports
that itemization itself
(:meth:`~repro.runtime.scheme.RoutingScheme.table_items`, the same
counts its ``table_entries`` sums); this module aggregates it so
benchmarks can print the breakdown the paper argues about, per node
and in aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.runtime.scheme import RoutingScheme


@dataclass
class TableBreakdown:
    """Per-layer storage totals for one scheme instance.

    Attributes:
        layers: layer name -> total rows across all nodes.
        per_node_max: layer name -> max rows at any single node.
    """

    layers: Dict[str, int]
    per_node_max: Dict[str, int]

    def total(self) -> int:
        """All rows across all layers and nodes."""
        return sum(self.layers.values())

    def format(self, n: int) -> str:
        """Render as the table the space-analysis sections imply."""
        lines = [
            f"{'layer':<24} {'total rows':>11} {'mean/node':>10} "
            f"{'max/node':>9}"
        ]
        for layer, total in self.layers.items():
            lines.append(
                f"{layer:<24} {total:>11} {total / n:>10.1f} "
                f"{self.per_node_max[layer]:>9}"
            )
        lines.append(
            f"{'TOTAL':<24} {self.total():>11} {self.total() / n:>10.1f}"
        )
        return "\n".join(lines)


def breakdown(scheme: RoutingScheme) -> TableBreakdown:
    """The scheme's storage items, totalled over nodes and maximized
    per node.

    Raises:
        TypeError: for schemes without an itemized analysis.
    """
    items = scheme.table_items()
    if items is None:
        raise TypeError(
            f"no table breakdown defined for {type(scheme).__name__}"
        )
    return TableBreakdown(
        {layer: int(counts.sum()) for layer, counts in items.items()},
        {layer: int(counts.max()) for layer, counts in items.items()},
    )
