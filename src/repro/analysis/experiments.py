"""The experiment harness: measures registry schemes on a
:class:`~repro.api.Network` and prints the paper-style rows recorded
in EXPERIMENTS.md.

Every benchmark module calls into here so that the same code path
produces the printed tables, the asserted inequalities, and the timed
kernels.  The central entry point is :func:`fig1_comparison`, which
regenerates the paper's Fig. 1 claims table with measured columns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.api import Network, get_spec
from repro.exceptions import ConstructionError, RoutingError
from repro.graph.digraph import Digraph
from repro.runtime.stats import measure_stretch, measure_tables

#: The Fig. 1 scheme set in the paper's order, as registry names: the
#: linear-table baseline, name-dependent RTZ-3, and the paper's three
#: TINN schemes.  Each row is labelled with the scheme's display name.
FIG1_SCHEMES = ("shortest_path", "rtz", "stretch6", "exstretch", "polystretch")


@dataclass
class SchemeRow:
    """One row of the Fig. 1-style comparison table.

    Attributes:
        scheme: scheme display name.
        name_independent: TINN column of Fig. 1.
        paper_stretch: the stretch the paper's row claims (with our
            substrate's constant for the generalized schemes).
        measured_max_stretch: worst observed roundtrip stretch.
        measured_mean_stretch: mean observed roundtrip stretch.
        max_table_entries: worst per-node table rows.
        max_header_bits: worst header size seen.
    """

    scheme: str
    name_independent: bool
    paper_stretch: float
    measured_max_stretch: float
    measured_mean_stretch: float
    max_table_entries: int
    max_header_bits: int


def fig1_comparison(
    net: Network,
    seed: int = 0,
    sample_pairs: Optional[int] = 400,
    k: int = 2,
) -> List[SchemeRow]:
    """Regenerate Fig. 1 with measured columns on one network.

    Each row is the registry's instance of the scheme
    (:meth:`Network.build_scheme`), routed through the network's
    engine; its claimed bound and TINN flag come from the registry
    spec.

    Args:
        net: the workload network.
        seed: controls which pairs are sampled.
        sample_pairs: pairs sampled for stretch measurement (None for
            all pairs).
        k: tradeoff parameter for the generalized schemes.

    Returns:
        One :class:`SchemeRow` per scheme, in Fig. 1 order.
    """
    rows: List[SchemeRow] = []
    for name in FIG1_SCHEMES:
        spec = get_spec(name)
        router = net.router(name, **({"k": k} if spec.accepts("k") else {}))
        stretch = measure_stretch(
            router, sample=sample_pairs, rng=random.Random(seed + 2)
        )
        rows.append(
            SchemeRow(
                scheme=router.scheme.name,
                name_independent=spec.name_independent,
                paper_stretch=spec.stretch_bound(router.scheme),
                measured_max_stretch=stretch.max_stretch,
                measured_mean_stretch=stretch.mean_stretch,
                max_table_entries=router.table_report().max_entries,
                max_header_bits=stretch.max_header_bits,
            )
        )
    return rows


def format_rows(rows: Sequence[SchemeRow]) -> str:
    """Render the comparison as the table printed by the benchmarks."""
    header = (
        f"{'scheme':<22} {'TINN':<5} {'claimed':<8} {'max':<7} "
        f"{'mean':<7} {'tab(max)':<9} {'hdr(bits)':<9}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.scheme:<22} {str(r.name_independent):<5} "
            f"{r.paper_stretch:<8.1f} {r.measured_max_stretch:<7.2f} "
            f"{r.measured_mean_stretch:<7.2f} {r.max_table_entries:<9d} "
            f"{r.max_header_bits:<9d}"
        )
    return "\n".join(lines)


def assert_rows_sound(rows: Sequence[SchemeRow]) -> None:
    """The Fig. 1 invariants: every scheme within its claimed stretch,
    compact schemes' tables below the linear baseline's.

    Raises:
        RoutingError: for a row whose measured stretch exceeds its
            claim (or was not measured).
        ConstructionError: for a compact row with tables far above
            the baseline's.
    """
    by_name = {r.scheme: r for r in rows}
    for r in rows:
        if not r.measured_max_stretch <= r.paper_stretch + 1e-9:
            raise RoutingError(f"{r.scheme} exceeded its claimed stretch")
    baseline = by_name.get("shortest-path")
    if baseline is not None:
        limit = 40 * max(baseline.max_table_entries, 1)
        for r in rows:
            # compactness shows up once n is large enough; at the
            # sizes benchmarks use we settle for "not wildly larger"
            if r.scheme != "shortest-path" and r.max_table_entries > limit:
                raise ConstructionError(
                    f"{r.scheme} tables exceed 40x the linear baseline's"
                )


@dataclass
class ScalingPoint:
    """One point of a table-size scaling sweep."""

    n: int
    max_entries: int
    mean_entries: float


def table_scaling(
    family: Callable[[int, random.Random], Digraph],
    sizes: Sequence[int],
    scheme: str,
    seed: int = 0,
) -> List[ScalingPoint]:
    """Sweep a graph family and record per-node table sizes.

    Args:
        family: ``(n, rng) -> graph`` generator.
        sizes: the ``n`` values to sweep.
        scheme: registry name of the scheme, built on a
            :class:`~repro.api.Network` per size.
        seed: base randomness.
    """
    points: List[ScalingPoint] = []
    for n in sizes:
        g = family(n, random.Random(seed + n))
        net = Network(g, seed=seed + n + 1, store=None)
        report = measure_tables(net.build_scheme(scheme))
        points.append(ScalingPoint(n, report.max_entries, report.mean_entries))
    return points


def log_log_slope(points: Sequence[ScalingPoint]) -> float:
    """Least-squares slope of ``log(max_entries)`` vs ``log(n)`` —
    about 0.5 for ``sqrt``-shaped tables, 1.0 for linear tables."""
    xs = [math.log(p.n) for p in points]
    ys = [math.log(max(p.max_entries, 1)) for p in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den if den else 0.0
