"""The experiment harness: builds scheme instances and prints the
paper-style rows recorded in EXPERIMENTS.md.

Every benchmark module calls into here so that the same code path
produces the printed tables, the asserted inequalities, and the timed
kernels.  The central entry point is :func:`fig1_comparison`, which
regenerates the paper's Fig. 1 claims table with measured columns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.digraph import Digraph
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.permutation import Naming, random_naming
from repro.runtime.scheme import RoutingScheme
from repro.runtime.stats import measure_stretch, measure_tables
from repro.schemes.exstretch import ExStretchScheme
from repro.schemes.polystretch import PolynomialStretchScheme
from repro.schemes.rtz_baseline import RTZBaselineScheme
from repro.schemes.shortest_path import ShortestPathScheme
from repro.schemes.stretch6 import StretchSixScheme


@dataclass
class Instance:
    """A fully prepared experiment instance (graph + naming + metric)."""

    graph: Digraph
    oracle: DistanceOracle
    naming: Naming
    metric: RoundtripMetric

    @classmethod
    def prepare(cls, graph: Digraph, seed: int = 0) -> "Instance":
        """Build the oracle, a random adversarial naming, and the
        metric keyed by that naming."""
        oracle = DistanceOracle(graph)
        naming = random_naming(graph.n, random.Random(seed))
        metric = RoundtripMetric(oracle, ids=naming.all_names())
        return cls(graph, oracle, naming, metric)


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


SchemeFactory = Callable[[Instance, random.Random], Tuple[RoutingScheme, float]]


def default_factories(k: int = 2) -> Dict[str, SchemeFactory]:
    """The Fig. 1 scheme set: name-dependent RTZ-3 plus the paper's
    three TINN schemes (and the linear-table baseline for reference)."""

    def f_sp(inst: Instance, rng: random.Random):
        return ShortestPathScheme(inst.oracle, inst.naming), 1.0

    def f_rtz(inst: Instance, rng: random.Random):
        return RTZBaselineScheme(inst.metric, inst.naming, rng=rng), 3.0

    def f_s6(inst: Instance, rng: random.Random):
        return (
            StretchSixScheme(inst.metric, inst.naming, rng=rng),
            StretchSixScheme.STRETCH_BOUND,
        )

    def f_ex(inst: Instance, rng: random.Random):
        scheme = ExStretchScheme(inst.metric, inst.naming, k=k, rng=rng)
        return scheme, scheme.stretch_bound()

    def f_poly(inst: Instance, rng: random.Random):
        scheme = PolynomialStretchScheme(inst.metric, inst.naming, k=k)
        return scheme, scheme.stretch_bound()

    return {
        "shortest-path": f_sp,
        "rtz-3 (name-dep)": f_rtz,
        "stretch-6 (TINN)": f_s6,
        "exstretch (TINN)": f_ex,
        "polystretch (TINN)": f_poly,
    }


def fig1_comparison(
    graph: Digraph,
    seed: int = 0,
    sample_pairs: Optional[int] = 400,
    k: int = 2,
    factories: Optional[Dict[str, SchemeFactory]] = None,
    instance: Optional[Instance] = None,
) -> List[SchemeRow]:
    """Regenerate Fig. 1 with measured columns on one graph.

    Args:
        graph: the workload graph.
        seed: controls naming and scheme randomness.
        sample_pairs: pairs sampled for stretch measurement (None for
            all pairs).
        k: tradeoff parameter for the generalized schemes.
        factories: override the scheme set.
        instance: a pre-built instance of the same graph (e.g.
            assembled from a :class:`repro.api.Network`'s ``oracle()``,
            ``naming()`` and ``metric()``), reused instead of
            re-preparing them.

    Returns:
        One :class:`SchemeRow` per scheme, in Fig. 1 order.
    """
    inst = instance if instance is not None else Instance.prepare(graph, seed)
    rows: List[SchemeRow] = []
    tinn = {"stretch-6 (TINN)", "exstretch (TINN)", "polystretch (TINN)"}
    for label, factory in (factories or default_factories(k)).items():
        scheme, bound = factory(inst, random.Random(seed + 1))
        stretch = measure_stretch(
            scheme, inst.oracle, sample=sample_pairs, rng=random.Random(seed + 2)
        )
        tables = measure_tables(scheme)
        rows.append(
            SchemeRow(
                scheme=label,
                name_independent=label in tinn,
                paper_stretch=bound,
                measured_max_stretch=stretch.max_stretch,
                measured_mean_stretch=stretch.mean_stretch,
                max_table_entries=tables.max_entries,
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
    compact schemes' tables below the linear baseline's."""
    by_name = {r.scheme: r for r in rows}
    for r in rows:
        assert r.measured_max_stretch <= r.paper_stretch + 1e-9, (
            f"{r.scheme} exceeded its claimed stretch"
        )
    baseline = by_name.get("shortest-path")
    if baseline is not None:
        for r in rows:
            if r.scheme == "shortest-path":
                continue
            # compactness shows up once n is large enough; at the
            # sizes benchmarks use we settle for "not wildly larger"
            assert r.max_table_entries <= 40 * max(
                baseline.max_table_entries, 1
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
    build: Callable[[Instance, random.Random], RoutingScheme],
    seed: int = 0,
) -> List[ScalingPoint]:
    """Sweep a graph family and record per-node table sizes.

    Args:
        family: ``(n, rng) -> graph`` generator.
        sizes: the ``n`` values to sweep.
        build: scheme constructor.
        seed: base randomness.
    """
    points: List[ScalingPoint] = []
    for n in sizes:
        g = family(n, random.Random(seed + n))
        inst = Instance.prepare(g, seed + n + 1)
        scheme = build(inst, random.Random(seed + n + 2))
        report = measure_tables(scheme)
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
