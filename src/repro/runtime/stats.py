"""Measurement helpers: stretch over sampled pairs and table summaries.

These are the primitives the analysis harness and benchmarks use to
turn a scheme into the numbers reported in the paper's claims table
(Fig. 1): worst/mean roundtrip stretch over sampled pairs, and table
sizes in entries and bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.runtime.scheme import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.router import Router
    from repro.runtime.traffic import TrafficSummary


def measurement_pairs(
    n: int, sample: Optional[int] = None, rng: Optional[random.Random] = None
) -> np.ndarray:
    """The ordered pairs a stretch measurement routes, as a
    ``(count, 2)`` int64 array.

    All ``n(n-1)`` ordered pairs in row-major order, or, when
    ``sample`` is below that count, ``sample`` of them drawn without
    replacement by ``rng`` (default ``random.Random(0)``).  A sample
    draws indices into the row-major list and decodes them, so it
    picks exactly the pairs ``rng.sample(all_pairs, sample)`` would,
    without building the quadratic list.
    """
    total = n * (n - 1)
    if sample is not None and sample < total:
        rng = rng or random.Random(0)
        index = np.array(rng.sample(range(total), sample), dtype=np.int64)
    else:
        index = np.arange(total, dtype=np.int64)
    sources, dests = np.divmod(index, n - 1)
    dests += dests >= sources
    return np.column_stack((sources, dests))


def measure_stretch(
    router: "Router",
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    sample: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> "TrafficSummary":
    """Route every given pair through ``router`` as one workload and
    summarize the roundtrip stretch.

    Args:
        router: the session to measure; its oracle supplies the
            stretch columns and its engine routes the batch.
        pairs: explicit (source_vertex, dest_vertex) pairs; defaults to
            :func:`measurement_pairs` (all ordered pairs, or a sample).
        sample: when given and ``pairs`` is None, draw this many random
            ordered pairs instead of the full quadratic set.
        rng: randomness for sampling.

    Returns:
        The workload's :class:`~repro.runtime.traffic.TrafficSummary`
        (``pairs``, ``max_stretch``, ``mean_stretch``,
        ``max_header_bits``, ``worst_pair`` among its columns).  An
        empty pair set gives the empty summary: 0 pairs, ``nan``
        stretch.

    Raises:
        GraphError: for a pair with an endpoint out of range or
            ``source == destination``.
        RoutingError: propagated from the engine on any failure —
            measurement never hides a delivery bug.
    """
    if pairs is None:
        pairs = measurement_pairs(router.scheme.graph.n, sample, rng)
    return router.serve_workload(pairs)


@dataclass
class TableReport:
    """Table-size statistics for one scheme instance.

    Attributes:
        max_entries: largest per-node table (rows).
        mean_entries: average per-node table (rows).
        total_entries: sum of all rows.
        max_bits: largest per-node table in estimated bits.
    """

    max_entries: int
    mean_entries: float
    total_entries: int
    max_bits: int


def measure_tables(scheme: RoutingScheme) -> TableReport:
    """Summarize per-node table sizes of a constructed scheme."""
    sizes = [scheme.table_entries(v) for v in scheme.graph.vertices()]
    bits = [scheme.table_bits(v) for v in scheme.graph.vertices()]
    return TableReport(
        max_entries=max(sizes),
        mean_entries=sum(sizes) / len(sizes),
        total_entries=sum(sizes),
        max_bits=max(bits),
    )
