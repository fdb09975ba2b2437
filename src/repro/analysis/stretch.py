"""Stretch-distribution analysis beyond the max/mean summary.

Used by benchmarks and examples that want the full shape of the
stretch distribution (percentiles, histograms, per-pair records) — the
paper's bounds are worst-case, and the measured distributions show how
far typical routes sit below them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime.stats import measurement_pairs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.router import Router


@dataclass
class StretchDistribution:
    """Full per-pair stretch records.

    Attributes:
        samples: ``(source, dest, stretch)`` per measured pair.
    """

    samples: List[Tuple[int, int, float]]

    def values(self) -> List[float]:
        """All stretch values."""
        return [s for (_u, _v, s) in self.samples]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the stretch values
        (``nan`` with no samples)."""
        values = sorted(self.values())
        if not values:
            return math.nan
        idx = min(len(values) - 1, int(round(q / 100.0 * (len(values) - 1))))
        return values[idx]

    def max(self) -> float:
        """Worst stretch (``nan`` with no samples)."""
        return max(self.values(), default=math.nan)

    def mean(self) -> float:
        """Mean stretch (``nan`` with no samples)."""
        vals = self.values()
        return sum(vals) / len(vals) if vals else math.nan

    def fraction_at_most(self, bound: float) -> float:
        """Fraction of pairs with stretch at most ``bound`` (``nan``
        with no samples)."""
        vals = self.values()
        if not vals:
            return math.nan
        return sum(1 for v in vals if v <= bound + 1e-12) / len(vals)

    def histogram(self, bins: Sequence[float]) -> Dict[str, int]:
        """Counts per half-open bin ``[bins[i], bins[i+1})``."""
        out: Dict[str, int] = {}
        vals = self.values()
        for lo, hi in zip(bins, list(bins[1:]) + [float("inf")]):
            label = f"[{lo:g},{hi:g})"
            out[label] = sum(1 for v in vals if lo <= v < hi)
        return out


def stretch_distribution(
    router: "Router",
    sample: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> StretchDistribution:
    """Route pairs (all, or a sample: :func:`measurement_pairs`) in
    one ``route_many`` batch and collect per-pair stretches.

    ``router`` must carry an oracle; its engine routes the batch.
    """
    pairs = measurement_pairs(router.scheme.graph.n, sample, rng)
    return StretchDistribution(
        [(r.source, r.dest, r.stretch) for r in router.route_many(pairs)]
    )
