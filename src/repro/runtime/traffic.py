"""Batched traffic workloads: generators and the measurement harness.

The paper's motivation is routing under real traffic — millions of
(source, destination) journeys against fixed tables.  This module
makes heavy-traffic scenarios a first-class workload:

* pair generators for the three canonical traffic shapes —
  :func:`uniform_pairs` (background load), :func:`hotspot_pairs`
  (popular-destination skew, the DHT/content-server regime), and
  :func:`adversarial_pairs` (the largest-roundtrip pairs, where
  stretch bounds are under the most pressure) — plus
  :func:`mixed_pairs` blending all three.  Each returns one read-only
  ``(count, 2)`` int64 array, drawn by one ``numpy.random.Generator``
  seeded from the caller's ``random.Random``, one row of numbers per
  pair, so equal seeds give equal arrays and a smaller draw is a prefix
  of a larger one;
* :func:`run_workload`, which drives a whole workload through
  :meth:`repro.runtime.simulator.Simulator.roundtrip_many` in chunks of
  :data:`CHUNK_PAIRS` pairs, keeps only each chunk's cost, hop and
  header columns, and aggregates them once into one
  :class:`TrafficSummary`.  The summary is a function of the pairs
  alone: it never depends on where the chunks fall.

Exposed on the command line as ``python -m repro.cli traffic``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.shortest_paths import DistanceOracle
from repro.runtime.simulator import Simulator

#: Workload kinds understood by :func:`generate_workload`.  The last
#: three — zipf-skewed hotspots, flash crowds, and diurnal ramps — are
#: the scenario-zoo shapes (:mod:`repro.scenarios`); they are plain
#: kinds here so every consumer (CLI ``--workload``, scenario phases,
#: the serve daemon) accepts them uniformly.
WORKLOAD_KINDS = (
    "uniform", "hotspot", "adversarial", "mixed",
    "zipf", "flash-crowd", "diurnal",
)

#: Pairs per engine call in :func:`run_workload`.  At random n = 1024
#: stretch6, 10^5 pairs take 0.5-0.8 s in chunks of 2,048 to 65,536
#: pairs, as in one batch, but 1.6 s in chunks of 512; and one batch
#: holds every pair's trace at once (1.1 GiB peak RSS at 10^6 pairs,
#: against 189 MiB in chunks of 8,192).
CHUNK_PAIRS = 8192


@dataclass(frozen=True)
class Workload:
    """A named batch of ``(source_vertex, dest_vertex)`` pairs: a
    generator's read-only ``(count, 2)`` int64 array, or any sequence
    of pairs, which :func:`run_workload` converts once."""

    kind: str
    pairs: "np.ndarray | Sequence[Tuple[int, int]]" = ()

    def __len__(self) -> int:
        return len(self.pairs)


def _check_args(n: int, count: int) -> None:
    if count < 0:
        raise GraphError(f"workload size must be >= 0, got {count}")
    if count > 0 and n < 2:
        raise GraphError("traffic workloads need a graph with n >= 2")


def _generator(rng: Optional[random.Random]) -> np.random.Generator:
    """The numpy generator a draw uses, seeded from ``rng`` (default
    ``random.Random(0)``)."""
    return np.random.default_rng((rng or random.Random(0)).getrandbits(64))


def _below(u: np.ndarray, h: int) -> np.ndarray:
    """Integers in ``[0, h)`` from floats ``u`` uniform in ``[0, 1)``
    (each value's probability is ``1/h`` to within ``h / 2^53``)."""
    return (u * h).astype(np.int64)


def _frozen(pairs: np.ndarray) -> np.ndarray:
    """``pairs`` as the read-only int64 array a generator returns."""
    pairs = pairs.astype(np.int64, copy=False)
    pairs.flags.writeable = False
    return pairs


_NO_PAIRS = _frozen(np.empty((0, 2)))


def uniform_pairs(
    n: int, count: int, rng: Optional[random.Random] = None
) -> np.ndarray:
    """``count`` ordered pairs drawn uniformly (source != dest): each is
    one index into the ``n(n-1)`` ordered pairs in row-major order."""
    _check_args(n, count)
    index = _generator(rng).integers(0, n * (n - 1), size=count)
    sources, dests = np.divmod(index, n - 1)
    dests += dests >= sources
    return _frozen(np.column_stack((sources, dests)))


def _hot_set_pairs(
    n: int, count: int, rng: Optional[random.Random], size: int,
    share: "float | np.ndarray",
) -> np.ndarray:
    """``count`` pairs over a hot set of ``size`` vertices, drawn
    first: pair ``i`` targets a hot vertex with probability
    ``share`` (or ``share[i]``) and a uniform one otherwise, from a
    uniform source that differs from it."""
    gen = _generator(rng)
    hot = gen.permutation(n)[:size]
    coin, pick, anywhere, source = gen.random((count, 4)).T
    dests = np.where(
        coin < share, hot[_below(pick, size)], _below(anywhere, n)
    )
    sources = _below(source, n - 1)
    sources += sources >= dests
    return _frozen(np.column_stack((sources, dests)))


def hotspot_pairs(
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    num_hotspots: Optional[int] = None,
    hotspot_bias: float = 0.8,
) -> np.ndarray:
    """Traffic concentrated on a few hot destinations.

    Args:
        n: vertex count.
        count: pairs to draw.
        rng: randomness source.
        num_hotspots: how many destinations are hot (default
            ``max(1, n // 16)``).
        hotspot_bias: probability that a pair targets a hotspot (the
            rest of the traffic stays uniform).
    """
    _check_args(n, count)
    if not 0.0 <= hotspot_bias <= 1.0:
        raise GraphError(f"hotspot_bias must be in [0, 1], got {hotspot_bias}")
    k = num_hotspots if num_hotspots is not None else max(1, n // 16)
    if not 1 <= k <= n:
        raise GraphError(f"num_hotspots must be in [1, n], got {k}")
    return _hot_set_pairs(n, count, rng, k, hotspot_bias)


def adversarial_pairs(
    oracle: DistanceOracle,
    count: int,
    rng: Optional[random.Random] = None,
) -> np.ndarray:
    """The ``count`` pairs with the largest roundtrip distances.

    These are the journeys where a scheme's multiplicative stretch
    bound costs the most in absolute terms; the first pair realizes
    the roundtrip diameter.  When ``count`` exceeds the number of
    ordered pairs, the sequence cycles.  ``rng``, when given, shuffles
    the batch order (the multiset of pairs stays deterministic).
    """
    n = oracle.n
    _check_args(n, count)
    if count == 0:
        return _NO_PAIRS
    r = oracle.r_matrix.copy()
    np.fill_diagonal(r, -np.inf)
    flat = np.argsort(-r, axis=None, kind="stable")[: n * n - n]
    take = flat[np.arange(count) % flat.shape[0]]
    if rng is not None:
        take = take[_generator(rng).permutation(count)]
    return _frozen(np.column_stack(np.divmod(take, n)))


def mixed_pairs(
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    oracle: Optional[DistanceOracle] = None,
) -> np.ndarray:
    """A 40/40/20 uniform/hotspot/adversarial blend (the adversarial
    share falls back to uniform when no oracle is supplied).

    Each component draws from its own rng stream derived from ``rng``,
    so the blend is seed-stable: growing ``count`` extends every
    component's pair sequence instead of perturbing it (the pairs of a
    smaller draw are a sub-multiset of a larger draw from the same
    seed).
    """
    _check_args(n, count)
    rng = rng or random.Random(0)
    uni_rng, hot_rng, adv_rng, mix_rng = (
        random.Random(rng.getrandbits(64)) for _ in range(4)
    )
    n_uni = (2 * count) // 5
    n_hot = (2 * count) // 5
    n_adv = count - n_uni - n_hot
    parts = [uniform_pairs(n, n_uni, uni_rng), hotspot_pairs(n, n_hot, hot_rng)]
    if oracle is not None:
        parts.append(adversarial_pairs(oracle, n_adv, adv_rng))
    else:
        parts.append(uniform_pairs(n, n_adv, adv_rng))
    return _frozen(np.concatenate(parts)[_generator(mix_rng).permutation(count)])


def zipf_pairs(
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    alpha: float = 1.2,
) -> np.ndarray:
    """Traffic whose destination popularity follows a Zipf law.

    A random permutation of the vertices defines the popularity ranks;
    destination rank ``k`` is drawn with probability proportional to
    ``k^-alpha`` (inverse-CDF sampling), sources stay uniform.  The
    content-distribution regime between :func:`hotspot_pairs` (a flat
    hot set) and :func:`uniform_pairs` (no skew at all).

    Raises:
        GraphError: for ``alpha <= 0``.
    """
    _check_args(n, count)
    if alpha <= 0:
        raise GraphError(f"zipf alpha must be > 0, got {alpha}")
    if count == 0:
        return _NO_PAIRS
    gen = _generator(rng)
    ranked = gen.permutation(n)
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -alpha)
    u, source = gen.random((count, 2)).T
    dests = ranked[np.searchsorted(cdf, u * cdf[-1])]
    sources = _below(source, n - 1)
    sources += sources >= dests
    return _frozen(np.column_stack((sources, dests)))


def flash_crowd_pairs(
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    targets: int = 1,
    bias: float = 0.95,
) -> np.ndarray:
    """A flash crowd: nearly all traffic slams a tiny target set.

    ``bias`` of the pairs go to one of ``targets`` crowd destinations
    (drawn per pair), the rest stay uniform background — the
    thundering-herd extreme of :func:`hotspot_pairs`.

    Raises:
        GraphError: for ``targets`` outside ``[1, n]`` or ``bias``
            outside ``[0, 1]``.
    """
    _check_args(n, count)
    if count == 0:
        return _NO_PAIRS
    if not 1 <= targets <= n:
        raise GraphError(f"flash-crowd targets must be in [1, n], got {targets}")
    if not 0.0 <= bias <= 1.0:
        raise GraphError(f"flash-crowd bias must be in [0, 1], got {bias}")
    return _hot_set_pairs(n, count, rng, targets, bias)


def diurnal_pairs(
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    cycles: float = 1.0,
    low: float = 0.1,
    high: float = 0.9,
    num_hotspots: Optional[int] = None,
) -> np.ndarray:
    """A diurnal ramp: hotspot intensity follows a day/night sinusoid.

    Pair ``i`` of ``count`` targets a hot destination with probability
    tracing ``cycles`` sinusoidal cycles between ``low`` (night) and
    ``high`` (peak) across the batch, so a run executes the morning
    ramp, the peak, and the evening falloff in order.  The hot
    set has ``num_hotspots`` members (default ``max(1, n // 16)``).

    Raises:
        GraphError: for a non-positive ``cycles`` or ``low``/``high``
            outside ``[0, 1]`` or out of order.
    """
    _check_args(n, count)
    if count == 0:
        return _NO_PAIRS
    if cycles <= 0:
        raise GraphError(f"diurnal cycles must be > 0, got {cycles}")
    if not 0.0 <= low <= high <= 1.0:
        raise GraphError(
            f"diurnal low/high must satisfy 0 <= low <= high <= 1, "
            f"got low={low}, high={high}"
        )
    k = num_hotspots if num_hotspots is not None else max(1, n // 16)
    if not 1 <= k <= n:
        raise GraphError(f"num_hotspots must be in [1, n], got {k}")
    mid = (low + high) / 2.0
    amp = (high - low) / 2.0
    # pair 0 is night; the share peaks mid-cycle
    phase = 2.0 * np.pi * cycles * (np.arange(count) / count)
    return _hot_set_pairs(n, count, rng, k, mid - amp * np.cos(phase))


def generate_workload(
    kind: str,
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    oracle: Optional[DistanceOracle] = None,
    **params,
) -> Workload:
    """Build a :class:`Workload` of one of the standard kinds.

    Args:
        kind: one of :data:`WORKLOAD_KINDS`.
        n: vertex count of the target graph.
        count: number of pairs.
        rng: randomness source.
        oracle: required for ``"adversarial"``; optional (but
            recommended) for ``"mixed"``.
        **params: kind-specific shape knobs, forwarded to the pair
            generator (e.g. ``alpha=`` for ``zipf``, ``targets=`` /
            ``bias=`` for ``flash-crowd``, ``cycles=`` / ``low=`` /
            ``high=`` for ``diurnal``, ``num_hotspots=`` /
            ``hotspot_bias=`` for ``hotspot``).

    Raises:
        GraphError: for unknown kinds, parameters the kind does not
            accept, or invalid parameter values.
    """
    generators = {
        "uniform": lambda: uniform_pairs(n, count, rng, **params),
        "hotspot": lambda: hotspot_pairs(n, count, rng, **params),
        "mixed": lambda: mixed_pairs(n, count, rng, oracle, **params),
        "zipf": lambda: zipf_pairs(n, count, rng, **params),
        "flash-crowd": lambda: flash_crowd_pairs(n, count, rng, **params),
        "diurnal": lambda: diurnal_pairs(n, count, rng, **params),
    }
    if kind == "adversarial":
        if oracle is None:
            raise GraphError("adversarial workloads need a DistanceOracle")
        generators["adversarial"] = lambda: adversarial_pairs(
            oracle, count, rng, **params
        )
    elif kind not in generators:
        raise GraphError(
            f"unknown workload kind {kind!r}; choose from {WORKLOAD_KINDS}"
        )
    try:
        return Workload(kind, generators[kind]())
    except TypeError as exc:
        raise GraphError(f"invalid {kind!r} workload parameters: {exc}")


@dataclass(frozen=True)
class EpochStretch:
    """Per-epoch stretch row of a scenario run.

    A scenario's phase walk (:mod:`repro.scenarios.runner`) routes one
    workload per phase, mutating the topology between phases.  Each
    phase, or epoch, contributes one of these rows to
    :attr:`TrafficSummary.epochs`, so the aggregate summary keeps the
    stretch trajectory across generations instead of flattening it.

    Attributes:
        index: epoch position in the phase sequence (0-based).
        generation: the :class:`~repro.api.network.Network` generation
            that served this epoch's traffic.
        pairs: journeys routed in this epoch.
        events: op names of the delta applied *before* this epoch's
            traffic (empty for a quiet epoch).
        repair: how the oracle crossed into this generation —
            ``"none"`` (no mutation), ``"incremental"`` (row-wise
            repair), or ``"rebuild"`` (keyed full rebuild).
        mean_stretch: average roundtrip stretch within the epoch.
        max_stretch: worst roundtrip stretch within the epoch.
        worst_pair: the pair achieving ``max_stretch``.
    """

    index: int
    generation: int
    pairs: int
    events: Tuple[str, ...] = ()
    repair: str = "none"
    mean_stretch: float = float("nan")
    max_stretch: float = float("nan")
    worst_pair: Tuple[int, int] = (-1, -1)

    def as_dict(self) -> dict:
        """A JSON-able dict (the serve protocol's wire form)."""
        return {
            "index": self.index,
            "generation": self.generation,
            "pairs": self.pairs,
            "events": list(self.events),
            "repair": self.repair,
            "mean_stretch": self.mean_stretch,
            "max_stretch": self.max_stretch,
            "worst_pair": list(self.worst_pair),
        }

    @classmethod
    def from_dict(cls, doc) -> "EpochStretch":
        """Rebuild from :meth:`as_dict` output (raises ``KeyError`` /
        ``TypeError`` / ``ValueError`` on malformed docs; the serve
        codec wraps those)."""
        worst = doc["worst_pair"]
        return cls(
            index=int(doc["index"]),
            generation=int(doc["generation"]),
            pairs=int(doc["pairs"]),
            events=tuple(str(e) for e in doc["events"]),
            repair=str(doc["repair"]),
            mean_stretch=float(doc["mean_stretch"]),
            max_stretch=float(doc["max_stretch"]),
            worst_pair=(int(worst[0]), int(worst[1])),
        )

    def format(self) -> str:
        """One human-readable line (a row under the summary block)."""
        label = f"epoch {self.index}"
        parts = [f"gen {self.generation} pairs={self.pairs}"]
        if self.events:
            parts.append(f"events=[{','.join(self.events)}]")
            parts.append(f"repair={self.repair}")
        if self.pairs and not np.isnan(self.max_stretch):
            parts.append(
                f"stretch mean {self.mean_stretch:.3f}, "
                f"max {self.max_stretch:.3f} at {self.worst_pair}"
            )
        return f"{label:<11}: " + " ".join(parts)


@dataclass
class TrafficSummary:
    """Aggregate statistics of one workload run.

    Attributes:
        kind: workload kind label.
        pairs: journeys executed.
        total_cost: summed roundtrip path cost.
        total_hops: summed roundtrip hop count.
        mean_cost: average roundtrip path cost.
        mean_hops: average roundtrip hop count.
        max_hops: worst roundtrip hop count.
        max_header_bits: largest header seen in any journey.
        mean_stretch: average roundtrip stretch (``nan`` without an
            oracle).
        max_stretch: worst roundtrip stretch (``nan`` without an
            oracle).
        worst_pair: the pair achieving ``max_stretch`` (``(-1, -1)``
            without an oracle or an empty workload).
        elapsed_s: wall-clock seconds spent routing the batch.
        epochs: per-epoch stretch rows for scenario runs (empty for a
            plain static-topology workload).
    """

    kind: str
    pairs: int
    total_cost: float
    total_hops: int
    mean_cost: float
    mean_hops: float
    max_hops: int
    max_header_bits: int
    mean_stretch: float
    max_stretch: float
    worst_pair: Tuple[int, int]
    elapsed_s: float
    epochs: Tuple[EpochStretch, ...] = ()

    @property
    def pairs_per_s(self) -> float:
        """Routing throughput of the batch (``nan`` when ``elapsed_s``
        is zero: a batch too small for ``perf_counter`` resolution is
        unmeasurable, not zero-throughput)."""
        return self.pairs / self.elapsed_s if self.elapsed_s > 0 else float("nan")

    @classmethod
    def merge(cls, summaries: Sequence["TrafficSummary"]) -> "TrafficSummary":
        """Aggregate several partial summaries into one.

        The merged summary equals (up to float summation order) the
        summary of the concatenated workload: totals add, means are
        recomputed pair-weighted, maxima take the first strictly
        larger part (so ``worst_pair`` matches the concatenated run's
        first-wins argmax), ``elapsed_s`` adds and the epoch rows
        concatenate.  A scenario run merges its per-phase summaries
        this way; :func:`run_workload` never merges, so a workload's
        summary does not depend on how it is cut into chunks.

        Stretch columns have *partial-coverage* semantics: parts
        measured without an oracle carry ``nan`` stretch, and the merge
        aggregates over the parts that do carry it — ``mean_stretch``
        is pair-weighted over the covered pairs only, and
        ``max_stretch``/``worst_pair`` take the first-wins maximum over
        the covered parts.  Only when *no* part has stretch does the
        merged summary report ``nan``/``(-1, -1)``, so mixing oracle
        and oracle-less parts never silently drops measured data.

        Raises:
            GraphError: for an empty summary list (there is no neutral
                ``kind``).
        """
        if not summaries:
            raise GraphError("TrafficSummary.merge needs at least one part")
        kinds = list(dict.fromkeys(s.kind for s in summaries))
        kind = kinds[0] if len(kinds) == 1 else "+".join(kinds)
        pairs = sum(s.pairs for s in summaries)
        total_cost = sum_in_order([s.total_cost for s in summaries])
        total_hops = sum(s.total_hops for s in summaries)
        elapsed = sum_in_order([s.elapsed_s for s in summaries])
        epochs = tuple(e for s in summaries for e in s.epochs)
        if pairs == 0:
            return cls(
                kind, 0, 0.0, 0, 0.0, 0.0, 0, 0, float("nan"),
                float("nan"), (-1, -1), elapsed, epochs,
            )
        max_hops = max(s.max_hops for s in summaries)
        max_bits = max(s.max_header_bits for s in summaries)
        with_stretch = [
            s for s in summaries if s.pairs and not np.isnan(s.max_stretch)
        ]
        mean_stretch = max_stretch = float("nan")
        worst_pair = (-1, -1)
        if with_stretch:
            covered = sum(s.pairs for s in with_stretch)
            mean_stretch = sum_in_order(
                [s.mean_stretch * s.pairs for s in with_stretch]
            ) / covered
            max_stretch = with_stretch[0].max_stretch
            worst_pair = with_stretch[0].worst_pair
            for s in with_stretch[1:]:
                if s.max_stretch > max_stretch:
                    max_stretch = s.max_stretch
                    worst_pair = s.worst_pair
        return cls(
            kind=kind,
            pairs=pairs,
            total_cost=total_cost,
            total_hops=total_hops,
            mean_cost=total_cost / pairs,
            mean_hops=total_hops / pairs,
            max_hops=max_hops,
            max_header_bits=max_bits,
            mean_stretch=mean_stretch,
            max_stretch=max_stretch,
            worst_pair=worst_pair,
            elapsed_s=elapsed,
            epochs=epochs,
        )

    def format(self) -> str:
        """Human-readable block, as printed by the CLI."""
        lines = [
            f"workload   : {self.kind}",
            f"pairs      : {self.pairs}",
            f"total cost : {self.total_cost:.1f}",
            f"mean cost  : {self.mean_cost:.2f}",
            f"mean hops  : {self.mean_hops:.2f}   (max {self.max_hops})",
            f"hdr bits   : {self.max_header_bits}",
        ]
        if self.pairs and not np.isnan(self.max_stretch):
            lines.append(
                f"stretch    : mean {self.mean_stretch:.3f}, "
                f"max {self.max_stretch:.3f} at {self.worst_pair}"
            )
        if np.isnan(self.pairs_per_s):
            lines.append(
                f"throughput : unmeasurable "
                f"({self.elapsed_s * 1000:.1f} ms)"
            )
        else:
            lines.append(
                f"throughput : {self.pairs_per_s:,.0f} pairs/s "
                f"({self.elapsed_s * 1000:.1f} ms)"
            )
        for epoch in self.epochs:
            lines.append(epoch.format())
        return "\n".join(lines)


def sum_in_order(values: Sequence[float]) -> float:
    """``values`` added one at a time from the left (0.0 for none), as
    every float total of a summary is: the builtin ``sum()`` compensates
    its rounding since Python 3.12, which would move those totals."""
    running = np.add.accumulate(np.asarray(values, dtype=np.float64))
    return float(running[-1]) if running.size else 0.0


def require_integer_endpoints(pairs: Sequence[Tuple[int, int]]) -> None:
    """Reject a pair whose source or destination is not an integer
    (Python and numpy integers and bools are; a float, even ``3.0``, a
    string or ``None`` is not).

    Raises:
        GraphError: naming the first such pair.
    """
    integer = (int, np.integer, np.bool_)
    for s, t in pairs:
        if not (isinstance(s, integer) and isinstance(t, integer)):
            raise GraphError(
                f"pair ({s!r}, {t!r}) has an endpoint that is not an integer"
            )


def check_pairs(n: int, pairs: "np.ndarray | Sequence[Tuple[int, int]]") -> np.ndarray:
    """Reject pairs no roundtrip can be routed or measured on, and
    return the rest as one ``(B, 2)`` int64 array: column 0 holds the
    sources, column 1 the destinations.  An int64 array comes back
    itself, uncopied (the generators' read-only arrays included); any
    other input is converted once.  Every later stage of a batch reads
    this array; nothing converts the pairs again.

    Raises:
        GraphError: for input that is not a list of pairs, for the first
            pair with an endpoint that is not an integer
            (:func:`require_integer_endpoints`), outside ``[0, n)``, or
            with ``source == destination`` (roundtrip stretch is
            undefined there).
    """
    try:
        arr = np.asarray(pairs)
    except ValueError:
        arr = None
    if arr is None or (arr.size and (arr.ndim != 2 or arr.shape[1] != 2)):
        raise GraphError("pairs must be a list of (source, destination) pairs")
    if not arr.size and (arr.shape != (0, 2) or arr.dtype != np.int64):
        return np.empty((0, 2), dtype=np.int64)
    if arr.dtype.kind not in "biu":
        # floats, strings and None; or integers beyond int64, which
        # numpy holds as objects or floats
        require_integer_endpoints(
            arr.tolist() if isinstance(pairs, np.ndarray) else pairs
        )
        raise GraphError(f"a pair endpoint is out of range for n={n}")
    s, t = arr.T
    outside = (s < 0) | (s >= n) | (t < 0) | (t >= n)
    bad = outside | (s == t)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problem = (
            f"is out of range for n={n}" if outside[i]
            else "needs source != destination"
        )
        raise GraphError(f"pair ({int(s[i])}, {int(t[i])}) {problem}")
    return arr.astype(np.int64, copy=False)


def chunk_starts(total: int, size: Optional[int] = None) -> range:
    """The first pair of each engine call :func:`run_workload` makes
    for ``total`` pairs in chunks of ``size`` (default
    :data:`CHUNK_PAIRS`): its ``step`` is the chunk size, and its length
    the number of calls (zero for an empty workload)."""
    return range(0, total, size or CHUNK_PAIRS)


def _summarize(
    kind: str,
    pairs: np.ndarray,
    costs: np.ndarray,
    hops: np.ndarray,
    bits: np.ndarray,
    r_matrix,
    elapsed: float,
) -> TrafficSummary:
    """Aggregate a whole workload's columns into a
    :class:`TrafficSummary`.

    ``pairs`` is :func:`check_pairs`' array; ``costs``, ``hops`` and
    ``bits`` are arrays of every pair's cost, hops and max header bits
    in input order; ``r_matrix`` is the oracle's roundtrip-distance
    matrix (or ``None`` for no stretch columns).  Every field is a
    Python number, so its ``repr`` never reads ``np.float64(...)``.
    """
    if not len(costs):
        return TrafficSummary(
            kind, 0, 0.0, 0, 0.0, 0.0, 0, 0, float("nan"), float("nan"),
            (-1, -1), elapsed,
        )
    total_cost = sum_in_order(costs)
    total_hops = int(hops.sum())
    mean_stretch = max_stretch = float("nan")
    worst_pair = (-1, -1)
    if r_matrix is not None:
        # Elementwise float64 division rounds exactly as the scalar one.
        sources, dests = pairs.T
        stretches = costs / r_matrix[sources, dests]
        mean_stretch = sum_in_order(stretches) / len(stretches)
        worst = int(np.argmax(stretches))  # the first maximum
        max_stretch = float(stretches[worst])
        worst_pair = tuple(pairs[worst].tolist())
    return TrafficSummary(
        kind=kind,
        pairs=len(costs),
        total_cost=total_cost,
        total_hops=total_hops,
        mean_cost=total_cost / len(costs),
        mean_hops=total_hops / len(costs),
        max_hops=int(hops.max()),
        max_header_bits=int(bits.max()),
        mean_stretch=mean_stretch,
        max_stretch=max_stretch,
        worst_pair=worst_pair,
        elapsed_s=elapsed,
    )


def run_workload(
    scheme,
    workload: "Workload | np.ndarray | Sequence[Tuple[int, int]]",
    oracle: Optional[DistanceOracle] = None,
    hop_limit: Optional[int] = None,
    engine: str = "auto",
    shard_size: Optional[int] = None,
    jobs: Optional[int] = None,
) -> TrafficSummary:
    """Route a whole workload and aggregate the statistics.

    The pairs are routed in chunks of :data:`CHUNK_PAIRS`, slices of
    :func:`check_pairs`' array, one :meth:`Simulator.roundtrip_many`
    call each, so only one chunk's traces are alive at a time.  Each
    chunk leaves its cost, hop and header columns behind in arrays, and
    the summary is computed once over the whole columns: it is the
    same, bit for bit, whatever the chunk size (only ``elapsed_s``,
    physical time, varies; it sums the routing time of the chunks).
    One-time
    :meth:`RoutingScheme.compile_tables` work is excluded from
    ``elapsed_s``, so throughput is comparable across engines.

    Args:
        scheme: the scheme under load (already constructed).
        workload: a :class:`Workload`, or its pairs alone: a
            ``(B, 2)`` integer array or a sequence of pairs.
        oracle: ground-truth distances; enables stretch columns.
        hop_limit: forwarded to the :class:`Simulator`.
        engine: execution engine for the batches (``"auto"`` /
            ``"vectorized"`` / ``"python"``, see
            :meth:`Simulator.roundtrip_many`); summaries are identical
            across engines.
        shard_size: pairs per chunk instead of :data:`CHUNK_PAIRS`; it
            moves memory and time only.
        jobs: accepted and ignored.  It is kept for the one caller that
            still passes it, the benchmark's ``stack-headers``
            workload, until a benchmark change drops it.

    Raises:
        GraphError: for a pair :func:`check_pairs` rejects (an endpoint
            out of range, or ``source == destination``), or for a
            ``shard_size`` below 1.
        RoutingError: propagated from the simulator on any failure; a
            failing journey raises the error of the first failure in
            input order, as one batch of every pair would.
    """
    if not isinstance(workload, Workload):
        workload = Workload("custom", workload)
    pairs = check_pairs(scheme.graph.n, workload.pairs)
    if shard_size is not None and shard_size < 1:
        raise GraphError(f"shard_size must be >= 1, got {shard_size}")
    sim = Simulator(scheme, hop_limit=hop_limit)
    resolved = sim.resolve_engine(engine)  # compiles outside the timed region
    costs = np.empty(len(pairs), dtype=np.float64)
    hops = np.empty(len(pairs), dtype=np.int64)
    bits = np.empty(len(pairs), dtype=np.int64)
    elapsed = 0.0
    starts = chunk_starts(len(pairs), shard_size)
    for lo in starts:
        chunk = slice(lo, lo + starts.step)
        t0 = time.perf_counter()
        batch = sim.roundtrip_many(pairs[chunk], engine=resolved)
        elapsed += time.perf_counter() - t0
        costs[chunk] = batch.cost
        hops[chunk] = batch.hops
        bits[chunk] = batch.max_header_bits
    r_matrix = oracle.r_matrix if oracle is not None else None
    return _summarize(workload.kind, pairs, costs, hops, bits, r_matrix, elapsed)
