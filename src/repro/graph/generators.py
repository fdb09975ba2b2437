"""Workload graph generators.

The paper has no testbed, so the benchmark workloads are synthetic
strongly connected digraph families chosen to exercise the behaviours
the paper's introduction motivates:

* :func:`random_strongly_connected` — sparse Erdos-Renyi-style digraphs
  repaired to strong connectivity; the generic "arbitrary network".
* :func:`directed_cycle` — the extreme asymmetric case: ``d(u, v)`` and
  ``d(v, u)`` are maximally unbalanced, stressing the roundtrip metric.
* :func:`bidirected_torus` — the grid example from the paper's own
  introduction (every edge present in both directions).
* :func:`asymmetric_torus` — torus with direction-dependent weights,
  a "road network with one-way streets" analogue.
* :func:`random_dht_overlay` — ring plus random chords, the
  peer-to-peer overlay topology that Section 6 suggests as an
  application domain.
* :func:`layered_random` — DAG-like layers closed by a feedback
  spine: strongly connected but with long roundtrips, the hard regime
  for one-way routing that motivates roundtrip routing.
* :func:`scale_free_directed` — preferential attachment with hubs,
  an AS-internet-like topology.
* :func:`power_law_directed` — explicit power-law out-degrees (a
  configuration-model cousin of the preferential-attachment family;
  the degree exponent is a knob, which scenario specs exploit).
* :func:`grid_with_shortcuts` — the torus grid plus random long-range
  bidirected shortcut chords, the small-world regime between the pure
  grid and the random digraph.
* :func:`snapshot_from_edgelist` — a frozen graph parsed from an
  edge-list text (``tail head [weight]`` lines), so recorded topology
  snapshots can be committed and replayed as scenario data.
* :func:`bidirected_clique`, :func:`bidirected_hypercube` — dense
  bidirected instances used by the lower-bound experiments (Section 5
  reduces roundtrip hardness to undirected hardness on exactly this
  doubled form).

All generators take an explicit ``random.Random`` seed object and
return frozen graphs with adversarial ports drawn from that rng, so
experiments are reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import GraphError
from repro.graph.digraph import Digraph
from repro.graph.scc import strongly_connected_components


def _weight(rng: random.Random, lo: float, hi: float) -> float:
    """A uniformly random edge weight in ``[lo, hi]``."""
    if lo > hi or lo <= 0:
        raise GraphError(f"invalid weight range [{lo}, {hi}]")
    return rng.uniform(lo, hi)


def directed_cycle(
    n: int,
    rng: Optional[random.Random] = None,
    w_lo: float = 1.0,
    w_hi: float = 1.0,
) -> Digraph:
    """A single directed cycle ``0 -> 1 -> ... -> n-1 -> 0``.

    The most asymmetric strongly connected digraph: ``d(u, v)`` may be 1
    while ``d(v, u) = n - 1``.
    """
    rng = rng or random.Random(0)
    g = Digraph(n)
    for u in range(n):
        g.add_edge(u, (u + 1) % n, _weight(rng, w_lo, w_hi))
    return g.freeze(rng)


def random_strongly_connected(
    n: int,
    avg_out_degree: float = 3.0,
    rng: Optional[random.Random] = None,
    w_lo: float = 1.0,
    w_hi: float = 10.0,
) -> Digraph:
    """Sparse random digraph repaired to strong connectivity.

    Starts from a random Hamiltonian backbone cycle (which guarantees
    strong connectivity while keeping diameters interesting) and adds
    random chords until the target average out-degree is met.

    Args:
        n: vertex count.
        avg_out_degree: target mean out-degree (must be >= 1).
        rng: randomness source.
        w_lo, w_hi: edge-weight range.
    """
    if avg_out_degree < 1:
        raise GraphError("avg_out_degree must be >= 1 for strong connectivity")
    rng = rng or random.Random(0)
    g = Digraph(n)
    backbone = list(range(n))
    rng.shuffle(backbone)
    present = set()
    for i in range(n):
        u, v = backbone[i], backbone[(i + 1) % n]
        g.add_edge(u, v, _weight(rng, w_lo, w_hi))
        present.add((u, v))
    target_m = int(avg_out_degree * n)
    attempts = 0
    while len(present) < target_m and attempts < 20 * target_m:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in present:
            continue
        g.add_edge(u, v, _weight(rng, w_lo, w_hi))
        present.add((u, v))
    return g.freeze(rng)


def bidirected_torus(
    rows: int,
    cols: int,
    rng: Optional[random.Random] = None,
    w_lo: float = 1.0,
    w_hi: float = 1.0,
) -> Digraph:
    """A ``rows x cols`` torus with each undirected edge doubled.

    The paper's introduction uses the planar grid as its running
    example; the torus avoids boundary effects.
    """
    rng = rng or random.Random(0)
    n = rows * cols

    def vid(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    g = Digraph(n)
    for r in range(rows):
        for c in range(cols):
            u = vid(r, c)
            for (dr, dc) in ((0, 1), (1, 0)):
                v = vid(r + dr, c + dc)
                w = _weight(rng, w_lo, w_hi)
                g.add_edge(u, v, w)
                g.add_edge(v, u, w)
    return g.freeze(rng)


def asymmetric_torus(
    rows: int,
    cols: int,
    rng: Optional[random.Random] = None,
    forward_w: float = 1.0,
    backward_w: float = 4.0,
) -> Digraph:
    """Torus whose two directions per link have different weights.

    Models one-way-favoured links (e.g. asymmetric bandwidth); the
    roundtrip metric stays symmetric but one-way distances do not.
    """
    rng = rng or random.Random(0)
    n = rows * cols

    def vid(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    g = Digraph(n)
    for r in range(rows):
        for c in range(cols):
            u = vid(r, c)
            for (dr, dc) in ((0, 1), (1, 0)):
                v = vid(r + dr, c + dc)
                g.add_edge(u, v, forward_w)
                g.add_edge(v, u, backward_w)
    return g.freeze(rng)


def random_dht_overlay(
    n: int,
    chords_per_node: int = 2,
    rng: Optional[random.Random] = None,
    w_lo: float = 1.0,
    w_hi: float = 4.0,
) -> Digraph:
    """Directed ring plus random directed chords (peer-to-peer overlay).

    Section 6 suggests compact roundtrip routing as a tool for routing
    and searching peer-to-peer overlays; this family mimics a
    Chord-like overlay whose finger links are one-directional.
    """
    rng = rng or random.Random(0)
    g = Digraph(n)
    present = set()
    for u in range(n):
        v = (u + 1) % n
        g.add_edge(u, v, _weight(rng, w_lo, w_hi))
        present.add((u, v))
    for u in range(n):
        added = 0
        attempts = 0
        while added < chords_per_node and attempts < 10 * chords_per_node:
            attempts += 1
            v = rng.randrange(n)
            if v == u or (u, v) in present:
                continue
            g.add_edge(u, v, _weight(rng, w_lo, w_hi))
            present.add((u, v))
            added += 1
    return g.freeze(rng)


def layered_random(
    layers: int,
    width: int,
    rng: Optional[random.Random] = None,
    w_lo: float = 1.0,
    w_hi: float = 3.0,
    density: float = 0.5,
) -> Digraph:
    """Layered feed-forward digraph closed by a feedback spine.

    Vertices are arranged in ``layers`` layers of ``width``; random
    forward edges connect consecutive layers and a single heavy spine
    returns from the last layer to the first, so every roundtrip must
    traverse the spine: roundtrip distances are large and uniform while
    one-way forward distances are small, which is the regime where
    roundtrip stretch differs most from one-way stretch.
    """
    rng = rng or random.Random(0)
    n = layers * width
    g = Digraph(n)

    def vid(layer: int, i: int) -> int:
        return layer * width + i

    present = set()

    def add(u: int, v: int, w: float) -> None:
        if u != v and (u, v) not in present:
            g.add_edge(u, v, w)
            present.add((u, v))

    for layer in range(layers - 1):
        # Guarantee per-node forward connectivity, then sprinkle.
        for i in range(width):
            j = rng.randrange(width)
            add(vid(layer, i), vid(layer + 1, j), _weight(rng, w_lo, w_hi))
        for i in range(width):
            for j in range(width):
                if rng.random() < density / width:
                    add(vid(layer, i), vid(layer + 1, j), _weight(rng, w_lo, w_hi))
        # Ensure every node of layer+1 has an in-edge from this layer.
        covered = {v for (u, v) in present if layer * width <= u < (layer + 1) * width}
        for j in range(width):
            v = vid(layer + 1, j)
            if v not in covered:
                add(vid(layer, rng.randrange(width)), v, _weight(rng, w_lo, w_hi))
    # Intra-layer ring so each layer is internally reachable.
    for layer in range(layers):
        for i in range(width):
            add(vid(layer, i), vid(layer, (i + 1) % width), _weight(rng, w_lo, w_hi))
    # Feedback spine from every last-layer node to layer 0, node 0.
    for i in range(width):
        add(vid(layers - 1, i), vid(0, 0), _weight(rng, w_lo, w_hi) * 2)
    return g.freeze(rng)


def scale_free_directed(
    n: int,
    rng: Optional[random.Random] = None,
    attach: int = 2,
    w_lo: float = 1.0,
    w_hi: float = 3.0,
) -> Digraph:
    """Directed preferential-attachment graph closed into one SCC.

    New nodes attach ``attach`` out-edges to targets drawn with
    probability proportional to in-degree (Barabasi-Albert flavour),
    producing hub-dominated topologies like AS-level internets; a
    return path per node (to a random earlier attachment point) plus a
    backbone cycle guarantees strong connectivity.
    """
    rng = rng or random.Random(0)
    if n < 3:
        return directed_cycle(n, rng)
    g = Digraph(n)
    present = set()

    def add(u: int, v: int, w: float) -> None:
        if u != v and (u, v) not in present:
            g.add_edge(u, v, w)
            present.add((u, v))

    # backbone cycle for strong connectivity
    order = list(range(n))
    rng.shuffle(order)
    for i in range(n):
        add(order[i], order[(i + 1) % n], _weight(rng, w_lo, w_hi))
    # preferential attachment on top
    targets: List[int] = [order[0], order[1]]
    for i in range(2, n):
        u = order[i]
        for _ in range(attach):
            v = rng.choice(targets)
            add(u, v, _weight(rng, w_lo, w_hi))
            targets.append(v)
        targets.append(u)
    return g.freeze(rng)


def power_law_directed(
    n: int,
    rng: Optional[random.Random] = None,
    exponent: float = 2.2,
    max_degree: Optional[int] = None,
    w_lo: float = 1.0,
    w_hi: float = 3.0,
) -> Digraph:
    """Directed graph with explicit power-law out-degrees.

    Each vertex draws its out-degree from ``P(d) ~ d^-exponent`` over
    ``1..max_degree`` (inverse-CDF sampling, default cap ``n // 4``)
    and attaches that many chords to uniformly random targets; a
    shuffled backbone cycle guarantees strong connectivity.  Unlike
    :func:`scale_free_directed` (preferential attachment, where the
    exponent is emergent), the degree exponent here is a direct knob —
    the property scenario specs parameterize.

    Raises:
        GraphError: for ``exponent <= 1`` (the tail mass diverges) or
            an invalid ``max_degree``.
    """
    if exponent <= 1.0:
        raise GraphError(f"power-law exponent must be > 1, got {exponent}")
    rng = rng or random.Random(0)
    if n < 3:
        return directed_cycle(n, rng)
    cap = max_degree if max_degree is not None else max(1, n // 4)
    if not 1 <= cap < n:
        raise GraphError(f"max_degree must be in [1, n), got {cap}")
    # Inverse-CDF table over the truncated power law.
    masses = [d ** -exponent for d in range(1, cap + 1)]
    total = sum(masses)
    cdf = []
    acc = 0.0
    for m in masses:
        acc += m
        cdf.append(acc / total)

    def draw_degree() -> int:
        u = rng.random()
        for d, threshold in enumerate(cdf, start=1):
            if u <= threshold:
                return d
        return cap

    g = Digraph(n)
    present = set()

    def add(u: int, v: int, w: float) -> None:
        if u != v and (u, v) not in present:
            g.add_edge(u, v, w)
            present.add((u, v))

    order = list(range(n))
    rng.shuffle(order)
    for i in range(n):
        add(order[i], order[(i + 1) % n], _weight(rng, w_lo, w_hi))
    for u in range(n):
        wanted = draw_degree()
        attempts = 0
        added = 0
        while added < wanted and attempts < 10 * wanted + 10:
            attempts += 1
            v = rng.randrange(n)
            if v == u or (u, v) in present:
                continue
            add(u, v, _weight(rng, w_lo, w_hi))
            added += 1
    return g.freeze(rng)


def grid_with_shortcuts(
    rows: int,
    cols: int,
    rng: Optional[random.Random] = None,
    shortcuts: Optional[int] = None,
    w_lo: float = 1.0,
    w_hi: float = 1.0,
    shortcut_lo: float = 1.0,
    shortcut_hi: float = 2.0,
) -> Digraph:
    """A bidirected torus grid with random long-range shortcut chords.

    Starts from :func:`bidirected_torus`'s edge set and adds
    ``shortcuts`` (default ``rows * cols // 4``) bidirected chords
    between uniformly random vertex pairs — the small-world regime
    where most pairs ride the grid but a few hop across it, sitting
    between the pure torus and the random digraph.

    Raises:
        GraphError: for a negative shortcut count.
    """
    rng = rng or random.Random(0)
    n = rows * cols
    count = shortcuts if shortcuts is not None else n // 4
    if count < 0:
        raise GraphError(f"shortcuts must be >= 0, got {count}")

    def vid(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    g = Digraph(n)
    present = set()

    def add_both(u: int, v: int, w: float) -> None:
        for (a, b) in ((u, v), (v, u)):
            if (a, b) not in present:
                g.add_edge(a, b, w)
                present.add((a, b))

    for r in range(rows):
        for c in range(cols):
            u = vid(r, c)
            for (dr, dc) in ((0, 1), (1, 0)):
                add_both(u, vid(r + dr, c + dc), _weight(rng, w_lo, w_hi))
    added = 0
    attempts = 0
    while added < count and attempts < 20 * count + 20:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in present:
            continue
        add_both(u, v, _weight(rng, shortcut_lo, shortcut_hi))
        added += 1
    return g.freeze(rng)


def parse_edgelist(text: str) -> Tuple[int, List[Tuple[int, int, float]]]:
    """Parse edge-list text into ``(n, [(tail, head, weight), ...])``.

    One edge per line as ``tail head [weight]`` (whitespace- or
    comma-separated, weight defaults to 1.0); blank lines and ``#``
    comments are ignored.  ``n`` is ``max vertex id + 1``.

    Raises:
        GraphError: for malformed lines, negative ids, nonpositive
            weights, duplicate edges, self-loops, or an empty list —
            each naming the offending line number.
    """
    edges: List[Tuple[int, int, float]] = []
    seen = set()
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise GraphError(
                f"edgelist line {lineno}: expected 'tail head [weight]', "
                f"got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GraphError(
                f"edgelist line {lineno}: expected 'tail head [weight]', "
                f"got {line!r}"
            )
        if u < 0 or v < 0:
            raise GraphError(
                f"edgelist line {lineno}: vertex ids must be >= 0"
            )
        if u == v:
            raise GraphError(
                f"edgelist line {lineno}: self-loop {u} -> {v}"
            )
        if w <= 0:
            raise GraphError(
                f"edgelist line {lineno}: weight must be positive, got {w}"
            )
        if (u, v) in seen:
            raise GraphError(
                f"edgelist line {lineno}: duplicate edge {u} -> {v}"
            )
        seen.add((u, v))
        edges.append((u, v, w))
        top = max(top, u, v)
    if not edges:
        raise GraphError("edgelist has no edges")
    return top + 1, edges


def snapshot_from_edgelist(
    source,
    rng: Optional[random.Random] = None,
) -> Digraph:
    """A frozen graph from an edge-list file or its text.

    ``source`` is a filesystem path (anything without a newline that
    names an existing file) or the edge-list text itself; the parsed
    graph must be strongly connected — snapshots exist to be routed on.

    Raises:
        GraphError: for unreadable files, malformed lines (see
            :func:`parse_edgelist`), or a snapshot that is not
            strongly connected.
    """
    text = str(source)
    if "\n" not in text:
        from pathlib import Path

        try:
            text = Path(text).read_text(encoding="utf-8")
        except OSError as exc:
            raise GraphError(f"cannot read edgelist file: {exc}")
    n, edges = parse_edgelist(text)
    g = Digraph(n)
    for (u, v, w) in edges:
        g.add_edge(u, v, w)
    g = g.freeze(rng or random.Random(0))
    comps = strongly_connected_components(g)
    if len(comps) != 1:
        raise GraphError(
            f"edgelist snapshot is not strongly connected "
            f"({len(comps)} components)"
        )
    return g


def bidirected_clique(
    n: int,
    rng: Optional[random.Random] = None,
    w_lo: float = 1.0,
    w_hi: float = 2.0,
) -> Digraph:
    """Complete bidirected graph (both directions of every pair).

    The doubled form used by Theorem 15's reduction; with near-uniform
    weights every pair is at roundtrip distance about ``w_lo + w_hi``
    and low-stretch routing cannot shortcut through landmarks.
    """
    rng = rng or random.Random(0)
    g = Digraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            w = _weight(rng, w_lo, w_hi)
            g.add_edge(u, v, w)
            g.add_edge(v, u, w)
    return g.freeze(rng)


def bidirected_hypercube(
    dim: int,
    rng: Optional[random.Random] = None,
) -> Digraph:
    """Bidirected ``dim``-dimensional hypercube with unit weights."""
    rng = rng or random.Random(0)
    n = 1 << dim
    g = Digraph(n)
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if u < v:
                g.add_edge(u, v, 1.0)
                g.add_edge(v, u, 1.0)
    return g.freeze(rng)


def bidirect(g: Digraph, rng: Optional[random.Random] = None) -> Digraph:
    """Theorem 15's transform: replace each edge by both directions.

    For an input digraph, produces ``N'``: for every edge ``(u, v)`` of
    weight ``w``, both ``(u, v)`` and ``(v, u)`` of weight ``w`` exist
    in the output (if both directions already exist with different
    weights, the minimum is used so the result is symmetric).
    """
    rng = rng or random.Random(0)
    sym: Dict[Tuple[int, int], float] = {}
    for u in range(g.n):
        for (v, w) in g.out_neighbors(u):
            key = (min(u, v), max(u, v))
            sym[key] = min(w, sym.get(key, float("inf")))
    out = Digraph(g.n)
    for (u, v), w in sorted(sym.items()):
        out.add_edge(u, v, w)
        out.add_edge(v, u, w)
    return out.freeze(rng)


# ----------------------------------------------------------------------
# The standard benchmark suite
# ----------------------------------------------------------------------

def _side(n: int) -> int:
    """Grid families round ``n`` to the nearest square side (>= 2)."""
    return max(2, int(round(n ** 0.5)))


#: One builder per standard family, ``(n, rng, params) -> Digraph``,
#: in registry order; ``params`` are extra generator keywords.  Grid
#: families use ``_side(n)`` squared vertices and ``layered`` uses
#: ``max(2, n // 8)`` layers of 8.
_FAMILY_BUILDERS: Dict[str, Callable[[int, random.Random, dict], Digraph]] = {
    "random": lambda n, rng, kw: random_strongly_connected(n, rng=rng, **kw),
    "cycle": lambda n, rng, kw: directed_cycle(n, rng=rng, **kw),
    "torus": lambda n, rng, kw: bidirected_torus(
        _side(n), _side(n), rng=rng, **kw
    ),
    "asym-torus": lambda n, rng, kw: asymmetric_torus(
        _side(n), _side(n), rng=rng, **kw
    ),
    "dht": lambda n, rng, kw: random_dht_overlay(n, rng=rng, **kw),
    "layered": lambda n, rng, kw: layered_random(
        max(2, n // 8), 8, rng=rng, **kw
    ),
    "scale-free": lambda n, rng, kw: scale_free_directed(n, rng=rng, **kw),
    "power-law": lambda n, rng, kw: power_law_directed(n, rng=rng, **kw),
    "grid-shortcuts": lambda n, rng, kw: grid_with_shortcuts(
        _side(n), _side(n), rng=rng, **kw
    ),
}

#: The standard family names, in registry order.
FAMILY_NAMES = tuple(_FAMILY_BUILDERS)

#: Smallest ``n`` each family builds: below 2 vertices a single-vertex
#: family would need a self-loop, and a torus needs sides of at least 3
#: (``_side(n) >= 3``) so wrap-around edges differ from grid edges.  The
#: grid and layered families round small ``n`` up to their smallest shape.
_FAMILY_MIN_N: Dict[str, int] = {
    "random": 2,
    "cycle": 2,
    "torus": 7,
    "asym-torus": 7,
    "dht": 2,
    "layered": 1,
    "scale-free": 2,
    "power-law": 2,
    "grid-shortcuts": 1,
}


def _family_builder(family: str, n: int):
    builder = _FAMILY_BUILDERS.get(family)
    if builder is None:
        raise GraphError(
            f"unknown family {family!r}; choose from {sorted(FAMILY_NAMES)}"
        )
    if n < _FAMILY_MIN_N[family]:
        raise GraphError(
            f"family {family!r} needs n >= {_FAMILY_MIN_N[family]}, got {n}"
        )
    return builder


def build_family(
    family: str, n: int, rng: random.Random, params: Optional[dict] = None
) -> Digraph:
    """One graph of a standard family at size about ``n``, drawn from
    ``rng`` (``params`` are extra generator keywords).

    Raises:
        GraphError: for an unknown family (choices listed), an ``n``
            below the family's smallest size, or a parameter value the
            generator rejects.
        TypeError: for a parameter the generator does not take.
    """
    return _family_builder(family, n)(n, rng, params or {})


def standard_family(family: str, n: int, seed: int = 0) -> Digraph:
    """``standard_families(n, seed)[family]``, without building the
    other families: family ``i`` (in :data:`FAMILY_NAMES` order) draws
    from ``random.Random(seed + i)``.

    Raises:
        GraphError: for an unknown family (choices listed), or an ``n``
            below the family's smallest size.
    """
    builder = _family_builder(family, n)
    return builder(n, random.Random(seed + FAMILY_NAMES.index(family)), {})


def standard_families(n: int, seed: int = 0) -> Dict[str, Digraph]:
    """The benchmark suite: :func:`standard_family` for every family
    at size about ``n`` (grid-like families round to the nearest shape).

    Returns:
        Mapping family name -> frozen digraph.
    """
    return {name: standard_family(name, n, seed) for name in FAMILY_NAMES}


def verify_generator_output(g: Digraph) -> None:
    """Assert generator invariants (strong connectivity, positive
    weights, frozen) — shared test helper."""
    assert g.frozen, "generators must return frozen graphs"
    assert g.min_weight() > 0, "weights must be positive"
    comps = strongly_connected_components(g)
    assert len(comps) == 1, f"expected strong connectivity, got {len(comps)} SCCs"
