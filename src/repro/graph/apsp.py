"""Vectorized all-pairs shortest paths over a CSR adjacency.

The paper's centralized preprocessing is dominated by an all-pairs
shortest-path computation (Section 6).  The classic realization — one
heap Dijkstra per source — spends all its time in the Python
interpreter.  This module instead runs a *batched* relaxation: all
``n`` sources are carried as rows of one ``(n, n)`` distance matrix
and each sweep relaxes every in-edge of every vertex for every source
at once (a multi-source Bellman-Ford, in the spirit of Δ-stepping's
bucket-wide relaxations).  Two ingredients make it fast:

* **Warm start.**  The plain minimum distance matrix is computed first
  (via :mod:`scipy.sparse.csgraph` when available, else with the same
  batched kernels in min-only mode).  Canonical relaxation then
  converges in one or two sweeps instead of graph-diameter sweeps.
* **Degree-class kernels.**  Vertices are grouped by in-degree, so
  each sweep is a handful of dense ``(sources, vertices, degree)``
  numpy reductions with no per-vertex Python work and no ragged
  segment reductions.

Canonical tie-breaking
----------------------

:func:`repro.graph.shortest_paths.dijkstra` breaks ties so that when
two shortest paths to ``v`` have equal length (within
:data:`TIE_EPS`), the one whose *predecessor has the smaller vertex
id* wins; the resulting trees are canonical and the cluster-closure
property of the RTZ substrate depends on them.  The batched engine
reproduces this bit-for-bit with a windowed argmin per
(source, vertex):

1. ``best`` is the minimum over in-edge candidates ``d[s, u] + w(u, v)``;
2. the *window* is every candidate within ``TIE_EPS`` of ``best``;
3. the parent is the smallest ``u`` in the window, and ``d[s, v]``
   becomes *that parent's* candidate value — the same float the
   sequential fold stores when the winning predecessor relaxes ``v``.

Because edge weights are required to be much larger than ``TIE_EPS``
(see :func:`vectorized_engine_supported`), a predecessor at
equal-or-greater distance can never enter the window.  That makes the
sweep's fixpoint independent of relaxation order: any distance matrix
whose rows are unchanged by one sweep has acyclic parent chains (a
parent is always strictly closer to the source), so every finite entry
is a true path sum, and induction over distance rank shows the
fixpoint equals the sequential Dijkstra fold exactly — floats and
parents both.  The differential suite in ``tests/test_csr_apsp.py``
asserts this equality across every standard graph family.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.csr import CSRGraph

#: scipy is optional and used only to accelerate the warm start, so it
#: is imported on the first warm start (:func:`_load_scipy`), not with
#: this module: a process that loads its oracle from the store never
#: pays for it.  ``_UNLOADED`` until then, ``None`` when scipy is absent.
_UNLOADED = object()
_sp_csr_matrix = _UNLOADED
_sp_dijkstra = _UNLOADED


def _load_scipy():
    """scipy's ``dijkstra`` (importing it on first use), or ``None``
    when scipy is not installed."""
    global _sp_csr_matrix, _sp_dijkstra
    if _sp_dijkstra is _UNLOADED:
        try:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import dijkstra
        except ImportError:  # pragma: no cover - where scipy is absent
            csr_matrix = dijkstra = None
        _sp_csr_matrix, _sp_dijkstra = csr_matrix, dijkstra
    return _sp_dijkstra

#: Absolute tolerance under which two path lengths count as tied.
#: Shared with the sequential Dijkstra so both engines canonicalize
#: identically.
TIE_EPS = 1e-12

#: Smallest edge weight the vectorized engine accepts: weights must
#: dominate the tie tolerance for the windowed argmin to be exact.
MIN_SAFE_WEIGHT = 1e3 * TIE_EPS

#: Soft cap on elements per temporary ``(sources, vertices, degree)``
#: tensor; sources are processed in chunks so memory stays bounded.
_CHUNK_ELEMS = 4_000_000

#: Up to this vertex count each degree class also carries a dense
#: ``(n + 1, |class|)`` weight lookup, letting the sweep fetch the
#: winning parent's edge weight with one small gather instead of a
#: full-tensor reduction (the ``+1`` row is an all-inf sentinel for
#: "no parent").  Beyond it the lookup's quadratic memory stops paying.
_DENSE_W_MAX_N = 1024

#: Scratch buffers up to this many bytes stay cached on the degree
#: classes between engine runs (repeat builds on the same graph skip
#: the allocator's mmap + page-fault path); larger scratch is
#: released when an APSP call finishes so big graphs don't pin tens
#: of MiB of dead temporaries.
_SCRATCH_KEEP_BYTES = 8_000_000


def vectorized_engine_supported(csr: CSRGraph) -> bool:
    """Whether the batched engine's tie-break is exact for this graph.

    Two conditions: all edge weights must dominate the absolute tie
    tolerance :data:`TIE_EPS`, and they must also dominate the float
    spacing (ulp) at the largest possible path-distance magnitude —
    otherwise rounding at huge distance scales can move genuinely
    distinct path lengths into (or out of) the tie window differently
    than the sequential fold does.  ``n * max_weight`` bounds any
    simple-path distance.
    """
    if csr.m == 0:
        return True
    min_w = csr.min_weight()
    ulp_at_scale = float(np.spacing(csr.n * float(csr.out_weights.max())))
    return min_w > max(MIN_SAFE_WEIGHT, 1e3 * ulp_at_scale)


# Degree classes are derived purely from the (immutable) CSR arrays,
# so they too are built once per snapshot.
_CLASS_CACHE: "weakref.WeakKeyDictionary[CSRGraph, _DegreeClasses]" = (
    weakref.WeakKeyDictionary()
)


def _degree_classes(csr: CSRGraph) -> "_DegreeClasses":
    classes = _CLASS_CACHE.get(csr)
    if classes is None:
        classes = _CLASS_CACHE[csr] = _DegreeClasses(csr)
    return classes


class _DegreeClasses:
    """In-edges regrouped into dense per-degree-class tensors.

    Each class ``c`` covers the vertices sharing one in-degree; their
    in-edge tails/weights form rectangular ``(degree, |c|)`` blocks
    (degree-major, so sweep reductions run over axis 1 of a
    ``(sources, degree, |c|)`` tensor — contiguous ``(sources, |c|)``
    planes that numpy reduces with full SIMD, instead of
    strided-per-element reductions over a tiny trailing axis).  Real
    graph families have few distinct in-degrees, so the per-class
    dispatch overhead stays negligible.
    """

    __slots__ = (
        "verts", "tails", "tail_ids", "weights", "w_dense",
        "_scratch_rows", "_scratch", "_sp_matrix",
    )

    def __init__(self, csr: CSRGraph):
        n = csr.n
        indeg = csr.in_degrees()
        # scratch buffers for the sweep's large intermediates, built
        # lazily per block height (see scratch_for)
        self._scratch_rows = -1
        self._scratch: List[Tuple[np.ndarray, ...]] = []
        # lazily-built scipy matrix for the warm start (None until
        # first use; stays None when scipy is absent)
        self._sp_matrix = None
        # vertices with no in-edges are skipped; they can only ever be
        # sources
        self.verts: List[np.ndarray] = []
        # (degree, |c|) blocks: int64 for gathers, int32 for id math
        self.tails: List[np.ndarray] = []
        self.tail_ids: List[np.ndarray] = []
        self.weights: List[np.ndarray] = []
        # dense (n + 1, n) weight lookup: w_dense[u, v] is the weight
        # of edge u -> v (inf when absent; row n is the "no parent"
        # sentinel), letting the sweep fetch every winner's edge
        # weight in one flat gather; None above the size gate
        self.w_dense: Optional[np.ndarray] = None
        if csr.m == 0:
            return
        if n <= _DENSE_W_MAX_N:
            self.w_dense = np.full((n + 1, n), np.inf, dtype=np.float64)
            self.w_dense[csr.in_tails, csr.in_targets] = csr.in_weights
        for degree in np.unique(indeg[indeg > 0]):
            verts = np.flatnonzero(indeg == degree)
            # slots of each class vertex's in-edges are contiguous in
            # the CSR arrays; gather them as one (k, degree) block
            slots = (
                csr.in_indptr[verts][:, None] + np.arange(degree)[None, :]
            )
            tails = csr.in_tails[slots]
            weights = csr.in_weights[slots]
            self.verts.append(verts)
            self.tails.append(np.ascontiguousarray(tails.T))
            self.tail_ids.append(np.ascontiguousarray(tails.T.astype(np.int32)))
            self.weights.append(np.ascontiguousarray(weights.T))

    def scratch_for(self, rows: int, n: int) -> List[Tuple[np.ndarray, ...]]:
        """Per-class reusable sweep buffers for blocks of ``rows``
        sources: ``(cand, win, ids)`` tensors of shape
        ``(rows, degree, |c|)`` plus shared ``(rows, n)`` output and
        index buffers (appended as a final pseudo-class entry).
        Freshly allocating these every sweep would hit the allocator's
        mmap path and pay a page fault per touched page; reusing them
        keeps sweeps compute-bound.  (Sweeps are sequential per engine
        run; the buffers are not thread-safe.)
        """
        if self._scratch_rows != rows:
            buffers: List[Tuple[np.ndarray, ...]] = []
            for tails in self.tails:
                k = tails.shape[1]
                buffers.append((
                    np.empty((rows,) + tails.shape, dtype=np.float64),
                    np.empty((rows, k), dtype=bool),
                    np.empty((rows, k), dtype=np.int32),
                ))
            buffers.append((
                np.empty((rows, n), dtype=np.float64),      # nd
                np.empty((rows, n), dtype=np.float64),      # weight tmp
                np.empty((rows, n), dtype=np.int64),        # flat indices
                np.empty((rows, n), dtype=np.int32),        # parents i32
                np.empty((rows, n), dtype=np.int64),        # parents i64
                np.arange(rows, dtype=np.int64)[:, None] * n,  # row offsets
            ))
            self._scratch = buffers
            self._scratch_rows = rows
        return self._scratch

    def release_scratch_if_large(self) -> None:
        """Drop cached sweep buffers above :data:`_SCRATCH_KEEP_BYTES`.

        Called when an engine run completes: small scratch (tests,
        benchmarks, modest graphs) stays cached for cheap repeat
        builds, while big graphs don't keep multi-MiB dead buffers
        alive through the snapshot cache.
        """
        total = sum(
            arr.nbytes for group in self._scratch for arr in group
        )
        if total > _SCRATCH_KEEP_BYTES:
            self._scratch = []
            self._scratch_rows = -1


def _canonical_sweep(
    d: np.ndarray,
    classes: _DegreeClasses,
    n: int,
    src: np.ndarray,
    tie_eps: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """One batched canonical relaxation of every vertex, every source.

    Args:
        d: ``(b, n)`` current distances for a block of sources.
        classes: the degree-class tensors.
        n: vertex count (parent sentinel for "no candidate").
        src: ``(b,)`` the source vertex of each row.
        tie_eps: tie tolerance.

    Returns:
        ``(nd, np_)``: relaxed distances and the canonical parents
        implied by them.  Both are pure functions of ``d``; the
        returned arrays live in the classes' scratch buffers and are
        only valid until the next sweep over the same classes.
    """
    b = d.shape[0]
    scratch = classes.scratch_for(b, n)
    nd, wtmp, idx, npar32, npar = scratch[-1][:5]
    rowoff = scratch[-1][5]
    npar32.fill(n)  # sentinel: no candidate found (yet)
    sentinel = np.int32(n)
    dense = classes.w_dense is not None
    if not dense:
        nd.fill(np.inf)
    for verts, tails, tail_ids, weights, (cand, win, parent) in zip(
        classes.verts, classes.tails, classes.tail_ids,
        classes.weights, scratch,
    ):
        # (b, degree, |c|) candidate distances through every in-edge
        np.take(d, tails.reshape(-1), axis=1,
                out=cand.reshape(b, tails.size))
        cand += weights
        thr = cand.min(axis=1)
        thr += tie_eps
        # the smallest tail id whose candidate falls in the tie window
        # wins; fold degree slices through a running minimum so only
        # small (b, |c|) temporaries are touched
        parent.fill(n)
        for j in range(tails.shape[0]):
            np.less_equal(cand[:, j, :], thr, out=win)
            np.minimum(
                parent, np.where(win, tail_ids[j], sentinel), out=parent
            )
        npar32[:, verts] = parent
        if not dense:
            # no dense weight lookup (large n): extract the winner's
            # candidate value with one more masked pass per slice
            vals = np.full(thr.shape, np.inf)
            for j in range(tails.shape[0]):
                np.equal(tail_ids[j], parent, out=win)
                np.minimum(
                    vals, np.where(win, cand[:, j, :], np.inf), out=vals
                )
            nd[:, verts] = vals
    # d[s, v] becomes the winning parent's own candidate value
    # d[s, parent] + w(parent, v) — the exact float the sequential
    # fold stores when that predecessor relaxes v.  With the dense
    # weight lookup this is two flat gathers over the whole block
    # (sentinel parents read w_dense's all-inf row n, yielding inf).
    npar[...] = npar32
    if dense:
        np.minimum(npar, n - 1, out=idx)
        idx += rowoff
        np.take(d.reshape(-1), idx.reshape(-1), out=nd.reshape(-1))
        np.multiply(npar, n, out=idx)
        idx += np.arange(n, dtype=np.int64)
        np.take(classes.w_dense.reshape(-1), idx.reshape(-1),
                out=wtmp.reshape(-1))
        nd += wtmp
    # unreachable vertices (and vertices with no in-edges) stay at
    # inf with parent -1, exactly like the sequential engine
    np.copyto(npar, -1, where=np.isinf(nd))
    rows = np.arange(b)
    nd[rows, src] = 0.0
    npar[rows, src] = -1
    return nd, npar


def _min_sweep(
    d: np.ndarray, classes: _DegreeClasses, src: np.ndarray
) -> np.ndarray:
    """One plain min-relaxation sweep (warm-start fallback mode)."""
    nd = np.full_like(d, np.inf)
    for verts, tails, weights in zip(
        classes.verts, classes.tails, classes.weights
    ):
        nd[:, verts] = (d[:, tails] + weights).min(axis=1)
    np.minimum(nd, d, out=nd)
    nd[np.arange(d.shape[0]), src] = 0.0
    return nd


def _warm_start(
    csr: CSRGraph, classes: _DegreeClasses, src: np.ndarray
) -> np.ndarray:
    """Plain minimum distances (no canonical tie-breaking) from each
    source in ``src``: a fresh ``(len(src), n)`` float64 array.

    Uses :mod:`scipy.sparse.csgraph` when installed, else batched
    Bellman-Ford sweeps, which converge in (hop-diameter) sweeps.
    Dijkstra treats every source independently, so a row is the same
    float whichever source set it is computed in — and the canonical
    sweep's unique fixpoint (module docstring) makes the downstream
    result independent of the warm start anyway.
    """
    n = csr.n
    rows = np.arange(src.shape[0])
    dijkstra = _load_scipy()
    if dijkstra is not None:
        if classes._sp_matrix is None:
            classes._sp_matrix = _sp_csr_matrix(
                (csr.out_weights, csr.out_heads, csr.out_indptr),
                shape=(n, n),
            )
        d = np.asarray(
            dijkstra(classes._sp_matrix, indices=src), dtype=np.float64
        )
        d[rows, src] = 0.0
        return d
    d = np.full((src.shape[0], n), np.inf, dtype=np.float64)
    d[rows, src] = 0.0
    for _sweep in range(n + 1):
        nd = _min_sweep(d, classes, src)
        if np.array_equal(nd, d):
            return d
        d = nd
    raise GraphError("batched min-distance sweeps did not converge")


def min_distances(csr: CSRGraph) -> np.ndarray:
    """The plain ``(n, n)`` minimum distance matrix (no canonical
    tie-breaking; the engine's warm start, and useful on its own for
    analyses that need distances but not trees)."""
    return _warm_start(csr, _degree_classes(csr), np.arange(csr.n))


def _apsp_row_blocks(
    csr: CSRGraph,
    sources: np.ndarray,
    tie_eps: float,
    chunk_elems: int,
):
    """The row-set kernel behind every APSP entry point.

    Yields ``(lo, hi, d, parent)`` for consecutive slices
    ``sources[lo:hi]`` of as many sources as keep the sweep
    temporaries near ``chunk_elems`` elements: a warm
    start, then canonical sweeps until the distances stop changing.  A
    sweep's parents are a pure function of its input distances, so
    stable distances certify the fixpoint.  ``parent`` lives in
    reusable scratch and is only valid until the next block.
    """
    n = csr.n
    if not vectorized_engine_supported(csr):
        raise GraphError(
            "vectorized APSP requires edge weights that dominate both "
            f"the tie tolerance ({tie_eps}) and the float spacing at "
            f"the graph's distance scale; got min weight "
            f"{csr.min_weight()}; use the python engine"
        )
    classes = _degree_classes(csr)
    padded_m = sum(t.size for t in classes.tails)
    block = max(
        1, min(sources.shape[0], int(chunk_elems // max(padded_m, 1)))
    )
    try:
        for lo in range(0, sources.shape[0], block):
            src = sources[lo:lo + block]
            d = _warm_start(csr, classes, src)
            for _sweep in range(n + 2):
                nd, parent = _canonical_sweep(d, classes, n, src, tie_eps)
                if np.array_equal(nd, d):
                    break
                d[...] = nd
            else:  # pragma: no cover - backstop, unreachable for valid input
                raise GraphError("batched APSP did not converge")
            yield lo, lo + src.shape[0], d, parent
    finally:
        classes.release_scratch_if_large()


def apsp_rows(
    csr: CSRGraph,
    sources,
    tie_eps: float = TIE_EPS,
    chunk_elems: int = _CHUNK_ELEMS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical APSP rows for an *arbitrary* ordered source set.

    ``apsp_rows(csr, sources)[i]`` is bit-identical to row
    ``sources[i]`` of :func:`apsp_matrices` — each source's row is
    computed independently (per-source row independence) by the same
    warm start + canonical sweep, and the sweep's fixpoint is unique
    (module docstring), so scattering the sources changes nothing.
    This is the recomputation kernel of the incremental repair
    protocol (:mod:`repro.graph.repair`), which touches only the rows
    a :class:`~repro.graph.delta.GraphDelta` can have invalidated.

    Args:
        csr: the CSR adjacency snapshot.
        sources: ordered source vertex ids (any int array-like; need
            not be contiguous, sorted, or distinct).
        tie_eps: tie tolerance (see module docstring).
        chunk_elems: memory cap — sources are processed in blocks.

    Returns:
        ``(d, parent)`` of shape ``(len(sources), n)``, row ``i``
        belonging to source ``sources[i]``.

    Raises:
        GraphError: when :func:`vectorized_engine_supported` is false.
    """
    n = csr.n
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    if np.any((src < 0) | (src >= n)):
        raise GraphError(f"apsp_rows sources out of range [0, {n})")
    d_out = np.empty((src.shape[0], n), dtype=np.float64)
    p_out = np.empty((src.shape[0], n), dtype=np.int64)
    for lo, hi, d, parent in _apsp_row_blocks(csr, src, tie_eps, chunk_elems):
        d_out[lo:hi] = d
        p_out[lo:hi] = parent
    return d_out, p_out


def apsp_matrices(
    csr: CSRGraph,
    tie_eps: float = TIE_EPS,
    chunk_elems: int = _CHUNK_ELEMS,
) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs distances and canonical shortest-path-tree parents.

    Args:
        csr: the CSR adjacency snapshot.
        tie_eps: tie tolerance (see module docstring).
        chunk_elems: memory cap — sources are processed in blocks of
            about ``chunk_elems / (2 m)`` rows.

    Returns:
        ``(d, parent)``: ``d`` is the ``(n, n)`` float64 matrix with
        ``d[s, v]`` the shortest ``s -> v`` distance (``inf`` when
        unreachable); ``parent`` is the ``(n, n)`` int64 matrix with
        ``parent[s, v]`` the canonical tree parent of ``v`` in the
        out-tree rooted at ``s`` (``-1`` for the source itself and for
        unreachable vertices).  Both match the per-source
        :func:`repro.graph.shortest_paths.dijkstra` output exactly.

    Raises:
        GraphError: if an edge weight is too close to ``tie_eps`` for
            the canonical tie-break to be exact
            (:func:`vectorized_engine_supported` is then false and the
            caller should use the sequential engine).
    """
    return apsp_rows(csr, np.arange(csr.n), tie_eps, chunk_elems)
