"""E6 — Theorem 10/13 and Figs. 7-8: sparse double-tree covers.

For a sweep of scales and k values, verifies the three cover
properties (ball containment, radius blow-up <= 2k-1, vertex load
<= 2k n^{1/k}) and reports the measured slack against each bound.
"""

from __future__ import annotations


from conftest import banner, cached_network

from repro.covers.sparse_cover import DoubleTreeCover


def test_cover_properties_sweep(benchmark):
    net = cached_network("random", 48, seed=0)
    rows = []

    def run():
        for k in (2, 3):
            for scale in (2.0, 8.0, 32.0):
                dtc = DoubleTreeCover(net.metric(), k, scale)
                dtc.verify()
                worst_height = max(t.rt_height() for t in dtc.trees)
                rows.append(
                    (
                        k,
                        scale,
                        len(dtc.trees),
                        worst_height,
                        dtc.height_bound(),
                        dtc.max_vertex_load(),
                        dtc.load_bound(),
                        dtc.rounds,
                    )
                )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E6 / Theorem 13 - double-tree cover properties (n=48)")
    print(f"{'k':>3} {'scale':>6} {'trees':>6} {'height':>8} "
          f"{'(2k-1)d':>8} {'load':>5} {'2kn^1/k':>8} {'rounds':>7}")
    for (k, d, trees, h, hb, load, lb, rounds) in rows:
        print(
            f"{k:>3} {d:>6.0f} {trees:>6} {h:>8.1f} {hb:>8.1f} "
            f"{load:>5} {lb:>8} {rounds:>7}"
        )
        assert h <= hb + 1e-9
        assert load <= lb


def test_cover_load_vs_bound_margin(benchmark):
    """The paper's load bound is loose in practice; record the margin."""
    net = cached_network("torus", 49, seed=0)

    def run():
        dtc = DoubleTreeCover(net.metric(), 2, 4.0)
        return dtc.max_vertex_load(), dtc.load_bound()

    load, bound = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("E6b / Theorem 13(3) - load margin on the torus")
    print(f"observed max load {load} vs bound {bound} "
          f"({100 * load / bound:.0f}% of budget)")
    assert load <= bound
