"""One-shot reproduction report generator.

``generate_report`` runs a compact version of the experiment suite on
a given network and renders a markdown report with claimed-vs-measured
rows — the programmatic counterpart of EXPERIMENTS.md, usable from the
CLI (``python -m repro.cli report``) or from notebooks.
"""

from __future__ import annotations

import random
from typing import List

from repro.analysis.experiments import (
    assert_rows_sound,
    fig1_comparison,
    format_rows,
)
from repro.analysis.stretch import stretch_distribution
from repro.api import Network
from repro.dictionary.distribution import BlockDistribution
from repro.exceptions import RoutingError
from repro.naming.blocks import BlockSpace
from repro.runtime.sizing import log2_squared


def generate_report(
    net: Network,
    seed: int = 0,
    sample_pairs: int = 200,
    k: int = 2,
) -> str:
    """Run the headline experiments and render a markdown report.

    Args:
        net: the workload network; every section measures its
            registry schemes and shared artifacts.
        seed: controls pair sampling and the block distribution.
        sample_pairs: pairs sampled per stretch measurement.
        k: tradeoff parameter for the generalized schemes.

    Returns:
        Markdown text; every claimed inequality is checked before the
        text is returned, so a returned report certifies the run.

    Raises:
        RoutingError: for a measured stretch above its claimed bound.
        ConstructionError: for a block distribution or cover that
            fails verification.
    """
    lines: List[str] = []
    graph = net.graph
    n = graph.n
    lines.append("# Reproduction report")
    lines.append("")
    lines.append(
        f"Graph: n={n}, m={graph.m}; seed={seed}; "
        f"{sample_pairs} sampled pairs per measurement."
    )
    lines.append("")

    # Fig. 1
    rows = fig1_comparison(net, seed=seed, sample_pairs=sample_pairs, k=k)
    assert_rows_sound(rows)
    lines.append("## Fig. 1 — claimed vs measured")
    lines.append("")
    lines.append("```")
    lines.append(format_rows(rows))
    lines.append("```")
    lines.append("")

    # Lemma 3 distribution
    router = net.router("stretch6")
    bound = net.stretch_bound("stretch6")
    dist = stretch_distribution(
        router, sample=sample_pairs, rng=random.Random(seed + 1)
    )
    if not dist.max() <= bound + 1e-9:
        raise RoutingError(f"{router.scheme.name} exceeded its claimed stretch")
    lines.append("## Lemma 3 — stretch-6 distribution")
    lines.append("")
    lines.append(
        f"max {dist.max():.2f} (bound {bound:g}), mean {dist.mean():.2f}, "
        f"p90 {dist.percentile(90):.2f}; "
        f"{100 * dist.fraction_at_most(3.0):.0f}% of pairs within 3."
    )
    lines.append("")

    # Lemma 1/4
    bd = BlockDistribution(net.metric(), BlockSpace(n, k), random.Random(seed))
    bd.verify()
    lines.append("## Lemmas 1/4 — block distribution")
    lines.append("")
    lines.append(
        f"max |S_v| = {bd.max_blocks_per_node()} "
        f"(budget {bd.per_node_bound()}), patches {bd.patches_applied}; "
        "coverage verified exhaustively."
    )
    lines.append("")

    # Theorem 13
    scale = max(2.0, net.oracle().rt_diameter() / 4)
    dtc = net.cover(k, scale)
    dtc.verify()
    worst_height = max(t.rt_height() for t in dtc.trees)
    lines.append("## Theorem 13 — double-tree cover")
    lines.append("")
    lines.append(
        f"scale {scale:.0f}: {len(dtc.trees)} trees, max height "
        f"{worst_height:.1f} (bound {dtc.height_bound():.1f}), max load "
        f"{dtc.max_vertex_load()} (bound {dtc.load_bound()})."
    )
    lines.append("")

    # Lemma 2 substrate
    rtz = net.rtz()
    max_tab = max(rtz.table_entries(u) for u in range(n))
    lines.append("## Lemma 2 — substrate tables")
    lines.append("")
    lines.append(
        f"|A| = {len(rtz.centers)}, max table rows {max_tab}, "
        f"header budget log2(n)^2 = {log2_squared(n):.0f} bits."
    )
    lines.append("")

    lines.append("All asserted bounds held during report generation.")
    lines.append("")
    return "\n".join(lines)
