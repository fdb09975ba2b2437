"""Golden digests: every registered scheme's routes and table sizes, and
every Theorem 13 hierarchy's covers, on the nine standard families at
n = 40, pinned in ``tests/golden.json``.

A change that moves how a scheme routes, however it moves both engines,
changes a digest here.  ``tests/test_golden.py`` recomputes the rows and
compares them with the committed file; a mismatch names its row and the
first pair (or level) that differs.  The pair's source is exact; its
target is exact when one source's pairs moved, else a lower bound.

Regenerate the file (only when a change moves routes on purpose, and
say in CHANGES.md which rows moved and why)::

    PYTHONPATH=src python tests/golden_digests.py

Scheme rows route all ordered pairs as one batch on the default engine
(``Simulator.roundtrip_many``, which ``Router.route_many`` runs).  Each
row holds a SHA-256 over every pair's cost (``float.hex``), hops and
max header bits, in row-major pair order,
plus ``table_report().max_bits``; short per-column, per-source and
per-target digests that localize a mismatch; and the readable max and
mean stretch, max table bits and max header bits.  Hierarchy rows hold,
per level, short digests of the clusters (tree id and sorted members),
the roots and every vertex's home tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterator, List, Tuple

N = 40
SEED = 1
#: the committed file, beside this module
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
#: hex characters kept of each localizing digest
SHORT = 8

#: (scheme, params) per family: every registered scheme, exstretch and
#: polystretch at k in {2, 3}, and ``blocks_per_node=1`` for the schemes
#: whose default budget stores every block everywhere at n = 40
SCHEME_ROWS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("shortest_path", {}),
    ("rtz", {}),
    ("stretch6", {}),
    ("stretch6", {"blocks_per_node": 1}),
    ("stretch6_via_source", {}),
    ("stretch6_via_source", {"blocks_per_node": 1}),
    ("wild_names", {}),
    ("wild_names", {"blocks_per_node": 1}),
    ("exstretch", {"k": 2}),
    ("exstretch", {"k": 3}),
    ("exstretch", {"k": 2, "blocks_per_node": 1}),
    ("exstretch", {"k": 3, "blocks_per_node": 1}),
    ("polystretch", {"k": 2}),
    ("polystretch", {"k": 3}),
)
HIERARCHY_KS = (2, 3)


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:SHORT]


def row_name(family: str, scheme: str, params: Dict[str, int]) -> str:
    args = ",".join(f"{key}={value}" for key, value in sorted(params.items()))
    return f"{family}/{scheme}" + (f"({args})" if args else "")


def scheme_row(net, family: str, scheme: str, params: Dict[str, int]) -> dict:
    """One scheme's golden row over every ordered pair of ``net``."""
    import numpy as np

    from repro.runtime.simulator import Simulator

    n = net.graph.n
    s, t = np.nonzero(~np.eye(n, dtype=bool))
    router = net.router(scheme, **params)
    batch = Simulator(router.scheme).roundtrip_many(np.stack([s, t], axis=1))
    table_bits = int(router.table_report().max_bits)
    costs, hops, bits = batch.cost, batch.hops, batch.max_header_bits
    cost_hex = list(map(float.hex, costs))
    records = list(map("{} {} {}".format, cost_hex, hops, bits))
    stretch = np.array(costs) / net.oracle().r_matrix[s, t]
    by_target: List[List[str]] = [[] for _ in range(n)]
    for target, record in zip(t.tolist(), records):
        by_target[target].append(record)
    return {
        "row": row_name(family, scheme, params),
        "sha256": hashlib.sha256(
            ("\n".join(records) + f"\ntable_bits {table_bits}").encode()
        ).hexdigest(),
        "columns": {
            "cost": _short(" ".join(cost_hex)),
            "hops": _short(" ".join(map(str, hops))),
            "header_bits": _short(" ".join(map(str, bits))),
        },
        "sources": "".join(
            _short("\n".join(records[v * (n - 1):(v + 1) * (n - 1)]))
            for v in range(n)
        ),
        "targets": "".join(_short("\n".join(rows)) for rows in by_target),
        "stretch_max": round(float(stretch.max()), 9),
        "stretch_mean": round(float(stretch.mean()), 9),
        "table_bits_max": table_bits,
        "header_bits_max": max(bits),
    }


def hierarchy_row(net, family: str, k: int) -> dict:
    """One Theorem 13 hierarchy's golden row: per level, the clusters,
    the roots and every vertex's home tree."""
    hierarchy = net.hierarchy(k)
    levels = []
    for cov in hierarchy.levels:
        levels.append({
            "trees": len(cov.trees),
            "clusters": _short(";".join(
                f"{t.tree_id}:{','.join(map(str, t.members))}"
                for t in cov.trees
            )),
            "roots": _short(",".join(str(t.root) for t in cov.trees)),
            "homes": _short(",".join(
                str(cov.home_tree(v).tree_id) for v in range(net.graph.n)
            )),
        })
    return {
        "row": f"{family}/hierarchy(k={k})",
        "sha256": hashlib.sha256(
            json.dumps(levels, sort_keys=True).encode()
        ).hexdigest(),
        "levels": levels,
    }


def family_rows(family: str) -> Iterator[dict]:
    """Every golden row of one family, from one shared network."""
    from repro.api import Network

    net = Network.from_family(family, N, seed=SEED, store=None)
    for k in HIERARCHY_KS:
        yield hierarchy_row(net, family, k)
    for scheme, params in SCHEME_ROWS:
        yield scheme_row(net, family, scheme, params)


def all_rows() -> List[dict]:
    from repro.graph.generators import FAMILY_NAMES

    return [row for family in FAMILY_NAMES for row in family_rows(family)]


def write(path: str = PATH) -> None:
    rows = all_rows()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(row, sort_keys=True) for row in rows))
        fh.write("\n]\n")
    print(f"wrote {len(rows)} rows to {path}")


def load(path: str = PATH) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _differing(expected: str, got: str) -> List[int]:
    """The positions of the differing ``SHORT``-character digests in two
    concatenated digest strings."""
    return [
        i // SHORT
        for i in range(0, max(len(expected), len(got)), SHORT)
        if expected[i:i + SHORT] != got[i:i + SHORT]
    ]


def explain(expected: dict, got: dict) -> str:
    """Why ``got`` does not match the committed ``expected`` row: the
    first differing level, or the first differing pair and the columns
    that moved, with the readable numbers side by side."""
    name = expected["row"]
    if "levels" in expected:
        for i, (old, new) in enumerate(zip(expected["levels"], got["levels"])):
            if old != new:
                moved = [key for key in sorted(old) if old[key] != new.get(key)]
                return f"{name}: level {i} differs in {', '.join(moved)}"
        return (
            f"{name}: {len(expected['levels'])} levels expected, "
            f"{len(got['levels'])} built"
        )
    lines = [f"{name}: routes or tables differ from the golden file"]
    sources = _differing(expected["sources"], got["sources"])
    if sources:
        # the first source whose pairs moved; the first target column
        # that moved is its first moved target when it is the only one
        s = sources[0]
        t = next(
            (t for t in _differing(expected["targets"], got["targets"]) if t != s),
            None,
        )
        where = f"({s}, {t})" if len(sources) == 1 else f"({s}, {t} or later)"
        lines.append(
            f"  first pair that differs: {where}; sources moved: "
            f"{len(sources)}"
        )
    moved = [
        key for key in sorted(expected["columns"])
        if expected["columns"][key] != got["columns"][key]
    ]
    if moved:
        lines.append(f"  columns that moved: {', '.join(moved)}")
    for key in ("stretch_max", "stretch_mean", "table_bits_max", "header_bits_max"):
        if expected[key] != got[key]:
            lines.append(f"  {key}: {expected[key]} -> {got[key]}")
    return "\n".join(lines)


if __name__ == "__main__":
    write(sys.argv[1] if len(sys.argv) > 1 else PATH)
