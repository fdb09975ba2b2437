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

Two more kinds of row pin the dynamic side:

* a scenario row per committed spec under ``scenarios/``, run at smoke
  size: every matrix cell's ``summary_fingerprint`` (floats as
  ``repr``), with its epoch rows (generation, events, repair mode and
  stretch);
* an ``evolve`` chain on random, torus and dht: a warm network steps
  across :data:`CHAIN_EVENTS` one event at a time
  (``repro.runtime.churn.evolve_epoch``), and after every event the row
  records the materialized op, the repair mode and rows, short digests
  of ``d`` and the parent matrix, and the routes of every ordered pair
  under :data:`CHAIN_SCHEMES`.
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

#: the committed scenario specs, beside ``tests/``
SCENARIO_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios"
)
#: the families an ``evolve`` chain runs on, the bare events it steps
#: across (one per generation) and the schemes whose routes it records
CHAIN_FAMILIES = ("random", "torus", "dht")
CHAIN_EVENTS = ("reweight", "link_down", "link_up", "reweight")
CHAIN_SCHEMES = ("shortest_path", "stretch6")


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:SHORT]


def row_name(family: str, scheme: str, params: Dict[str, int]) -> str:
    args = ",".join(f"{key}={value}" for key, value in sorted(params.items()))
    return f"{family}/{scheme}" + (f"({args})" if args else "")


def _all_pairs(n: int):
    import numpy as np

    return np.nonzero(~np.eye(n, dtype=bool))


def _route_all_pairs(router, s, t):
    """Every pair's ``(cost, hops, max header bits)`` columns, routed as
    one batch on the default engine."""
    import numpy as np

    from repro.runtime.simulator import Simulator

    batch = Simulator(router.scheme).roundtrip_many(np.stack([s, t], axis=1))
    return batch.cost, batch.hops, batch.max_header_bits


def scheme_row(net, family: str, scheme: str, params: Dict[str, int]) -> dict:
    """One scheme's golden row over every ordered pair of ``net``."""
    import numpy as np

    n = net.graph.n
    s, t = _all_pairs(n)
    router = net.router(scheme, **params)
    costs, hops, bits = _route_all_pairs(router, s, t)
    table_bits = int(router.table_report().max_bits)
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


def scenario_names() -> List[str]:
    """The committed specs' file stems, sorted."""
    return sorted(
        name[:-len(".json")]
        for name in os.listdir(SCENARIO_DIR) if name.endswith(".json")
    )


def scenario_row(name: str) -> dict:
    """One committed spec's golden row: every matrix cell's summary
    fingerprint at smoke size, split into the totals and the epoch
    rows."""
    from repro.scenarios import load_scenario, run_scenario, summary_fingerprint

    path = os.path.join(SCENARIO_DIR, name + ".json")
    result = run_scenario(load_scenario(path).smoke(), store=None)
    cells = []
    for cell in result.cells:
        *totals, epochs = summary_fingerprint(cell.summary)
        cells.append({
            "cell": f"{cell.scheme}/{cell.engine}",
            "summary": totals,
            "epochs": list(epochs),
        })
    # tuples become lists, as in the committed file
    cells = json.loads(json.dumps(cells))
    return {
        "row": f"scenario/{name}",
        "sha256": hashlib.sha256(
            json.dumps(cells, sort_keys=True).encode()
        ).hexdigest(),
        "cells": cells,
    }


def chain_row(family: str) -> dict:
    """One ``evolve`` chain's golden row: after every event of
    :data:`CHAIN_EVENTS`, the op, its repair, ``d``, the parents and the
    routes of :data:`CHAIN_SCHEMES` over every ordered pair."""
    from repro.api import Network
    from repro.runtime.churn import evolve_epoch

    net = Network.from_family(family, N, seed=SEED, store=None)
    net.oracle()  # warm, so that every event can be repaired
    events = []
    for i, op in enumerate(CHAIN_EVENTS):
        net, delta = evolve_epoch(net, [{"op": op}], SEED, i)
        repair = net.stats().repair
        oracle = net.oracle()
        s, t = _all_pairs(net.graph.n)
        routes = {}
        for scheme in CHAIN_SCHEMES:
            costs, hops, bits = _route_all_pairs(net.router(scheme), s, t)
            routes[scheme] = _short("\n".join(
                map("{} {} {}".format, map(float.hex, costs), hops, bits)
            ))
        events.append({
            "op": delta.to_doc()["ops"][0],
            "repair": "incremental" if repair.incremental else "rebuild",
            "rows_recomputed": repair.rows_recomputed,
            "rows_reused": repair.rows_reused,
            "d": _short(" ".join(map(float.hex, oracle.d_matrix.ravel().tolist()))),
            "parents": _short(" ".join(map(str, oracle.parent_matrix().ravel().tolist()))),
            "routes": routes,
        })
    return {
        "row": f"{family}/evolve",
        "sha256": hashlib.sha256(
            json.dumps(events, sort_keys=True).encode()
        ).hexdigest(),
        "events": events,
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

    return (
        [row for family in FAMILY_NAMES for row in family_rows(family)]
        + [scenario_row(name) for name in scenario_names()]
        + [chain_row(family) for family in CHAIN_FAMILIES]
    )


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
    first differing level, cell and epoch, or event; or the first
    differing pair and the columns that moved, with the readable numbers
    side by side."""
    name = expected["row"]
    if "cells" in expected:
        return _explain_scenario(name, expected["cells"], got["cells"])
    if "events" in expected:
        return _explain_chain(name, expected["events"], got["events"])
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


#: the names of a summary fingerprint's totals, in order
SUMMARY_FIELDS = (
    "kind", "pairs", "total_cost", "total_hops", "mean_cost", "mean_hops",
    "max_hops", "max_header_bits", "mean_stretch", "max_stretch",
    "worst_pair",
)
#: the names of an epoch row's fields, in order
EPOCH_FIELDS = (
    "index", "generation", "pairs", "events", "repair", "mean_stretch",
    "max_stretch", "worst_pair",
)


def _moved(names, old, new) -> str:
    return ", ".join(
        f"{key} {a!r} -> {b!r}" for key, a, b in zip(names, old, new) if a != b
    )


def _explain_scenario(name: str, expected: list, got: list) -> str:
    for old, new in zip(expected, got):
        if old == new:
            continue
        where = f"{name}: cell {old['cell']}"
        if old["cell"] != new["cell"]:
            return f"{where} expected, cell {new['cell']} run"
        if old["summary"] != new["summary"]:
            where += f" summary differs ({_moved(SUMMARY_FIELDS, old['summary'], new['summary'])})"
        for a, b in zip(old["epochs"], new["epochs"]):
            if a != b:
                return f"{where}; first epoch that differs: {a[0]} ({_moved(EPOCH_FIELDS, a, b)})"
        if len(old["epochs"]) != len(new["epochs"]):
            return f"{where}; {len(old['epochs'])} epochs expected, {len(new['epochs'])} run"
        return where
    return f"{name}: {len(expected)} cells expected, {len(got)} run"


def _explain_chain(name: str, expected: list, got: list) -> str:
    for i, (old, new) in enumerate(zip(expected, got)):
        if old != new:
            moved = [key for key in sorted(old) if old[key] != new.get(key)]
            return (
                f"{name}: first event that differs: {i} ({old['op']['op']}) "
                f"in {', '.join(moved)}"
            )
    return f"{name}: {len(expected)} events expected, {len(got)} run"


if __name__ == "__main__":
    write(sys.argv[1] if len(sys.argv) > 1 else PATH)
