"""The committed golden digests (``tests/golden.json``) still hold:
every registered scheme routes every ordered pair, every Theorem 13
hierarchy covers, every committed scenario summarizes and every
``evolve`` chain repairs and routes exactly as when the file was written
(``tests/golden_digests.py`` computes the rows and regenerates the
file)."""

from __future__ import annotations

import json

import pytest

import golden_digests
from repro.graph.generators import FAMILY_NAMES

GOLDEN = {row["row"]: row for row in golden_digests.load()}


def test_golden_file_has_every_row():
    names = [
        f"{family}/hierarchy(k={k})"
        for family in FAMILY_NAMES
        for k in golden_digests.HIERARCHY_KS
    ] + [
        golden_digests.row_name(family, scheme, params)
        for family in FAMILY_NAMES
        for scheme, params in golden_digests.SCHEME_ROWS
    ] + [
        f"scenario/{name}" for name in golden_digests.scenario_names()
    ] + [
        f"{family}/evolve" for family in golden_digests.CHAIN_FAMILIES
    ]
    assert sorted(names) == sorted(GOLDEN)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_matches_golden(family):
    mismatches = [
        golden_digests.explain(GOLDEN[row["row"]], row)
        for row in golden_digests.family_rows(family)
        if row != GOLDEN[row["row"]]
    ]
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("name", golden_digests.scenario_names())
def test_scenario_matches_golden(name):
    row = golden_digests.scenario_row(name)
    expected = GOLDEN[row["row"]]
    assert row == expected, golden_digests.explain(expected, row)


@pytest.mark.parametrize("family", golden_digests.CHAIN_FAMILIES)
def test_evolve_chain_matches_golden(family):
    row = golden_digests.chain_row(family)
    expected = GOLDEN[row["row"]]
    assert row == expected, golden_digests.explain(expected, row)


def test_mismatch_names_first_cell_and_epoch():
    row = GOLDEN["scenario/churn_reroute"]
    cells = json.loads(json.dumps(row["cells"]))
    cells[0]["epochs"][1][4] = "rebuild"
    cells[0]["summary"][9] = "9.0"
    text = golden_digests.explain(row, dict(row, cells=cells))
    assert text.startswith(
        "scenario/churn_reroute: cell stretch6 summary differs "
        "(max_stretch "
    )
    assert text.endswith(
        "; first epoch that differs: 1 (repair 'incremental' -> 'rebuild')"
    )


def test_mismatch_names_first_event():
    row = GOLDEN["torus/evolve"]
    events = json.loads(json.dumps(row["events"]))
    events[2]["rows_recomputed"] += 1
    events[3]["d"] = "0" * golden_digests.SHORT
    text = golden_digests.explain(row, dict(row, events=events))
    assert text == (
        "torus/evolve: first event that differs: 2 (link_up) in "
        "rows_recomputed"
    )


def test_mismatch_names_row_and_first_pair():
    row = GOLDEN["random/stretch6"]
    moved = dict(row, columns=dict(row["columns"], hops="0" * 8))
    size = golden_digests.SHORT
    moved["sources"] = (
        row["sources"][:3 * size] + "0" * size + row["sources"][4 * size:]
    )
    moved["targets"] = (
        row["targets"][:7 * size] + "0" * size + row["targets"][8 * size:]
    )
    text = golden_digests.explain(row, moved)
    assert text.startswith("random/stretch6: ")
    assert "first pair that differs: (3, 7); sources moved: 1" in text
    assert "columns that moved: hops" in text
    # with a later source moved too, the target is only a lower bound
    moved["sources"] = moved["sources"][:9 * size] + "0" * size + moved["sources"][10 * size:]
    assert "first pair that differs: (3, 7 or later)" in golden_digests.explain(row, moved)


def test_mismatch_names_first_level():
    row = GOLDEN["torus/hierarchy(k=3)"]
    levels = [dict(level) for level in row["levels"]]
    levels[2]["roots"] = "0" * golden_digests.SHORT
    text = golden_digests.explain(row, dict(row, levels=levels))
    assert text == "torus/hierarchy(k=3): level 2 differs in roots"
