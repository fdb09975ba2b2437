"""The committed golden digests (``tests/golden.json``) still hold:
every registered scheme routes every ordered pair, and every Theorem 13
hierarchy covers, exactly as when the file was written
(``tests/golden_digests.py`` computes the rows and regenerates the
file)."""

from __future__ import annotations

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
