"""Tests for the CLI and the table-composition analysis."""

from __future__ import annotations

import random

import pytest

from repro.analysis.experiments import Instance
from repro.analysis.tables import (
    breakdown,
    breakdown_exstretch,
    breakdown_polystretch,
    breakdown_stretch6,
)
from repro.cli import main
from repro.graph.generators import random_strongly_connected
from repro.schemes.exstretch import ExStretchScheme
from repro.schemes.polystretch import PolynomialStretchScheme
from repro.schemes.shortest_path import ShortestPathScheme
from repro.schemes.stretch6 import StretchSixScheme


def make_instance(n=20, seed=0) -> Instance:
    g = random_strongly_connected(n, rng=random.Random(seed))
    return Instance.prepare(g, seed=seed + 1)


class TestBreakdown:
    def test_stretch6_breakdown_sums_to_table_entries(self):
        inst = make_instance()
        scheme = StretchSixScheme(inst.metric, inst.naming, rng=random.Random(1))
        b = breakdown_stretch6(scheme)
        manual = sum(scheme.table_entries(v) for v in range(20))
        assert b.total() == manual
        assert set(b.layers) == {
            "(1) neighborhood labels",
            "(2) block pointers",
            "(3) dictionary slice",
            "(4) Tab3 substrate",
        }

    def test_exstretch_breakdown_sums(self):
        inst = make_instance(seed=2)
        scheme = ExStretchScheme(
            inst.metric, inst.naming, k=2, rng=random.Random(3)
        )
        b = breakdown_exstretch(scheme)
        manual = sum(scheme.table_entries(v) for v in range(20))
        assert b.total() == manual

    def test_polystretch_breakdown_sums(self):
        inst = make_instance(seed=4)
        scheme = PolynomialStretchScheme(inst.metric, inst.naming, k=2)
        b = breakdown_polystretch(scheme)
        manual = sum(scheme.table_entries(v) for v in range(20))
        assert b.total() == manual

    def test_dispatch(self):
        inst = make_instance(seed=5)
        scheme = StretchSixScheme(inst.metric, inst.naming, rng=random.Random(6))
        assert breakdown(scheme).total() > 0

    def test_dispatch_rejects_unknown(self):
        inst = make_instance(seed=7)
        scheme = ShortestPathScheme(inst.oracle, inst.naming)
        with pytest.raises(TypeError):
            breakdown(scheme)

    def test_format_mentions_every_layer(self):
        inst = make_instance(seed=8)
        scheme = StretchSixScheme(inst.metric, inst.naming, rng=random.Random(9))
        text = breakdown(scheme).format(20)
        for layer in breakdown(scheme).layers:
            assert layer in text
        assert "TOTAL" in text

    def test_per_node_max_bounds_mean(self):
        inst = make_instance(seed=10)
        scheme = StretchSixScheme(
            inst.metric, inst.naming, rng=random.Random(11)
        )
        b = breakdown(scheme)
        for layer, total in b.layers.items():
            assert b.per_node_max[layer] >= total / 20


class TestCLI:
    def test_fig1(self, capsys):
        rc = main(["fig1", "--n", "16", "--pairs", "40", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stretch-6 (TINN)" in out

    @pytest.mark.parametrize(
        "scheme", ["stretch6", "exstretch", "polystretch", "rtz"]
    )
    def test_stretch_subcommand(self, scheme, capsys):
        rc = main(
            [
                "stretch",
                "--scheme",
                scheme,
                "--n",
                "16",
                "--pairs",
                "30",
                "--seed",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "max" in out

    def test_tables_subcommand(self, capsys):
        rc = main(["tables", "--scheme", "exstretch", "--n", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TOTAL" in out

    def test_covers_subcommand(self, capsys):
        rc = main(["covers", "--n", "16", "--scale", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Theorem 13" in out

    def test_distributed_subcommand(self, capsys):
        rc = main(["distributed", "--n", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified" in out

    def test_family_selection(self, capsys):
        rc = main(["stretch", "--family", "cycle", "--n", "12",
                   "--pairs", "20"])
        assert rc == 0

    def test_unknown_family_exits(self):
        with pytest.raises(SystemExit):
            main(["stretch", "--family", "nope", "--n", "12"])

    def test_unknown_scheme_exits(self):
        with pytest.raises(SystemExit) as exc:
            main(["stretch", "--scheme", "nope", "--n", "12"])
        # the error names the registered choices
        assert "stretch6" in str(exc.value)

    @pytest.mark.parametrize("command", ["fig1", "stretch", "traffic", "report"])
    def test_negative_pairs_exits_with_one_line(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "12", "--pairs", "-3"])
        assert str(exc.value) == "--pairs must be >= 0, got -3"

    def test_engine_flag(self, capsys):
        rc = main(["stretch", "--engine", "python", "--n", "12",
                   "--pairs", "20"])
        assert rc == 0
        with pytest.raises(SystemExit):
            main(["stretch", "--engine", "quantum", "--n", "12"])

    def test_schemes_subcommand(self, capsys):
        from repro.api import scheme_names

        rc = main(["schemes"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in scheme_names():
            assert name in out
        assert "stretch bound" in out

    def test_traffic_multi_scheme_shares_artifacts(self, capsys):
        rc = main(["traffic", "--n", "16", "--scheme", "stretch6,rtz",
                   "--pairs", "40", "--workload", "uniform"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stretch-6 (TINN)" in out
        assert "rtz-3 (name-dep)" in out
        assert "shared artifacts reused" in out
        assert "shared artifacts:" in out  # the consolidated stats block
        # the metric and substrate lines report exactly one build each
        for artifact in ("metric", "rtz "):
            line = next(
                ln for ln in out.splitlines() if ln.strip().startswith(artifact)
            )
            assert "builds=1" in line

    def test_traffic_single_scheme(self, capsys):
        rc = main(["traffic", "--n", "14", "--scheme", "rtz",
                   "--pairs", "25", "--workload", "hotspot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "within the claimed stretch bound 3.0" in out


class TestReport:
    def test_report_subcommand(self, capsys):
        rc = main(["report", "--n", "16", "--pairs", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# Reproduction report" in out
        assert "Fig. 1" in out
        assert "All asserted bounds held" in out

    def test_generate_report_function(self):
        from repro.analysis.report import generate_report
        from repro.graph.generators import random_strongly_connected

        g = random_strongly_connected(14, rng=random.Random(21))
        text = generate_report(g, seed=22, sample_pairs=40)
        assert "Theorem 13" in text
        assert "Lemma 2" in text
