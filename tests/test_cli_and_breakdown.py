"""Tests for the CLI and the table-composition analysis."""

from __future__ import annotations

import random

import pytest

from repro.analysis.tables import breakdown
from repro.api import Network
from repro.cli import main
from repro.graph.generators import random_strongly_connected


STRETCH6_LAYERS = [
    "(1) neighborhood labels",
    "(2) block pointers",
    "(3) dictionary slice",
    "(4) Tab3 substrate",
]


def make_network(n=20, seed=0) -> Network:
    g = random_strongly_connected(n, rng=random.Random(seed))
    return Network(g, seed=seed + 1, store=None)


class TestBreakdown:
    def test_stretch6_breakdown_sums_to_table_entries(self):
        scheme = make_network().build_scheme("stretch6")
        b = breakdown(scheme)
        manual = sum(scheme.table_entries(v) for v in range(20))
        assert b.total() == manual
        assert set(b.layers) == {
            "(1) neighborhood labels",
            "(2) block pointers",
            "(3) dictionary slice",
            "(4) Tab3 substrate",
        }

    def test_exstretch_breakdown_sums(self):
        scheme = make_network(seed=2).build_scheme("exstretch", k=2)
        b = breakdown(scheme)
        manual = sum(scheme.table_entries(v) for v in range(20))
        assert b.total() == manual

    def test_polystretch_breakdown_sums(self):
        scheme = make_network(seed=4).build_scheme("polystretch", k=2)
        b = breakdown(scheme)
        manual = sum(scheme.table_entries(v) for v in range(20))
        assert b.total() == manual

    @pytest.mark.parametrize("scheme_name,layers", [
        ("stretch6", STRETCH6_LAYERS),
        ("stretch6_via_source", STRETCH6_LAYERS),
        ("wild_names", STRETCH6_LAYERS),
        ("exstretch", ["(1) Tab / tree state", "(2) N_1 handshakes",
                       "(3a) prefix rows", "(3b) final rows"]),
        ("polystretch", ["(1) home-tree ids", "(2) tree state",
                         "(2c) dictionary rows"]),
    ])
    def test_every_tinn_scheme_itemizes_its_table_entries(
        self, scheme_name, layers
    ):
        net = Network.from_family("random", 24, seed=3, store=None)
        scheme = net.build_scheme(scheme_name)
        b = breakdown(scheme)
        entries = [scheme.table_entries(v) for v in range(net.n)]
        assert list(b.layers) == layers
        assert b.total() == sum(entries)
        items = scheme.table_items()
        assert [int(sum(counts[v] for counts in items.values()))
                for v in range(net.n)] == entries
        assert b.per_node_max == {
            layer: int(counts.max()) for layer, counts in items.items()
        }

    def test_dispatch(self):
        scheme = make_network(seed=5).build_scheme("stretch6")
        assert breakdown(scheme).total() > 0

    def test_dispatch_rejects_unknown(self):
        scheme = make_network(seed=7).build_scheme("shortest_path")
        with pytest.raises(TypeError):
            breakdown(scheme)

    def test_format_mentions_every_layer(self):
        scheme = make_network(seed=8).build_scheme("stretch6")
        text = breakdown(scheme).format(20)
        for layer in breakdown(scheme).layers:
            assert layer in text
        assert "TOTAL" in text

    def test_per_node_max_bounds_mean(self):
        scheme = make_network(seed=10).build_scheme("stretch6")
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

    @pytest.mark.parametrize("command,pairs,least", [
        ("fig1", -3, 1), ("stretch", -3, 1), ("traffic", -3, 0),
        ("report", -3, 1),
        # a stretch sample of no pairs measures nothing
        ("fig1", 0, 1), ("stretch", 0, 1), ("report", 0, 1),
    ], ids=[
        "fig1", "stretch", "traffic", "report",
        "fig1-zero", "stretch-zero", "report-zero",
    ])
    def test_negative_pairs_exits_with_one_line(self, command, pairs, least):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "12", "--pairs", str(pairs)])
        assert str(exc.value) == f"--pairs must be >= {least}, got {pairs}"

    @pytest.mark.parametrize("argv,message", [
        (["covers", "--n", "12", "--scale", "0"],
         "scale d must be positive, got 0.0"),
        (["fig1", "--n", "12", "--k", "1"],
         "hierarchy requires k >= 2, got 1"),
        (["report", "--n", "12", "--k", "1"],
         "hierarchy requires k >= 2, got 1"),
        (["stretch", "--n", "12", "--scheme", "exstretch", "--k", "1"],
         "hierarchy requires k >= 2, got 1"),
        (["tables", "--n", "12", "--scheme", "polystretch", "--k", "1"],
         "hierarchy requires k >= 2, got 1"),
        (["traffic", "--n", "12", "--scheme", "exstretch", "--k", "1"],
         "hierarchy requires k >= 2, got 1"),
        (["store", "gc", "--max-bytes", "garbage"],
         "cannot parse size 'garbage'"),
        (["serve", "--max-inflight", "0"], "--max-inflight must be >= 1, got 0"),
        (["serve", "--max-queue", "0"], "--max-queue must be >= 1, got 0"),
        (["serve", "--port", "70000"], "--port must be in 0..65535, got 70000"),
        (["traffic", "--family", "torus", "--n", "-3"],
         "family 'torus' needs n >= 7, got -3"),
        (["traffic", "--family", "asym-torus", "--n", "6"],
         "family 'asym-torus' needs n >= 7, got 6"),
        (["traffic", "--family", "random", "--n", "1"],
         "family 'random' needs n >= 2, got 1"),
        (["traffic", "--family", "layered", "--n", "0"],
         "family 'layered' needs n >= 1, got 0"),
    ], ids=[
        "covers-scale", "fig1-k", "report-k", "stretch-k", "tables-k",
        "traffic-k", "store-gc-max-bytes", "serve-max-inflight",
        "serve-max-queue", "serve-port",
        "traffic-torus-negative-n", "traffic-asym-torus-small-n",
        "traffic-random-one-vertex", "traffic-layered-zero-n",
    ])
    def test_bad_flag_value_exits_with_one_line(
        self, argv, message, tmp_path, monkeypatch
    ):
        """A library error or an out-of-range flag ends in a one-line
        SystemExit (exit 1), never a traceback."""
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == message

    def test_engine_flag(self, capsys):
        """No subcommand takes ``--engine`` any more: the code picks
        the engine, so the flag is an argparse error (exit 2)."""
        commands = [[cmd] for cmd in (
            "fig1", "stretch", "tables", "covers", "distributed",
            "traffic", "serve", "report",
        )] + [["client", "batch", "--file", "-", "--offline"]]
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--engine", "python"])
            assert exc.value.code == 2, argv
            assert "unrecognized arguments: --engine python" in (
                capsys.readouterr().err
            )

    @pytest.mark.parametrize(
        "flag", [["--linger-ms", "2"], ["--max-batch", "8"]],
        ids=["linger-ms", "max-batch"],
    )
    def test_serve_has_no_batching_knobs(self, flag, capsys):
        """The broker coalesces without a timer or a batch cap, so
        neither knob exists: each is an argparse error (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["serve", "distributed"])
    def test_k_is_only_taken_where_it_is_read(self, command, capsys):
        """Neither the daemon nor the distributed protocol reads
        ``--k``, so neither accepts it (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--k", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err

    def test_omitted_graph_flags_keep_serve_config(
        self, monkeypatch, tmp_path, capsys
    ):
        """A bare ``repro serve`` and ``client batch --offline`` both
        build ServeConfig's graph, so the served-vs-offline diff
        compares one graph."""
        import repro.cli as cli
        import repro.serve
        from repro.api import Network
        from repro.serve import ServeConfig

        default = ServeConfig()
        want = (default.family, default.n, default.seed)
        configs = []
        monkeypatch.setattr(
            repro.serve, "serve_forever",
            lambda config: configs.append(config) or 0,
        )
        assert main(["serve"]) == 0
        assert [(c.family, c.n, c.seed) for c in configs] == [want]

        built = []

        class Spy:
            @staticmethod
            def from_family(family, n, seed):
                built.append((family, n, seed))
                return Network.from_family(family, n, seed=seed, store=None)

        monkeypatch.setattr(cli, "Network", Spy)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n")
        assert main(["client", "batch", "--file", str(pairs), "--offline"]) == 0
        assert built == [want]
        assert capsys.readouterr().out.startswith("0 1 cost=")

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
        net = Network(g, seed=22, store=None)
        text = generate_report(net, seed=22, sample_pairs=40)
        assert "Theorem 13" in text
        assert "Lemma 2" in text
