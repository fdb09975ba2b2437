"""Tests for the analysis/experiment harness."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.analysis.experiments import (
    FIG1_SCHEMES,
    assert_rows_sound,
    fig1_comparison,
    format_rows,
    log_log_slope,
    table_scaling,
)
from repro.analysis.stretch import StretchDistribution, stretch_distribution
from repro.api import Network, get_spec
from repro.graph.generators import random_strongly_connected


def make_network(n: int, graph_seed: int, seed: int) -> Network:
    g = random_strongly_connected(n, rng=random.Random(graph_seed))
    return Network(g, seed=seed, store=None)


class TestFig1Harness:
    def test_rows_complete_and_sound(self):
        rows = fig1_comparison(make_network(20, 1, 2), seed=2, sample_pairs=100)
        assert {r.scheme for r in rows} == {
            "shortest-path",
            "rtz-3 (name-dep)",
            "stretch-6 (TINN)",
            "exstretch (TINN)",
            "polystretch (TINN)",
        }
        assert_rows_sound(rows)

    def test_tinn_column(self):
        net = make_network(16, 3, 4)
        rows = fig1_comparison(net, seed=4, sample_pairs=60)
        by = {r.scheme: r for r in rows}
        assert not by["shortest-path"].name_independent
        assert not by["rtz-3 (name-dep)"].name_independent
        assert by["stretch-6 (TINN)"].name_independent
        assert by["exstretch (TINN)"].name_independent
        assert by["polystretch (TINN)"].name_independent
        # both claimed columns are the registry spec's, row for row
        for row, name in zip(rows, FIG1_SCHEMES):
            spec = get_spec(name)
            scheme = net.build_scheme(name)
            assert row.scheme == scheme.name
            assert row.paper_stretch == spec.stretch_bound(scheme)
            assert row.name_independent == spec.name_independent

    def test_format_rows_prints_every_scheme(self):
        rows = fig1_comparison(make_network(14, 5, 6), seed=6, sample_pairs=40)
        text = format_rows(rows)
        for r in rows:
            assert r.scheme in text

    def test_rows_check_survives_python_O(self):
        # ``python -O`` strips asserts; the Fig. 1 check must still run.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from repro.analysis.experiments import SchemeRow, assert_rows_sound\n"
            "from repro.exceptions import RoutingError\n"
            "row = SchemeRow('stretch-6 (TINN)', True, 6.0, 6.5, 2.0, 10, 40)\n"
            "try:\n"
            "    assert_rows_sound([row])\n"
            "except RoutingError as exc:\n"
            "    print(exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "stretch-6 (TINN) exceeded its claimed stretch"


class TestScaling:
    def test_sqrt_vs_linear_slopes(self):
        sizes = [16, 36, 64]

        def family(n, rng):
            return random_strongly_connected(n, rng=rng)

        sqrt_points = table_scaling(family, sizes, "stretch6")
        lin_points = table_scaling(family, sizes, "shortest_path")
        sqrt_slope = log_log_slope(sqrt_points)
        lin_slope = log_log_slope(lin_points)
        assert lin_slope == pytest.approx(1.0, abs=0.05)
        assert sqrt_slope < lin_slope  # compact grows strictly slower

    def test_log_log_slope_edge_cases(self):
        from repro.analysis.experiments import ScalingPoint

        flat = [ScalingPoint(16, 10, 10.0), ScalingPoint(64, 10, 10.0)]
        assert log_log_slope(flat) == pytest.approx(0.0)


class TestStretchDistribution:
    def test_baseline_distribution_is_unit(self):
        net = make_network(12, 10, 11)
        dist = stretch_distribution(net.router("shortest_path"))
        assert dist.max() == pytest.approx(1.0)
        assert dist.mean() == pytest.approx(1.0)
        assert dist.fraction_at_most(1.0) == 1.0
        assert dist.percentile(50) == pytest.approx(1.0)

    def test_histogram_covers_all_samples(self):
        net = make_network(12, 12, 13)
        dist = stretch_distribution(net.router("stretch6"), sample=60)
        hist = dist.histogram([1.0, 2.0, 3.0, 6.0])
        assert sum(hist.values()) == len(dist.samples)

    def test_percentiles_monotone(self):
        net = make_network(12, 15, 16)
        dist = stretch_distribution(net.router("stretch6"), sample=80)
        assert (
            dist.percentile(10)
            <= dist.percentile(50)
            <= dist.percentile(90)
            <= dist.max()
        )

    def test_empty_distribution_reads_nan(self):
        # no pairs, no stretch: nan, as an empty TrafficSummary reads
        dist = StretchDistribution([])
        for value in (
            dist.max(), dist.mean(), dist.percentile(50),
            dist.fraction_at_most(3.0),
        ):
            assert math.isnan(value)
        assert dist.histogram([1.0, 2.0]) == {"[1,2)": 0, "[2,inf)": 0}
