"""Tests for the repro.bench subsystem: registry resolution, artifact
schema round-trip, comparator verdicts, and the ``repro bench`` CLI
(including the regression exit-code contract)."""

from __future__ import annotations

import json
import time

import pytest

from repro import bench
from repro.bench import registry as bench_registry
from repro.bench.compare import ABS_FLOOR_S
from repro.bench.runner import CaseResult
from repro.cli import main
from repro.exceptions import ConstructionError


# ----------------------------------------------------------------------
# environment flag parsing (the REPRO_BENCH_SMOKE fix)
# ----------------------------------------------------------------------


class TestEnvFlag:
    @pytest.mark.parametrize(
        "value", ["", "0", "false", "no", "off", "False", "NO", " Off "]
    )
    def test_falsy_values_mean_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", value)
        assert bench.smoke_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
    def test_truthy_values_mean_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", value)
        assert bench.smoke_enabled() is True

    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        assert bench.smoke_enabled() is False
        assert bench.env_flag("REPRO_BENCH_SMOKE", default=True) is True

    def test_smoke_n_clamps_only_in_smoke_mode(self):
        assert bench.smoke_n(256, smoke=True) == bench.SMOKE_N
        assert bench.smoke_n(256, smoke=False) == 256
        assert bench.smoke_n(8, smoke=True) == 8

    def test_conftest_delegates_to_shared_helper(self, monkeypatch):
        # The benchmarks/ suite and the runner share one parser: the
        # historical bug where "false" meant *on* must stay fixed.
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "false")
        assert bench.smoke_n(256) == 256
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "yes")
        assert bench.smoke_n(256) == bench.SMOKE_N


# ----------------------------------------------------------------------
# registry resolution
# ----------------------------------------------------------------------


@pytest.fixture
def temp_case():
    """Register a fast controllable case; unregister on teardown."""
    name = "traffic/_test_case"
    delay = {"s": 0.0}

    @bench.bench_case(name, axis="traffic", summary="test-only",
                      tolerance=0.5, tags={"scheme": "test"})
    def _setup(ctx):
        def thunk():
            if delay["s"]:
                time.sleep(delay["s"])
            return 42

        return thunk

    yield name, delay
    bench_registry._REGISTRY.pop(name, None)


class TestRegistry:
    def test_builtin_suite_registers_and_covers_every_axis(self):
        cases = bench.all_cases()
        assert len(cases) >= 15
        assert {c.axis for c in cases} == set(bench.AXES)
        assert len({c.name for c in cases}) == len(cases)

    def test_get_case_resolves(self):
        case = bench.get_case("traffic/stretch6/uniform/vectorized")
        assert case.axis == "traffic"
        assert case.tag_dict()["scheme"] == "stretch6"

    def test_unknown_case_lists_choices(self):
        with pytest.raises(bench.UnknownCaseError) as e:
            bench.get_case("traffic/nope")
        assert "build/stretch6" in str(e.value)

    def test_select_by_axis_and_pattern(self):
        shard = bench.select_cases(["shard"])
        assert shard and all(c.axis == "shard" for c in shard)
        globbed = bench.select_cases(["traffic/stretch6/*"])
        assert all(c.name.startswith("traffic/stretch6/") for c in globbed)
        # Overlapping filters do not duplicate.
        both = bench.select_cases(["shard", "shard/*"])
        assert len(both) == len(shard)

    def test_select_unknown_pattern_raises(self):
        with pytest.raises(bench.UnknownCaseError):
            bench.select_cases(["no-such-axis"])

    def test_duplicate_registration_raises(self, temp_case):
        name, _ = temp_case
        with pytest.raises(ConstructionError, match="twice"):
            bench.bench_case(name, axis="traffic")(lambda ctx: (lambda: 0))

    def test_unknown_axis_raises(self):
        with pytest.raises(ConstructionError, match="axis"):
            bench.bench_case("x/y", axis="nonsense")(lambda ctx: (lambda: 0))


# ----------------------------------------------------------------------
# runner + artifact schema round-trip
# ----------------------------------------------------------------------


def _make_run(**medians_and_tol):
    """A synthetic BenchRun: name -> (median_s, tolerance)."""
    results = [
        CaseResult(name=name, axis="traffic", tags={}, tolerance=tol,
                   warmup=0, samples_s=(median,))
        for name, (median, tol) in medians_and_tol.items()
    ]
    return bench.BenchRun(created="2026-07-30T00:00:00+00:00", smoke=True,
                          seed=0, env={}, results=results)


class TestRunnerAndArtifact:
    def test_run_cases_records_samples_and_stats(self, temp_case):
        name, _ = temp_case
        run = bench.run_cases(
            [bench.get_case(name)],
            bench.BenchContext(smoke=True),
            repeats=4,
            warmup=2,
        )
        (result,) = run.results
        assert result.name == name
        assert result.repeats == 4 and result.warmup == 2
        assert result.min_s <= result.median_s
        assert result.iqr_s >= 0
        assert run.smoke is True
        assert run.env["cpu_count"] >= 1

    def test_artifact_round_trip(self, temp_case, tmp_path):
        name, _ = temp_case
        run = bench.run_cases([bench.get_case(name)],
                              bench.BenchContext(smoke=True), repeats=2)
        path = bench.write_artifact(run, tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        doc = json.loads(path.read_text())
        bench.validate_doc(doc)
        assert doc["schema"] == bench.SCHEMA
        loaded = bench.load_run(path)
        assert loaded.created == run.created
        assert loaded.result(name).samples_s == run.results[0].samples_s
        assert loaded.result(name).median_s == run.results[0].median_s

    def test_artifacts_never_overwrite(self, temp_case, tmp_path):
        name, _ = temp_case
        run = bench.run_cases([bench.get_case(name)],
                              bench.BenchContext(smoke=True), repeats=1)
        p1 = bench.write_artifact(run, tmp_path)
        p2 = bench.write_artifact(run, tmp_path)
        assert p1 != p2 and p1.exists() and p2.exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(schema="repro-bench/999"),
            lambda d: d.pop("created"),
            lambda d: d.update(results="nope"),
            lambda d: d["results"][0].pop("samples_s"),
            lambda d: d["results"][0].update(samples_s=["x"]),
            lambda d: d["results"][0].update(median_s=float("nan")),
            lambda d: d["results"][0].pop("warmup"),
            lambda d: d["results"][0].update(warmup=-1),
            lambda d: d["results"].append(dict(d["results"][0])),
        ],
    )
    def test_validate_rejects_malformed_docs(self, temp_case, mutate):
        name, _ = temp_case
        run = bench.run_cases([bench.get_case(name)],
                              bench.BenchContext(smoke=True), repeats=1)
        doc = run.to_doc()
        bench.validate_doc(doc)  # sane before mutation
        mutate(doc)
        with pytest.raises(bench.BenchArtifactError):
            bench.validate_doc(doc)

    def test_load_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        with pytest.raises(bench.BenchArtifactError):
            bench.load_run(bad)

    def test_context_clamps_and_shares_networks(self):
        ctx = bench.BenchContext(smoke=True)
        assert ctx.n(256) == bench.SMOKE_N
        assert ctx.count(4000, 200) == 200
        net = ctx.network("random", 256)
        assert net.n == bench.SMOKE_N
        assert net is bench.cached_network("random", 256, smoke=True)

    def test_invalid_repeats_and_warmup(self, temp_case):
        name, _ = temp_case
        case = bench.get_case(name)
        ctx = bench.BenchContext(smoke=True)
        with pytest.raises(Exception, match="repeats"):
            bench.run_cases([case], ctx, repeats=0)
        with pytest.raises(Exception, match="warmup"):
            bench.run_cases([case], ctx, warmup=-1)


# ----------------------------------------------------------------------
# comparator verdicts
# ----------------------------------------------------------------------


class TestComparator:
    def test_pass_regress_boundary(self):
        base = _make_run(a=(0.1, 1.0))
        band = bench.allowed_band_s(0.1, 1.0)  # 0.2 + floor
        ok = bench.compare_runs(_make_run(a=(band, 1.0)), base)
        assert [v.verdict for v in ok.verdicts] == ["pass"]
        assert ok.ok
        slow = bench.compare_runs(_make_run(a=(band * 1.01, 1.0)), base)
        assert [v.verdict for v in slow.verdicts] == ["regress"]
        assert not slow.ok
        assert slow.regressions[0].ratio == pytest.approx(band * 1.01 / 0.1)

    def test_faster_than_baseline_passes(self):
        cmp = bench.compare_runs(
            _make_run(a=(0.01, 0.5)), _make_run(a=(1.0, 0.5))
        )
        assert cmp.ok and cmp.verdicts[0].verdict == "pass"

    def test_abs_floor_shields_tiny_cases(self):
        # 1us -> 1ms is a 1000x ratio but far below the absolute floor.
        cmp = bench.compare_runs(
            _make_run(a=(0.001, 0.5)), _make_run(a=(0.000001, 0.5))
        )
        assert cmp.ok
        assert 0.001 < ABS_FLOOR_S + 0.0000015

    def test_new_case_recorded_but_not_fatal(self):
        cmp = bench.compare_runs(
            _make_run(a=(0.1, 1.0), b=(0.1, 1.0)), _make_run(a=(0.1, 1.0))
        )
        verdicts = {v.name: v.verdict for v in cmp.verdicts}
        assert verdicts == {"a": "pass", "b": "new-case"}
        assert cmp.ok

    def test_baseline_only_cases_reported_not_run(self):
        cmp = bench.compare_runs(
            _make_run(a=(0.1, 1.0)), _make_run(a=(0.1, 1.0), z=(0.1, 1.0))
        )
        assert cmp.not_run == ["z"]
        assert "not run" in cmp.format()

    def test_missing_baseline_file(self, tmp_path):
        cmp = bench.compare_to_baseline(
            _make_run(a=(0.1, 1.0)), tmp_path / "absent.json"
        )
        assert [v.verdict for v in cmp.verdicts] == ["missing-baseline"]
        assert cmp.ok and cmp.verdicts[0].ratio is None

    def test_smoke_full_mismatch_is_incomparable(self):
        base = _make_run(a=(0.1, 1.0))
        full = _make_run(a=(0.1, 1.0))
        full.smoke = False
        with pytest.raises(bench.BenchArtifactError, match="smoke"):
            bench.compare_runs(full, base)
        with pytest.raises(bench.BenchArtifactError, match="full-size"):
            bench.compare_runs(base, full)

    def test_corrupt_baseline_raises(self, tmp_path):
        corrupt = tmp_path / "baseline.json"
        corrupt.write_text('{"schema": "wrong"}')
        with pytest.raises(bench.BenchArtifactError):
            bench.compare_to_baseline(_make_run(a=(0.1, 1.0)), corrupt)

    def test_format_lists_every_verdict(self):
        base = _make_run(a=(0.001, 0.5))
        cmp = bench.compare_runs(
            _make_run(a=(10.0, 0.5), b=(0.1, 0.5)), base
        )
        text = cmp.format()
        assert "regress" in text and "new-case" in text
        counts = cmp.counts()
        assert counts["regress"] == 1 and counts["new-case"] == 1


# ----------------------------------------------------------------------
# the repro bench CLI
# ----------------------------------------------------------------------


class TestBenchCLI:
    def test_smoke_run_writes_parseable_artifact(self, tmp_path, capsys):
        # The acceptance contract: `repro bench --smoke` emits a
        # BENCH_*.json that validates against the documented schema.
        rc = main(["bench", "--smoke", "--repeats", "1", "--warmup", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        artifacts = list(tmp_path.glob("BENCH_*.json"))
        assert len(artifacts) == 1
        doc = json.loads(artifacts[0].read_text())
        bench.validate_doc(doc)
        assert doc["smoke"] is True
        names = {r["name"] for r in doc["results"]}
        assert names == set(bench.case_names()) and len(names) >= 15
        assert str(artifacts[0]) in capsys.readouterr().out

    def test_list_and_filter(self, capsys):
        assert main(["bench", "--list", "--filter", "apsp"]) == 0
        out = capsys.readouterr().out
        assert "apsp/vectorized" in out and "traffic/" not in out

    def test_unknown_filter_exits_with_choices(self):
        with pytest.raises(SystemExit, match="registered cases"):
            main(["bench", "--filter", "bogus/*", "--list"])

    def test_check_exit_codes_on_artificial_slowdown(
        self, temp_case, tmp_path
    ):
        # The acceptance contract: --check exits 0 on an unchanged
        # tree and nonzero when a case slows beyond its tolerance band.
        name, delay = temp_case
        baseline = tmp_path / "baseline.json"
        args = ["bench", "--smoke", "--filter", name,
                "--out", str(tmp_path), "--baseline", str(baseline)]
        delay["s"] = 0.03
        assert main(args) == 0
        (artifact,) = tmp_path.glob("BENCH_*.json")
        baseline.write_text(artifact.read_text())

        # Unchanged tree: well inside the band -> exit 0.
        assert main(args + ["--check"]) == 0

        # Artificially slowed >= its tolerance band -> exit 1.
        # band = 0.03 * (1 + 0.5) + floor ~= 0.05s; sleep 0.25s.
        delay["s"] = 0.25
        assert main(args + ["--check"]) == 1

    def test_rebaseline_refuses_partial_runs(self, temp_case, tmp_path):
        # A filtered run must never overwrite the other cases' entries.
        name, _ = temp_case
        with pytest.raises(SystemExit, match="whole baseline"):
            main(["bench", "--smoke", "--filter", name,
                  "--out", str(tmp_path),
                  "--baseline", str(tmp_path / "b.json"), "--rebaseline"])
        assert not (tmp_path / "b.json").exists()

    def test_rebaseline_refuses_mode_swap(self, tmp_path, monkeypatch):
        # A full-size run must not silently replace the smoke anchor
        # CI checks against (and vice versa).
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        baseline = tmp_path / "b.json"
        full = _make_run(a=(0.001, 0.5))
        full.smoke = False
        baseline.write_text(full.to_json())
        with pytest.raises(SystemExit, match="refusing to replace"):
            main(["bench", "--smoke", "--out", str(tmp_path),
                  "--baseline", str(baseline), "--rebaseline"])
        assert bench.load_run(baseline).smoke is False  # untouched

    def test_check_and_rebaseline_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["bench", "--smoke", "--out", str(tmp_path),
                  "--check", "--rebaseline"])

    def test_shard_cases_declare_what_they_measure(self):
        # Tags must describe the executed shape, and a run records them.
        case = bench.get_case("shard/stretch6/python/serial")
        assert case.tag_dict()["engine"] == "python"
        assert case.tag_dict()["jobs"] == "1"
        summary = bench.run_cases(
            [case], bench.BenchContext(smoke=True), repeats=1, warmup=0
        ).results[0]
        assert summary.tags == case.tag_dict()

    def test_invalid_repeats_exit_cleanly(self, temp_case, tmp_path):
        name, _ = temp_case
        with pytest.raises(SystemExit, match="repeats"):
            main(["bench", "--smoke", "--filter", name,
                  "--repeats", "0", "--out", str(tmp_path)])

    def test_check_smoke_against_full_baseline_exits_cleanly(
        self, temp_case, tmp_path
    ):
        name, _ = temp_case
        baseline = tmp_path / "full-baseline.json"
        run = _make_run(**{name: (0.001, 0.5)})
        run.smoke = False
        baseline.write_text(run.to_json())
        with pytest.raises(SystemExit, match="full-size"):
            main(["bench", "--smoke", "--filter", name,
                  "--out", str(tmp_path), "--baseline", str(baseline),
                  "--check"])

    def test_check_without_baseline_records_first_point(
        self, temp_case, tmp_path, capsys
    ):
        name, _ = temp_case
        rc = main(["bench", "--smoke", "--filter", name,
                   "--out", str(tmp_path),
                   "--baseline", str(tmp_path / "absent.json"), "--check"])
        assert rc == 0
        assert "missing-baseline" in capsys.readouterr().out

    def test_committed_baseline_matches_registered_suite(self):
        # benchmarks/baseline.json must stay in lockstep with the
        # registry: every registered case has a baseline entry (new
        # cases demand a deliberate --rebaseline before merging).
        run = bench.load_run("benchmarks/baseline.json")
        assert run.smoke is True
        baseline_names = {r.name for r in run.results}
        assert baseline_names == set(bench.case_names())
