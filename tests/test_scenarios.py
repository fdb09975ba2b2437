"""The ``repro-scenario/1`` declarative scenario layer.

Five concerns, bottom-up:

* **spec validation** — golden invalid fixtures whose exact error
  messages are pinned (unknown keys, bad families, contradictory
  matrices, missing seeds, ...) plus a hypothesis sweep proving every
  generated spec round-trips ``from_doc(to_doc(spec)) == spec``;
* **the runner** — graph building (generator families and edgelist
  snapshots), phase workload derivation, churn evolution, assertion
  evaluation, and the tentpole determinism contract: summaries are
  bit-identical across the ``jobs`` axis;
* **the committed zoo** — every spec under ``scenarios/`` validates
  and its assertions hold at smoke size (what CI's scenario-matrix
  job enforces);
* **CLI plumbing** — ``repro scenario {run,validate,show,list}`` exit
  codes and output;
* **serve** — the ``WorkloadRequest`` scenario form (round-trip,
  event rejection) and ``Generation.serve_scenario`` determinism.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import GraphError
from repro.scenarios import (
    GRAPH_FAMILIES,
    PHASE_KINDS,
    SCHEMA,
    ScenarioError,
    ScenarioSpec,
    build_scenario_graph,
    load_scenario,
    phase_workload,
    run_scenario,
    summary_fingerprint,
)
from repro.serve.protocol import ProtocolError, WorkloadRequest

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def minimal_doc(**overrides):
    """A valid baseline document tests mutate into invalid shapes."""
    doc = {
        "schema": SCHEMA,
        "name": "t",
        "seed": 1,
        "graph": {"family": "random", "n": 16},
        "workload": {"phases": [{"kind": "uniform", "pairs": 8}]},
    }
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------------
# golden invalid fixtures: exact, stable error messages
# ----------------------------------------------------------------------

class TestGoldenErrors:
    def expect(self, doc, message):
        with pytest.raises(ScenarioError) as err:
            ScenarioSpec.from_doc(doc)
        assert str(err.value) == message

    def test_unknown_top_level_key(self):
        self.expect(
            minimal_doc(grpah={"family": "random"}),
            "unknown scenario key(s): grpah; expected schema, name, "
            "summary, seed, graph, workload, matrix, assertions",
        )

    def test_unknown_graph_key(self):
        self.expect(
            minimal_doc(graph={"family": "random", "n": 16, "size": 3}),
            "unknown graph key(s): size; expected family, n, params, "
            "path, edges",
        )

    def test_missing_seed(self):
        doc = minimal_doc()
        del doc["seed"]
        self.expect(doc, "scenario 'seed' is required and must be an integer")

    def test_bad_schema(self):
        self.expect(
            minimal_doc(schema="repro-scenario/9"),
            "scenario 'schema' must be 'repro-scenario/1', "
            "got 'repro-scenario/9'",
        )

    def test_unknown_family(self):
        self.expect(
            minimal_doc(graph={"family": "smallworld", "n": 16}),
            f"unknown scenario graph family 'smallworld'; choose from "
            f"{GRAPH_FAMILIES}",
        )

    def test_unknown_phase_kind(self):
        self.expect(
            minimal_doc(workload={"phases": [{"kind": "burst", "pairs": 4}]}),
            f"phases[0].kind 'burst' unknown; choose from {PHASE_KINDS}",
        )

    def test_contradictory_matrix(self):
        self.expect(
            minimal_doc(matrix={"engines": ["python"], "tables": ["dense"]}),
            "contradictory matrix: engine 'python' cannot execute "
            "compiled table family 'dense'; drop 'python' from engines "
            "or keep tables ['auto']",
        )

    def test_bad_jobs(self):
        self.expect(
            minimal_doc(matrix={"jobs": [0]}),
            "matrix 'jobs' must be a non-empty list of integers >= 1, "
            "got [0]",
        )

    def test_edgelist_needs_exactly_one_source(self):
        self.expect(
            minimal_doc(graph={"family": "edgelist"}),
            "edgelist graphs need exactly one of 'path' or 'edges'",
        )

    def test_empty_phases(self):
        self.expect(
            minimal_doc(workload={"phases": []}),
            "scenario workload needs a non-empty 'phases' list",
        )

    def test_trace_forbids_pairs(self):
        self.expect(
            minimal_doc(workload={"phases": [
                {"kind": "trace", "pairs": 4, "trace": [[0, 1]]},
            ]}),
            "phases[0].pairs does not apply to trace phases (the trace "
            "defines the pairs)",
        )

    def test_not_an_object(self):
        self.expect([1, 2], "scenario must be a JSON object")

    def test_invalid_json_text(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario("{not json")
        assert str(err.value).startswith("scenario is not valid JSON")

    def test_unreadable_file(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario("/no/such/spec.json")
        assert str(err.value).startswith("cannot read scenario file")


# ----------------------------------------------------------------------
# round-trip: from_doc(to_doc(spec)) == spec
# ----------------------------------------------------------------------

def test_round_trip_minimal():
    spec = ScenarioSpec.from_doc(minimal_doc())
    assert ScenarioSpec.from_doc(spec.to_doc()) == spec


def test_round_trip_survives_json():
    spec = ScenarioSpec.from_doc(minimal_doc(
        matrix={"schemes": ["stretch6", "rtz"], "jobs": [1, 4]},
        assertions={"max_stretch": 6.0, "expect_epochs": 1},
    ))
    again = ScenarioSpec.from_doc(json.loads(json.dumps(spec.to_doc())))
    assert again == spec


def test_smoke_clamps_generator_and_pairs():
    spec = ScenarioSpec.from_doc(minimal_doc(
        graph={"family": "random", "n": 500},
        workload={"phases": [{"kind": "uniform", "pairs": 4000}]},
    ))
    small = spec.smoke()
    assert small.graph.n == 48
    assert small.phases[0].pairs == 96
    # trace phases and edgelist graphs replay verbatim
    trace_spec = ScenarioSpec.from_doc(minimal_doc(
        graph={"family": "edgelist",
               "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]]},
        workload={"phases": [{"kind": "trace", "trace": [[0, 2]]}]},
    ))
    assert trace_spec.smoke() == trace_spec


# hypothesis sweep --------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def scenario_docs(draw):
    phases = draw(st.lists(
        st.fixed_dictionaries({
            "kind": st.sampled_from(("uniform", "hotspot", "zipf", "mixed")),
            "pairs": st.integers(min_value=0, max_value=64),
        }),
        min_size=1, max_size=3,
    ))
    doc = {
        "schema": SCHEMA,
        "name": draw(st.text(
            alphabet="abcdefghij-", min_size=1, max_size=12)),
        "seed": draw(st.integers(min_value=-100, max_value=100)),
        "graph": {
            "family": draw(st.sampled_from(("random", "cycle", "dht"))),
            "n": draw(st.integers(min_value=2, max_value=64)),
        },
        "workload": {"phases": phases},
    }
    if draw(st.booleans()):
        doc["matrix"] = {
            "schemes": draw(st.lists(
                st.sampled_from(("stretch6", "rtz", "shortest_path")),
                min_size=1, max_size=2, unique=True)),
            "jobs": draw(st.lists(
                st.integers(min_value=1, max_value=8),
                min_size=1, max_size=2)),
        }
    if draw(st.booleans()):
        doc["assertions"] = {
            "stretch_within_bound": draw(st.booleans()),
            "max_stretch": draw(st.floats(
                min_value=0.5, max_value=100, allow_nan=False)),
        }
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=scenario_docs())
def test_round_trip_property(doc):
    spec = ScenarioSpec.from_doc(doc)
    assert ScenarioSpec.from_doc(spec.to_doc()) == spec
    # the normalized doc is a fixed point
    assert ScenarioSpec.from_doc(spec.to_doc()).to_doc() == spec.to_doc()


# ----------------------------------------------------------------------
# runner: graphs, workloads, determinism, assertions
# ----------------------------------------------------------------------

def test_build_generator_graph_is_deterministic():
    spec = load_scenario(minimal_doc(graph={"family": "power-law", "n": 24}))
    g1 = build_scenario_graph(spec)
    g2 = build_scenario_graph(spec)
    assert g1.n == 24
    key = lambda e: (e.tail, e.head)  # noqa: E731
    assert sorted(g1.edges(), key=key) == sorted(g2.edges(), key=key)


def test_build_edgelist_graph_inline():
    spec = load_scenario(minimal_doc(graph={
        "family": "edgelist",
        "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 0, 1.5]],
    }))
    g = build_scenario_graph(spec)
    assert g.n == 3
    assert g.weight(1, 2) == 2.0


def test_build_edgelist_graph_from_relative_path(tmp_path):
    (tmp_path / "ring.edges").write_text(
        "0 1 1.0\n1 2 1.0\n2 0 1.0\n", encoding="utf-8"
    )
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(minimal_doc(
        graph={"family": "edgelist", "path": "ring.edges"},
    )), encoding="utf-8")
    spec = load_scenario(str(spec_file))
    assert spec.base_dir == str(tmp_path.resolve())
    assert build_scenario_graph(spec).n == 3


def test_bad_generator_params_raise_scenario_error():
    spec = load_scenario(minimal_doc(
        graph={"family": "power-law", "n": 24,
               "params": {"exponent": 0.5}},
    ))
    with pytest.raises(ScenarioError):
        build_scenario_graph(spec)


def test_trace_phase_out_of_range():
    spec = load_scenario(minimal_doc(workload={"phases": [
        {"kind": "trace", "trace": [[0, 99]]},
    ]}))
    with pytest.raises(GraphError) as err:
        phase_workload(spec.phases[0], 0, spec.seed, 16)
    assert "out of range" in str(err.value)


def test_phase_workload_is_seed_deterministic():
    spec = load_scenario(minimal_doc())
    w1 = phase_workload(spec.phases[0], 0, spec.seed, 16)
    w2 = phase_workload(spec.phases[0], 0, spec.seed, 16)
    w3 = phase_workload(spec.phases[0], 0, spec.seed + 1, 16)
    assert w1.pairs == w2.pairs
    assert w1.pairs != w3.pairs


def test_run_scenario_jobs_override_is_bit_identical():
    # The 300-pair phase spans two SCENARIO_SHARD_SIZE shards, so each
    # cell's jobs=4 run merges more than one shard.
    doc = minimal_doc(
        graph={"family": "random", "n": 24},
        workload={"phases": [
            {"kind": "uniform", "pairs": 40},
            {"kind": "hotspot", "pairs": 40,
             "events": [{"op": "reweight"}]},
            {"kind": "uniform", "pairs": 300},
        ]},
        matrix={"engines": ["auto", "python"]},
    )
    r1 = run_scenario(doc, jobs=1, store=None)
    r4 = run_scenario(doc, jobs=4, store=None)
    assert r1.ok and r4.ok
    f1 = [summary_fingerprint(c.summary) for c in r1.cells]
    f4 = [summary_fingerprint(c.summary) for c in r4.cells]
    assert f1 == f4
    # formatted output identical apart from throughput lines
    strip = lambda text: "\n".join(  # noqa: E731
        ln for ln in text.splitlines() if not ln.startswith("throughput")
    )
    assert strip(r1.format()) == strip(r4.format())


def test_run_scenario_churn_tracks_generations_and_epochs():
    doc = minimal_doc(
        graph={"family": "random", "n": 24},
        workload={"phases": [
            {"kind": "uniform", "pairs": 24},
            {"kind": "uniform", "pairs": 24,
             "events": [{"op": "reweight"}, {"op": "link_down"}]},
        ]},
        assertions={"expect_epochs": 2, "expect_generations": 2},
    )
    result = run_scenario(doc, store=None)
    assert result.ok
    (cell,) = result.cells
    assert cell.final_generation == 2
    assert len(cell.summary.epochs) == 2
    assert cell.summary.epochs[1].events


def test_failed_assertion_reported_not_raised():
    doc = minimal_doc(assertions={"expect_epochs": 5})
    result = run_scenario(doc, store=None)
    assert not result.ok
    passed, failed, skipped = result.counts()
    assert failed == 1
    assert "fail" in result.cells[0].format()


def test_scheme_bound_assertion_uses_matrix_params():
    # shortest_path has stretch 1; any measured stretch passes
    doc = minimal_doc(matrix={"schemes": ["shortest_path"]})
    result = run_scenario(doc, store=None)
    assert result.ok


# ----------------------------------------------------------------------
# the committed zoo
# ----------------------------------------------------------------------

ZOO = sorted(SCENARIO_DIR.glob("*.json"))


def test_zoo_is_populated():
    assert len(ZOO) >= 8
    assert SCENARIO_DIR / "flash_crowd.json" in ZOO


@pytest.mark.parametrize("path", ZOO, ids=lambda p: p.stem)
def test_committed_spec_validates_and_round_trips(path):
    spec = load_scenario(str(path))
    assert ScenarioSpec.from_doc(spec.to_doc()) == spec
    assert spec.summary, "committed specs document themselves"


def test_flash_crowd_smoke_assertions_hold():
    spec = load_scenario(str(SCENARIO_DIR / "flash_crowd.json")).smoke()
    result = run_scenario(spec, jobs=2, store=None)
    assert result.ok, result.format()


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------

class TestScenarioCli:
    def test_validate_ok(self, capsys):
        rc = main(["scenario", "validate",
                   str(SCENARIO_DIR / "flash_crowd.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok (flash-crowd-surge: 2 phases, 160 pairs, 1 cells)" in out

    def test_validate_invalid_exits_2(self, capsys):
        rc = main(["scenario", "validate", '{"schema": "nope"}'])
        out = capsys.readouterr().out
        assert rc == 2
        assert "INVALID" in out

    def test_run_inline_spec(self, capsys):
        rc = main(["scenario", "run", json.dumps(minimal_doc()),
                   "--no-store"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenario   : t (repro-scenario/1, seed 1)" in out
        assert "assertions : 1 passed, 0 failed" in out

    def test_run_assertion_failure_exits_1(self, capsys):
        rc = main(["scenario", "run",
                   json.dumps(minimal_doc(
                       assertions={"expect_epochs": 9})),
                   "--no-store"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "fail" in out

    def test_show_prints_normalized_doc(self, capsys):
        rc = main(["scenario", "show", json.dumps(minimal_doc())])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA
        assert doc["matrix"]["jobs"] == [1]

    def test_list_zoo(self, capsys):
        rc = main(["scenario", "list", "--dir", str(SCENARIO_DIR)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flash_crowd.json" in out


# ----------------------------------------------------------------------
# serve: the scenario workload form
# ----------------------------------------------------------------------

class TestServeScenario:
    def scenario_doc(self, **overrides):
        doc = minimal_doc(
            workload={"phases": [
                {"kind": "uniform", "pairs": 12},
                {"kind": "trace", "trace": [[0, 5], [5, 0]]},
            ]},
        )
        doc.update(overrides)
        return doc

    def test_request_round_trips_normalized(self):
        req = WorkloadRequest.from_doc({
            "scenario": self.scenario_doc(), "scheme": "stretch6",
        })
        assert req.scenario["schema"] == SCHEMA
        again = WorkloadRequest.from_doc(req.to_doc())
        assert again.scenario == req.scenario
        assert again.scheme == "stretch6"

    def test_request_rejects_scenario_plus_kind(self):
        with pytest.raises(ProtocolError) as err:
            WorkloadRequest.from_doc({
                "scenario": self.scenario_doc(), "kind": "uniform",
            })
        assert "not both" in str(err.value)

    def test_request_rejects_events(self):
        doc = self.scenario_doc(workload={"phases": [
            {"kind": "uniform", "pairs": 8,
             "events": [{"op": "reweight"}]},
        ]})
        with pytest.raises(ProtocolError) as err:
            WorkloadRequest.from_doc({"scenario": doc})
        assert "only mutates through /reload" in str(err.value)

    def test_request_rejects_malformed_scenario(self):
        with pytest.raises(ProtocolError) as err:
            WorkloadRequest.from_doc({"scenario": {"schema": "nope"}})
        assert str(err.value).startswith("malformed scenario")

    def test_generation_serves_scenario_deterministically(self):
        from repro.serve.lifecycle import Lifecycle

        life = Lifecycle("random", 16, seed=2, store=None)
        gen = life.current
        doc = self.scenario_doc()
        s1 = gen.serve_scenario(doc, "stretch6")
        s2 = gen.serve_scenario(doc, "stretch6")
        assert summary_fingerprint(s1) == summary_fingerprint(s2)
        assert s1.pairs == 14  # 12 generated + 2 trace

    def test_generation_rejects_out_of_range_trace(self):
        from repro.serve.lifecycle import Lifecycle

        life = Lifecycle("random", 16, seed=2, store=None)
        doc = self.scenario_doc(workload={"phases": [
            {"kind": "trace", "trace": [[0, 99]]},
        ]})
        with pytest.raises(ProtocolError):
            life.current.serve_scenario(doc, "stretch6")
