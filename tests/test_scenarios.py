"""The ``repro-scenario/1`` declarative scenario layer.

Five concerns, bottom-up:

* **spec validation** — golden invalid fixtures whose exact error
  messages are pinned (unknown keys, bad families, malformed events,
  missing seeds, ...) plus a hypothesis sweep proving every generated
  spec round-trips ``from_doc(to_doc(spec)) == spec``;
* **the runner** — graph building (generator families and edgelist
  snapshots), phase workload derivation, churn evolution, assertion
  evaluation, and the determinism contract: a phase that spans many
  engine calls summarizes as one, on both engines;
* **the committed zoo** — every spec under ``scenarios/`` validates,
  its assertions hold at smoke size (what CI's scenario-matrix job
  enforces), and it summarizes identically on the python engine
  (forced with ``table_storage.python_engine``), on dense tables and
  on blocked tables; a second hypothesis sweep runs generated specs
  the same three ways;
* **CLI plumbing** — ``repro scenario {run,validate,show,list}`` exit
  codes and output;
* **serve** — the ``WorkloadRequest`` scenario form (round-trip,
  event rejection) and ``Generation.serve_scenario`` determinism.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import scheme_names
from repro.cli import main
from repro.exceptions import GraphError
from repro.runtime import traffic
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
from table_storage import forced, python_engine

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

    def test_python_engine_with_table_family_loads(self):
        """``engines``, ``tables`` and ``jobs`` are validated and have
        no effect, so any valid combination loads, runs one cell per
        scheme, and the normalized form drops all three."""
        for tables in (["dense"], ["dense", "blocked"], ["auto"]):
            spec = ScenarioSpec.from_doc(minimal_doc(matrix={
                "engines": ["python", "vectorized"], "tables": tables,
                "jobs": [1, 4],
            }))
            assert spec.matrix.cells == 1
            assert spec.to_doc()["matrix"] == {
                "schemes": ["stretch6"], "params": {},
            }
            assert spec == ScenarioSpec.from_doc(minimal_doc())

    def test_unknown_engine(self):
        self.expect(
            minimal_doc(matrix={"engines": ["warp"]}),
            "matrix engine 'warp' unknown; choose from "
            "('auto', 'vectorized', 'python')",
        )

    def test_unknown_table_family(self):
        self.expect(
            minimal_doc(matrix={"tables": ["sparse"]}),
            "matrix table family 'sparse' unknown; choose from "
            "('auto', 'dense', 'blocked')",
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

    @staticmethod
    def event_doc(event):
        return minimal_doc(workload={"phases": [
            {"kind": "uniform", "pairs": 4},
            {"kind": "uniform", "pairs": 4, "events": [event]},
        ]})

    @pytest.mark.parametrize("event,message", [
        pytest.param(
            {"op": "reweight", "tail": 0},
            "malformed 'reweight' op: missing 'head'",
            id="missing-head",
        ),
        pytest.param(
            {"op": "departure", "nod": 3},
            "unknown 'departure' event key(s): nod; expected node",
            id="unknown-key",
        ),
        pytest.param(
            {"op": "link_down", "tail": "a", "head": 1},
            "malformed 'link_down' op: 'tail' must be an integer vertex, "
            "got 'a'",
            id="string-vertex",
        ),
        pytest.param(
            {"op": "link_up", "tail": 0, "head": 2.5},
            "malformed 'link_up' op: 'head' must be an integer vertex, "
            "got 2.5",
            id="float-vertex",
        ),
        pytest.param(
            {"op": "link_up", "tail": 0, "head": 2, "weight": "heavy"},
            "malformed 'link_up' op: 'weight' must be a number, got 'heavy'",
            id="string-weight",
        ),
        pytest.param(
            {"op": "reweight", "tail": 0, "head": 1, "factor": True},
            "reweight 'factor' must be a number, got True",
            id="bool-factor",
        ),
        pytest.param(
            {"op": "reweight", "tail": 0, "head": 1, "weight": 2.0,
             "factor": 2.0},
            "a reweight event gives a weight or a factor, not both",
            id="weight-and-factor",
        ),
        pytest.param(
            {"op": "arrival", "out": [[0]]},
            "arrival 'out' entries must be [vertex, weight] pairs, got [0]",
            id="arrival-edge",
        ),
        pytest.param(
            {"op": "departure", "node": None},
            "malformed 'departure' op: 'node' must be an integer vertex, "
            "got None",
            id="null-node",
        ),
    ])
    def test_malformed_event(self, event, message):
        self.expect(self.event_doc(event), f"phases[1].events[0]: {message}")

    def test_explicit_events_load(self):
        """Events with every operand form still load: bare, explicit,
        link_up's default weight and reweight's factor."""
        events = [
            {"op": "reweight"},
            {"op": "reweight", "tail": 0, "head": 1, "factor": 1.5},
            {"op": "reweight", "tail": 0, "head": 1},
            {"op": "link_up", "tail": 0, "head": 2},
            {"op": "link_down", "tail": 0, "head": 2},
            {"op": "arrival", "out": [[0, 1.0]], "in": [[1, 2]]},
            {"op": "departure", "node": 3},
        ]
        doc = minimal_doc(workload={"phases": [
            {"kind": "uniform", "pairs": 4, "events": events},
        ]})
        assert ScenarioSpec.from_doc(doc).total_events == len(events)

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


@st.composite
def runnable_docs(draw):
    """A generated spec whose matrix names one or two of every
    registered scheme."""
    doc = draw(scenario_docs())
    doc["matrix"] = {"schemes": draw(st.lists(
        st.sampled_from(scheme_names()), min_size=1, max_size=2, unique=True,
    ))}
    return doc


@settings(max_examples=40, deadline=None)
@given(doc=runnable_docs())
def test_generated_spec_runs_alike_three_ways(doc):
    """Each generated spec at smoke size, per scheme: the python engine,
    dense tables and blocked tables give equal summary fingerprints,
    and every cell that routed a pair stays within its scheme's
    claimed stretch bound."""
    spec = ScenarioSpec.from_doc(doc).smoke()
    for scheme, cells in run_three_ways(spec).items():
        prints = [summary_fingerprint(cell.summary) for cell in cells]
        assert prints[0] == prints[1] == prints[2], scheme
        for cell in cells:
            if cell.summary.pairs:
                assert cell.summary.max_stretch <= cell.bound + 1e-9, (
                    scheme, cell.summary.max_stretch, cell.bound
                )


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
    assert np.array_equal(w1.pairs, w2.pairs)
    assert not np.array_equal(w1.pairs, w3.pairs)


def test_run_scenario_phase_spanning_chunks_matches_one_call(monkeypatch):
    # With 64-pair chunks, the 300-pair phase takes five engine calls;
    # the cell must summarize it as one call of all 300 pairs does, on
    # the auto (vectorized) engine and on the python one.
    doc = minimal_doc(
        graph={"family": "random", "n": 24},
        workload={"phases": [
            {"kind": "uniform", "pairs": 40},
            {"kind": "hotspot", "pairs": 40,
             "events": [{"op": "reweight"}]},
            {"kind": "uniform", "pairs": 300},
        ]},
    )
    whole = run_scenario(doc, store=None)
    monkeypatch.setattr(traffic, "CHUNK_PAIRS", 64)
    chunked = run_scenario(doc, store=None)
    with python_engine():
        python = run_scenario(doc, store=None)
    assert whole.ok and chunked.ok and python.ok
    fingerprints = [summary_fingerprint(c.summary) for c in chunked.cells]
    assert fingerprints == [summary_fingerprint(c.summary) for c in whole.cells]
    assert fingerprints == [summary_fingerprint(c.summary) for c in python.cells]
    # formatted output identical apart from throughput lines
    strip = lambda text: "\n".join(  # noqa: E731
        ln for ln in text.splitlines() if not ln.startswith("throughput")
    )
    assert strip(whole.format()) == strip(chunked.format())


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
    result = run_scenario(spec, store=None)
    assert result.ok, result.format()


def run_three_ways(spec: ScenarioSpec) -> dict:
    """Run ``spec`` on the python engine (every scheme declining to
    compile), then on the compiled engine with dense tables and with
    blocked tables (forced through the size threshold).  Returns each
    scheme's cells, one per run, in that order."""
    by_scheme = {}
    for mode in (python_engine(), forced("dense"), forced("blocked")):
        with mode:
            result = run_scenario(spec, store=None)
        for cell in result.cells:
            by_scheme.setdefault(cell.scheme, []).append(cell)
    return by_scheme


@pytest.mark.parametrize("path", ZOO, ids=lambda p: p.stem)
def test_committed_spec_agrees_across_engines_and_tables(path):
    """Each committed spec at smoke size, per scheme: the python engine,
    dense tables and blocked tables give equal summary fingerprints."""
    spec = load_scenario(str(path)).smoke()
    for scheme, cells in run_three_ways(spec).items():
        for cell in cells:
            assert cell.ok, cell.format()
        prints = [summary_fingerprint(cell.summary) for cell in cells]
        assert prints[0] == prints[1] == prints[2], (path.stem, scheme)


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

    def test_malformed_event_fails_validate_and_run(self, capsys):
        """A churn event missing an operand is invalid before it runs:
        validate exits 2 naming the event, and run exits 1 with one
        line instead of a traceback."""
        doc = json.dumps(TestGoldenErrors.event_doc(
            {"op": "reweight", "tail": 0}
        ))
        rc = main(["scenario", "validate", doc])
        out = capsys.readouterr().out
        assert rc == 2
        assert "INVALID: phases[1].events[0]: malformed 'reweight'" in out
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "run", doc, "--no-store"])
        assert str(exc.value).startswith("phases[1].events[0]: ")

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
        assert doc["matrix"] == {"schemes": ["stretch6"], "params": {}}

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
