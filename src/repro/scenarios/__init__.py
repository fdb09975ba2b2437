"""Declarative scenarios: spec-driven graphs, workloads, and checks.

The scenario zoo (ROADMAP's last open item): a versioned JSON document
(``repro-scenario/1``, :mod:`repro.scenarios.spec`) describes the whole
experiment — graph family, composable workload phases, optional churn
events, the scheme x engine x tables x jobs execution matrix, and
declarative assertions — and :mod:`repro.scenarios.runner` executes it
with the library's bit-identical-across-``jobs`` determinism guarantee
extended to spec-driven runs.  Consumed by ``repro scenario
{run,list,validate,show}``, the CI ``scenario-matrix`` job, and the
serve daemon.
"""

from repro.scenarios.spec import (
    GRAPH_FAMILIES,
    PHASE_KINDS,
    SCHEMA,
    SMOKE_MAX_N,
    SMOKE_MAX_PAIRS,
    AssertionSpec,
    GraphSpec,
    MatrixSpec,
    PhaseSpec,
    ScenarioError,
    ScenarioSpec,
    load_scenario,
)
from repro.scenarios.runner import (
    SCENARIO_SHARD_SIZE,
    CellResult,
    ScenarioResult,
    build_scenario_graph,
    phase_workload,
    run_scenario,
    summary_fingerprint,
)

__all__ = [
    "SCHEMA",
    "GRAPH_FAMILIES",
    "PHASE_KINDS",
    "SMOKE_MAX_N",
    "SMOKE_MAX_PAIRS",
    "SCENARIO_SHARD_SIZE",
    "AssertionSpec",
    "GraphSpec",
    "MatrixSpec",
    "PhaseSpec",
    "ScenarioError",
    "ScenarioSpec",
    "CellResult",
    "ScenarioResult",
    "build_scenario_graph",
    "load_scenario",
    "phase_workload",
    "run_scenario",
    "summary_fingerprint",
]
