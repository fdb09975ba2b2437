"""Declarative scenarios: spec-driven graphs, workloads, and checks.

The scenario zoo: a versioned JSON document (``repro-scenario/1``,
:mod:`repro.scenarios.spec`) describes the whole experiment — graph
family, composable workload phases, optional churn events, the scheme
x engine execution matrix, and declarative assertions — and
:mod:`repro.scenarios.runner` executes it deterministically from the
spec seed.  A phase with churn ``events`` is the one way to describe
traffic across topology changes.  Consumed by ``repro scenario
{run,list,validate,show}``, the CI ``scenario-matrix`` and
``churn-smoke`` jobs, and the serve daemon.
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
