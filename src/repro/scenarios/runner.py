"""Execute a scenario spec: graph, phases, matrix, assertions.

One :func:`run_scenario` call covers the spec's whole execution matrix.
Per cell (one per matrix scheme) the runner walks the phase
sequence once — stepping the network across each phase's churn
events with :func:`repro.runtime.churn.evolve_epoch` — routes every
phase once with :func:`~repro.runtime.traffic.run_workload`, and
reports a single merged summary with one
:class:`~repro.runtime.traffic.EpochStretch` row per phase.

Determinism contract: every random draw derives from the spec seed
through tagged streams — ``{seed}|graph`` for the generator,
``{seed}|churn|{i}`` for phase ``i``'s events, ``{seed}|phase|{i}`` for
its pairs — and a workload's summary does not depend on how
:func:`~repro.runtime.traffic.run_workload` cuts it into chunks.  The
same spec therefore produces the same summary on every run.  Cells
route on the engine ``auto`` picks (the compiled one for every
registered scheme); the python engine gives the same summaries
(``tests/test_scenarios.py`` checks the committed zoo both ways).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api.network import Network
from repro.api.registry import get_spec
from repro.exceptions import GraphError
from repro.graph.digraph import Digraph
from repro.graph.generators import build_family, snapshot_from_edgelist
from repro.graph.shortest_paths import DistanceOracle
from repro.runtime.churn import attach_epoch_row, evolve_epoch
from repro.runtime.traffic import (
    TrafficSummary,
    Workload,
    generate_workload,
    run_workload,
)
from repro.scenarios.spec import (
    SCHEMA,
    PhaseSpec,
    ScenarioError,
    ScenarioSpec,
    load_scenario,
)

#: comparison slack for stretch-vs-bound checks (matches the CLI)
_EPS = 1e-9


def build_scenario_graph(spec: ScenarioSpec) -> Digraph:
    """Build the spec's graph deterministically from the spec seed.

    Generator families draw from ``random.Random(f"{seed}|graph")``;
    edgelist snapshots parse their rows (relative paths resolve
    against the spec file's directory).

    Raises:
        ScenarioError: for generator parameters the family rejects.
        GraphError: for malformed or non-strongly-connected edgelists.
    """
    g = spec.graph
    rng = random.Random(f"{spec.seed}|graph")
    if g.family == "edgelist":
        if g.path is not None:
            path = Path(g.path)
            if not path.is_absolute() and spec.base_dir is not None:
                path = Path(spec.base_dir) / path
            return snapshot_from_edgelist(str(path), rng=rng)
        text = "\n".join(
            f"{t} {h} {w!r}" for t, h, w in g.edges
        )
        return snapshot_from_edgelist(text, rng=rng)
    try:
        return build_family(g.family, g.n or 0, rng, g.params)
    except (TypeError, GraphError) as exc:
        # TypeError: an unknown keyword; GraphError: a rejected value.
        raise ScenarioError(
            f"invalid {g.family!r} graph parameters: {exc}"
        )


def phase_workload(
    phase: PhaseSpec,
    index: int,
    seed: int,
    n: int,
    oracle: Optional[DistanceOracle] = None,
) -> Workload:
    """The pair batch of one phase against an ``n``-vertex graph.

    Generated kinds draw their pair array from
    ``random.Random(f"{seed}|phase|{index}")``; trace phases replay
    their explicit pairs (range-checked here, so a trace written for a
    bigger graph fails loudly).  Shared by the offline runner and the
    serve daemon so both derive identical traffic from one spec.
    """
    if phase.kind == "trace":
        for s, t in phase.trace:
            if not (0 <= s < n and 0 <= t < n):
                raise ScenarioError(
                    f"trace pair ({s}, {t}) is out of range for n={n}"
                )
        return Workload("trace", phase.trace)
    return generate_workload(
        phase.kind, n, phase.pairs,
        rng=random.Random(f"{seed}|phase|{index}"),
        oracle=oracle,
        **phase.params,
    )


def summary_fingerprint(summary: TrafficSummary) -> Tuple[Any, ...]:
    """Every deterministic field of a summary, with floats captured via
    ``repr`` (bit-faithful).  Excludes only physical time
    (``elapsed_s`` and the derived throughput) — two runs with equal
    fingerprints print identical summaries modulo the throughput line.
    """
    return (
        summary.kind,
        summary.pairs,
        repr(summary.total_cost),
        summary.total_hops,
        repr(summary.mean_cost),
        repr(summary.mean_hops),
        summary.max_hops,
        summary.max_header_bits,
        repr(summary.mean_stretch),
        repr(summary.max_stretch),
        summary.worst_pair,
        tuple(
            (
                e.index, e.generation, e.pairs, e.events, e.repair,
                repr(e.mean_stretch), repr(e.max_stretch), e.worst_pair,
            )
            for e in summary.epochs
        ),
    )


@dataclass(frozen=True)
class CellResult:
    """One matrix cell's outcome: the merged summary, the scheme's
    claimed bound, the final generation, and the evaluated assertion
    checks ``(name, status, detail)`` with status pass/fail/skip."""

    scheme: str
    summary: TrafficSummary
    bound: float
    final_generation: int
    checks: Tuple[Tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    def format(self) -> str:
        """The cell's report block.  Deterministic apart from the
        summary's ``throughput`` line."""
        lines = [
            f"-- scheme={self.scheme} --",
            self.summary.format(),
            f"generations: 1 -> {self.final_generation}",
        ]
        for name, status, detail in self.checks:
            line = f"assert {name:<18}: {status}"
            if detail:
                line += f" ({detail})"
            lines.append(line)
        return "\n".join(lines)


@dataclass(frozen=True)
class ScenarioResult:
    """The whole run: one :class:`CellResult` per matrix cell."""

    spec: ScenarioSpec
    cells: Tuple[CellResult, ...]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def counts(self) -> Tuple[int, int, int]:
        """``(passed, failed, skipped)`` across every cell's checks."""
        passed = failed = skipped = 0
        for cell in self.cells:
            for _, status, _ in cell.checks:
                if status == "pass":
                    passed += 1
                elif status == "fail":
                    failed += 1
                else:
                    skipped += 1
        return passed, failed, skipped

    def format(self) -> str:
        """The full report, as printed by ``repro scenario run``.
        Deterministic apart from the per-cell throughput lines."""
        spec = self.spec
        if spec.graph.family == "edgelist":
            graph = "edgelist"
        else:
            graph = f"{spec.graph.family} n={spec.graph.n}"
        lines = [f"scenario   : {spec.name} ({SCHEMA}, seed {spec.seed})"]
        if spec.summary:
            lines.append(f"summary    : {spec.summary}")
        lines += [
            f"graph      : {graph}",
            f"phases     : {len(spec.phases)} "
            f"({spec.total_pairs} pairs, {spec.total_events} events)",
            f"matrix     : {len(spec.matrix.schemes)} scheme(s)",
        ]
        for cell in self.cells:
            lines.append("")
            lines.append(cell.format())
        passed, failed, skipped = self.counts()
        tail = f"assertions : {passed} passed, {failed} failed"
        if skipped:
            tail += f" ({skipped} skipped)"
        lines.append("")
        lines.append(tail)
        return "\n".join(lines)


def _phase_plan(
    spec: ScenarioSpec,
    graph: Digraph,
    store: Any,
) -> List[Tuple[Network, Optional[Any], Workload]]:
    """Walk the phases once: evolve through churn, generate each
    phase's workload against its generation.  Returns
    ``[(network, delta, workload), ...]``, a pure function of the
    spec."""
    net = Network(graph, seed=spec.seed, store=store)
    plan: List[Tuple[Network, Optional[Any], Workload]] = []
    for i, phase in enumerate(spec.phases):
        net, delta = evolve_epoch(net, phase.events, spec.seed, i)
        workload = phase_workload(
            phase, i, spec.seed, net.n, oracle=net.oracle()
        )
        plan.append((net, delta, workload))
    return plan


def _scheme_params(scheme: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """The matrix params the scheme's builder actually accepts."""
    sspec = get_spec(scheme)
    return {k: v for k, v in params.items() if sspec.accepts(k)}


def _run_cell(
    spec: ScenarioSpec,
    graph: Digraph,
    scheme: str,
    store: Any,
) -> CellResult:
    plan = _phase_plan(spec, graph, store)
    params = _scheme_params(scheme, spec.matrix.params)
    bound = plan[0][0].stretch_bound(scheme, **params)
    parts = []
    for i, (net, delta, workload) in enumerate(plan):
        built = net.build_scheme(scheme, **params)
        part = run_workload(built, workload, oracle=net.oracle())
        parts.append(attach_epoch_row(part, i, net, delta))
    summary = TrafficSummary.merge(parts)
    final_generation = plan[-1][0].generation
    checks = _evaluate(spec, summary, bound, final_generation)
    return CellResult(
        scheme=scheme,
        summary=summary,
        bound=bound,
        final_generation=final_generation,
        checks=tuple(checks),
    )


def _evaluate(
    spec: ScenarioSpec,
    summary: TrafficSummary,
    bound: float,
    final_generation: int,
) -> List[Tuple[str, str, str]]:
    """Evaluate the spec's assertions against one cell's summary.

    Throughput details deliberately omit the measured value: check
    lines must be the same on every run, and physical time is the one
    thing that is not.
    """
    a = spec.assertions
    checks: List[Tuple[str, str, str]] = []
    if a.stretch_within_bound:
        if summary.pairs == 0 or math.isnan(summary.max_stretch):
            checks.append(("stretch<=bound", "skip", "no measured stretch"))
        elif summary.max_stretch <= bound + _EPS:
            checks.append((
                "stretch<=bound", "pass",
                f"max {summary.max_stretch:.3f} <= {bound:.1f}",
            ))
        else:
            checks.append((
                "stretch<=bound", "fail",
                f"max {summary.max_stretch:.3f} EXCEEDS {bound:.1f}",
            ))
    if a.max_stretch is not None:
        name = f"stretch<={a.max_stretch:g}"
        if summary.pairs == 0 or math.isnan(summary.max_stretch):
            checks.append((name, "skip", "no measured stretch"))
        elif summary.max_stretch <= a.max_stretch + _EPS:
            checks.append((name, "pass", f"max {summary.max_stretch:.3f}"))
        else:
            checks.append((name, "fail", f"max {summary.max_stretch:.3f}"))
    if a.min_pairs_per_s is not None:
        name = f"pairs/s>={a.min_pairs_per_s:g}"
        if math.isnan(summary.pairs_per_s):
            checks.append((name, "skip", "unmeasurable"))
        elif summary.pairs_per_s >= a.min_pairs_per_s:
            checks.append((name, "pass", ""))
        else:
            checks.append((name, "fail", "below the declared floor"))
    if a.expect_epochs is not None:
        name = f"epochs=={a.expect_epochs}"
        got = len(summary.epochs)
        status = "pass" if got == a.expect_epochs else "fail"
        checks.append((name, status, f"got {got}"))
    if a.expect_generations is not None:
        name = f"generations=={a.expect_generations}"
        status = "pass" if final_generation == a.expect_generations else "fail"
        checks.append((name, status, f"got {final_generation}"))
    return checks


def run_scenario(source: Any, store: Any = "auto") -> ScenarioResult:
    """Run a scenario end to end (see the module docstring).

    Args:
        source: anything :func:`~repro.scenarios.spec.load_scenario`
            accepts — a path, JSON text, a dict, or a spec.
        store: forwarded to every :class:`~repro.api.Network`.

    Raises:
        ScenarioError: for malformed specs.
    """
    spec = load_scenario(source)
    graph = build_scenario_graph(spec)
    cells = [
        _run_cell(spec, graph, scheme, store) for scheme in spec.matrix.schemes
    ]
    return ScenarioResult(spec=spec, cells=tuple(cells))
