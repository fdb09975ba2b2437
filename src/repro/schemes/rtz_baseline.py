"""Name-dependent RTZ stretch-3 baseline (the Fig. 1 row of [35]).

In the *name-dependent* model the scheme designer renames nodes, so a
packet effectively arrives carrying the destination's topology-aware
label ``R3(t)``.  This wrapper turns the Lemma 2 substrate into a full
:class:`~repro.runtime.scheme.RoutingScheme` under that convention: the
injection point embeds the label (the "name" in this model *is* the
label), after which forwarding is purely local.

It is the reference point the TINN schemes are measured against:
stretch 3 with ``~O(sqrt n)`` tables, but names that break the moment
topology changes.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.graph.digraph import Digraph
from repro.graph.roundtrip import RoundtripMetric
from repro.naming.permutation import Naming
from repro.runtime.scheme import (
    Decision,
    Deliver,
    Forward,
    Header,
    NEW_PACKET,
    RETURN_PACKET,
    RoutingScheme,
)
from repro.api.registry import register_scheme
from repro.rtz.routing import RTZStretch3

#: internal modes
_OUT = "o3"
_BACK = "b3"


class RTZBaselineScheme(RoutingScheme):
    """Roundtrip routing with name-dependent ``R3`` labels as names.

    Args:
        metric: roundtrip metric.
        naming: node naming (used only to translate experiment names;
            the labels themselves carry the routing information).
        rng: landmark randomness for the substrate.
        substrate: optionally share a pre-built :class:`RTZStretch3`.
    """

    name = "rtz-3 (name-dep)"

    def __init__(
        self,
        metric: RoundtripMetric,
        naming: Naming,
        rng: Optional[random.Random] = None,
        substrate: Optional[RTZStretch3] = None,
    ):
        self._metric = metric
        self._naming = naming
        self.rtz = substrate if substrate is not None else RTZStretch3(metric, rng)

    @property
    def graph(self) -> Digraph:
        return self._metric.oracle.graph

    def name_of(self, vertex: int) -> int:
        return self._naming.name_of(vertex)

    def vertex_of(self, name: int) -> int:
        return self._naming.vertex_of(name)

    def forward(self, at: int, header: Header) -> Decision:
        mode = header["mode"]
        if mode == NEW_PACKET:
            # Name-dependent injection: the label arrives with the
            # packet (modeled by looking it up at the source, which in
            # this model "knows" it by renaming).
            dest_label = self.rtz.label(self.vertex_of(header["dest"]))
            header = {
                "mode": _OUT,
                "dest": header["dest"],
                "label": dest_label,
                "src_label": self.rtz.label(at),
                "leg": self.rtz.begin_leg(at, dest_label),
            }
        elif mode == RETURN_PACKET:
            src_label = header["src_label"]
            header = {
                "mode": _BACK,
                "dest": header["dest"],
                "label": src_label,
                "src_label": src_label,
                "leg": self.rtz.begin_leg(at, src_label),
            }
        label = header["label"]
        port, leg_mode = self.rtz.leg_step(at, label, header["leg"])
        if port is None:
            return Deliver(header)
        out = dict(header)
        out["leg"] = leg_mode
        return Forward(port, out)

    def table_entries(self, vertex: int) -> int:
        return self.rtz.table_entries(vertex)

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def compile_tables(self):
        """One substrate leg per direction; headers carry two labels
        and a leg tag — structurally constant throughout."""
        import numpy as np

        from repro.runtime.engine import (
            CompiledRoutes,
            JourneyPlan,
            Segment,
            compile_substrate_tables,
            constant_bits,
        )
        from repro.runtime.sizing import header_bits
        from repro.rtz.routing import TO_CENTER

        n = self.graph.n
        label = self.rtz.label(0)
        fresh = {"mode": NEW_PACKET, "dest": 0}
        out = {
            "mode": _OUT,
            "dest": 0,
            "label": label,
            "src_label": label,
            "leg": TO_CENTER,
        }
        back = dict(out)
        back["mode"] = _BACK
        b_fresh = header_bits(fresh, n)
        b_out = header_bits(out, n)
        b_ret = header_bits(self.make_return_header(out), n)
        b_back = header_bits(back, n)
        step_tables = compile_substrate_tables(self.rtz)

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            return JourneyPlan(
                legs=[
                    [Segment(dests.copy(), constant_bits(b_out, batch))],
                    [Segment(sources.copy(), constant_bits(b_back, batch))],
                ],
                leg_init_bits=[
                    constant_bits(b_fresh, batch),
                    constant_bits(b_ret, batch),
                ],
            )

        return CompiledRoutes(self.graph, step_tables, planner)


@register_scheme(
    "rtz",
    summary="name-dependent RTZ stretch-3 baseline (labels as names)",
    stretch_bound=lambda s: 3.0,
    bound_text="3",
    name_independent=False,
)
def _build_rtz(net, rng):
    return RTZBaselineScheme(
        net.metric(), net.naming(), rng=rng, substrate=net.rtz()
    )
