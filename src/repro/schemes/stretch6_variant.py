"""The Section 2.2 remark variant: return through the source.

"We also note that the algorithm could operate by routing from s to w
and back to s, before routing to t and back.  This would be slightly
simpler to analyze and would result in the same worst-case stretch.
However it can result in longer paths..."

This class implements that variant as a full scheme so the ablation
(E13) can compare *deployed* packet journeys, not just leg-length
arithmetic.  The outbound journey is ``s -> w -> s -> t`` (dictionary
roundtrip first, then the real trip), the acknowledgment is ``t -> s``
as usual; worst-case stretch is still 6 by the paper's remark.
"""

from __future__ import annotations


from repro.api.registry import ParamSpec, register_scheme
from repro.runtime.scheme import (
    Decision,
    Deliver,
    Forward,
    Header,
    NEW_PACKET,
    RETURN_PACKET,
)
from repro.rtz.routing import R3Label
from repro.schemes.stretch6 import StretchSixScheme

#: variant modes: dictionary roundtrip out / back, then final trip
_TO_DICT = "v6d"
_BACK_HOME = "v6b"


class StretchSixViaSourceScheme(StretchSixScheme):
    """Section 2.2's analyze-simpler variant (``s -> w -> s -> t``).

    Construction and storage are identical to
    :class:`StretchSixScheme`; only the journey shape differs.
    """

    name = "stretch-6 via-source (TINN)"

    _outbound = "v6o"
    _inbound = "v6i"

    def forward(self, at: int, header: Header) -> Decision:
        mode = header["mode"]
        if mode == NEW_PACKET:
            header = self._start_outbound(at, header, dict_mode=_TO_DICT)
        elif mode == RETURN_PACKET:
            header = self._start_inbound(at, header)
        elif mode == _TO_DICT and at == header["dict_node"]:
            # at the dictionary node: fetch the destination label, then
            # head home before using it
            dest_label = self._lookup_slice(at, header["dest"])
            src_label: R3Label = header["src_label"]
            header = dict(header)
            header["mode"] = _BACK_HOME
            header["fetched"] = dest_label
            header["next_label"] = src_label
            header["leg"] = self.rtz.begin_leg(at, src_label)
        elif mode == _BACK_HOME and at == header["src_label"].dest:
            # home again: now make the real trip with the fetched label
            fetched: R3Label = header["fetched"]
            header = dict(header)
            header["mode"] = self._outbound
            header["dict_node"] = None
            header["next_label"] = fetched
            header["leg"] = self.rtz.begin_leg(at, fetched)

        label: R3Label = header["next_label"]
        port, leg_mode = self.rtz.leg_step(at, label, header["leg"])
        if port is None:
            if header["mode"] in (self._outbound, self._inbound):
                return Deliver(header)
            # arrived at the dictionary node or back home: reprocess
            return self.forward(at, header)
        out = dict(header)
        out["leg"] = leg_mode
        return Forward(port, out)

    # ------------------------------------------------------------------
    # compiled execution
    # ------------------------------------------------------------------
    def compile_tables(self):
        """Outbound = optional dictionary roundtrip (``s -> w -> s``)
        plus the real trip; the fetched label rides in the header from
        the dictionary onwards, so segment bit sizes differ between
        the local-knowledge and dictionary journeys."""
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

        n = self._metric.n
        label = self.rtz.label(0)
        fresh = {"mode": NEW_PACKET, "dest": 0}
        direct = {
            "mode": self._outbound,
            "dest": 0,
            "src_label": label,
            "next_label": label,
            "dict_node": None,
            "leg": TO_CENTER,
        }
        to_dict = dict(direct, mode=_TO_DICT, dict_node=0)
        back_home = dict(to_dict, mode=_BACK_HOME, fetched=label)
        fetched_out = dict(back_home, mode=self._outbound, dict_node=None)
        inbound = dict(direct, mode=self._inbound)
        b_fresh = header_bits(fresh, n)
        b_direct = header_bits(direct, n)
        b_todict = header_bits(to_dict, n)
        b_backhome = header_bits(back_home, n)
        b_fetched = header_bits(fetched_out, n)
        b_in = header_bits(inbound, n)
        b_ret_direct = header_bits(self.make_return_header(direct), n)
        b_ret_fetched = header_bits(self.make_return_header(fetched_out), n)
        step_tables = compile_substrate_tables(self.rtz)
        lookups = self._planner_lookups()

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            local, dict_node = lookups(sources, dests)
            return JourneyPlan(
                legs=[
                    [
                        Segment(
                            np.where(local, -1, dict_node),
                            constant_bits(b_todict, batch),
                        ),
                        Segment(
                            np.where(local, -1, sources),
                            constant_bits(b_backhome, batch),
                        ),
                        Segment(
                            dests.copy(),
                            np.where(local, b_direct, b_fetched),
                        ),
                    ],
                    [Segment(sources.copy(), constant_bits(b_in, batch))],
                ],
                leg_init_bits=[
                    constant_bits(b_fresh, batch),
                    np.where(local, b_ret_direct, b_ret_fetched),
                ],
            )

        return CompiledRoutes(self.graph, step_tables, planner)


@register_scheme(
    "stretch6_via_source",
    summary="Section 2.2 remark variant: dictionary roundtrip through "
    "the source (same worst-case stretch 6)",
    params=(
        ParamSpec("blocks_per_node", int, None,
                  "dictionary sampling budget override"),
    ),
    stretch_bound=lambda s: StretchSixViaSourceScheme.STRETCH_BOUND,
    bound_text="6",
)
def _build_stretch6_via_source(net, rng, blocks_per_node=None):
    return StretchSixViaSourceScheme(
        net.metric(),
        net.naming(),
        rng=rng,
        substrate=net.rtz(),
        blocks_per_node=blocks_per_node,
    )
