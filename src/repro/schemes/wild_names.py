"""End-to-end routing on self-chosen ("wild") node names.

Section 1.1.2 argues the permutation-name assumption is harmless: let
nodes pick arbitrary unique names from a large universe, hash them to
``{0..n-1}`` with a universal hash drawn *after* the names are fixed,
and run the compact scheme over hash slots, with each dictionary entry
holding the short bucket of wild names sharing a slot — a constant
table blow-up.

:class:`WildNameStretchSix` makes that reduction an executable scheme
rather than a statistic: it is the Section 2 scheme re-keyed end to
end by wild names.

* Packets arrive carrying the destination's *wild* name only.
* Every table keys on the exact wild name.  A source that does not
  hold the destination's label hashes the name to its slot, and the
  slot's block names the dictionary node to ask; that node serves every
  wild name of every slot in the block (the slots' buckets).
* Keys are exact, so slot collisions can never misdeliver.

Storage differences against the permutation-name scheme: dictionary
slices and neighborhood tables key on wild names (same entry counts,
wider keys), and a slice holds the whole bucket of each of its slots —
``n`` entries spread over the slots, the constant blow-up the paper
claims, measured by :meth:`table_entries`.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConstructionError
from repro.graph.roundtrip import RoundtripMetric
from repro.naming.hashing import HashedNaming
from repro.api.registry import ParamSpec, register_scheme
from repro.rtz.routing import RTZStretch3
from repro.schemes.stretch6 import StretchSixScheme


class WildNameStretchSix(StretchSixScheme):
    """Stretch-6 TINN routing addressed by arbitrary unique names.

    Fig. 3's machine over wild-name keys: a vertex's key is its wild
    name, and its dictionary entry lives in the block of the slot its
    wild name hashes to.  Forwarding, compilation and accounting are
    :class:`StretchSixScheme`'s.

    Args:
        metric: roundtrip metric of the graph.
        hashed: the :class:`HashedNaming` mapping wild names to slots
            (drawn after the adversary fixed the names).
        rng: randomness for landmarks and the block distribution.
        substrate: optionally share a pre-built :class:`RTZStretch3`.
        blocks_per_node: dictionary sampling budget override.
    """

    name = "stretch-6 (wild names)"

    _outbound = "w6o"
    _inbound = "w6i"

    def __init__(
        self,
        metric: RoundtripMetric,
        hashed: HashedNaming,
        rng: Optional[random.Random] = None,
        substrate: Optional[RTZStretch3] = None,
        blocks_per_node: Optional[int] = None,
    ):
        n = metric.n
        if hashed.n != n:
            raise ConstructionError(
                f"hashed naming covers {hashed.n} nodes, graph has {n}"
            )
        self._hashed = hashed
        self._build(
            metric,
            np.array([hashed.wild_of_vertex(v) for v in range(n)], dtype=np.int64),
            np.array([hashed.slot_of_vertex(v) for v in range(n)], dtype=np.int64),
            rng,
            substrate,
            blocks_per_node,
        )

    # ------------------------------------------------------------------
    @property
    def hashed(self) -> HashedNaming:
        """The wild-name reduction in effect."""
        return self._hashed

    def name_of(self, vertex: int) -> int:
        """The vertex's wild name (this scheme's address space)."""
        return self._hashed.wild_of_vertex(vertex)

    def vertex_of(self, name: int) -> int:
        """Resolve a wild name by hashing it and scanning its slot's
        bucket (what callers use to find a packet's endpoint; the
        scheme's own tables resolve keys through its sorted key
        array)."""
        return self._hashed.resolve(name)

    def blow_up_factor(self, reference_entries: Sequence[int]) -> float:
        """Ratio of this scheme's mean table to a reference scheme's
        (the paper claims a constant)."""
        mine = sum(self.table_entries(v) for v in range(self._metric.n))
        ref = sum(reference_entries)
        return mine / ref if ref else float("inf")


@register_scheme(
    "wild_names",
    summary="stretch-6 scheme addressed by arbitrary unique names "
    "(the §1.1.2 hash reduction, end to end)",
    params=(
        ParamSpec("universe", int, None,
                  "exclusive wild-name upper bound (default 2^48)"),
        ParamSpec("blocks_per_node", int, None,
                  "dictionary sampling budget override"),
    ),
    stretch_bound=lambda s: WildNameStretchSix.STRETCH_BOUND,
    bound_text="6",
)
def _build_wild_names(net, rng, universe=None, blocks_per_node=None):
    hashed = (
        net.hashed_naming() if universe is None else net.hashed_naming(universe)
    )
    return WildNameStretchSix(
        net.metric(),
        hashed,
        rng=rng,
        substrate=net.rtz(),
        blocks_per_node=blocks_per_node,
    )
