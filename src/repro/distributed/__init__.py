"""Distributed table construction (a Section 6 open problem, made
concrete as a synchronous message-passing simulation with full
round/message accounting).  Maintenance across topology change is
:meth:`repro.api.network.Network.evolve`."""

from repro.distributed.preprocessing import (
    DistributedPreprocessing,
    NodeState,
    PhaseCost,
)

__all__ = [
    "DistributedPreprocessing",
    "NodeState",
    "PhaseCost",
]
