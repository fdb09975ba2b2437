"""Force the compiled-table storage, or the python engine, in a test.

The library picks the storage from the graph size alone
(:func:`repro.graph.limits.table_storage`): ``dense`` up to
``REPRO_DENSE_MAX_N`` vertices, ``blocked`` above.  :func:`forced`
moves that threshold for the length of a ``with`` block, so a test can
run either storage on a small graph.

The library also picks the engine: ``auto`` compiles whenever the
scheme compiles, which every registered scheme does.
:func:`python_engine` makes every scheme decline to compile for the
length of a ``with`` block, so ``auto`` resolves to the hop-by-hop
python engine, the documented path for a scheme that does not compile.
That lets a test run a whole layer (a router, a scenario, a churn
chain) on the python reference without an engine option.

Both work inside hypothesis tests, which cannot take the
function-scoped ``monkeypatch`` fixture.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.graph.limits import DENSE_MAX_N_ENV
from repro.runtime.scheme import RoutingScheme

#: the threshold that makes the rule pick each storage on a test graph:
#: 1 puts every graph of two or more vertices above it, and the default
#: (4096) is above every test graph
_THRESHOLD = {"dense": None, "blocked": "1"}


@contextmanager
def forced(storage: str):
    """Within the block, every compile of a graph with two or more
    vertices uses ``storage`` (``"dense"`` or ``"blocked"``)."""
    threshold = _THRESHOLD[storage]
    with pytest.MonkeyPatch.context() as mp:
        if threshold is None:
            mp.delenv(DENSE_MAX_N_ENV, raising=False)
        else:
            mp.setenv(DENSE_MAX_N_ENV, threshold)
        yield


@contextmanager
def python_engine():
    """Within the block no scheme compiles: every ``auto`` batch routes
    on the python engine, and an explicit ``"vectorized"`` request
    raises :class:`~repro.exceptions.RoutingError`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RoutingScheme, "compiled_routes", lambda self: None)
        yield
