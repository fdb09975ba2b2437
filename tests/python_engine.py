"""Force the python engine in a test.

The library picks the engine: ``auto`` compiles whenever the scheme
compiles, which every registered scheme does.  :func:`python_engine`
makes every scheme decline to compile for the length of a ``with``
block, so ``auto`` resolves to the hop-by-hop python engine, the
documented path for a scheme that does not compile.  That lets a test
run a whole layer (a router, a scenario, a churn chain) on the python
reference without an engine option.

It works inside hypothesis tests, which cannot take the
function-scoped ``monkeypatch`` fixture.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.runtime.scheme import RoutingScheme


@contextmanager
def python_engine():
    """Within the block no scheme compiles: every ``auto`` batch routes
    on the python engine, and an explicit ``"vectorized"`` request
    raises :class:`~repro.exceptions.RoutingError`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RoutingScheme, "compiled_routes", lambda self: None)
        yield
