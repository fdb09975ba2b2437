"""Force the compiled-table storage in a test.

The library picks the storage from the graph size alone
(:func:`repro.graph.limits.table_storage`): ``dense`` up to
``REPRO_DENSE_MAX_N`` vertices, ``blocked`` above.  :func:`forced`
moves that threshold for the length of a ``with`` block, so a test can
run either storage on a small graph.  It works inside hypothesis tests,
which cannot take the function-scoped ``monkeypatch`` fixture.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.graph.limits import DENSE_MAX_N_ENV

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
