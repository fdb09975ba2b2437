"""The size rule that picks how compiled step tables are stored.

The paper's whole point is sublinear-*space* routing, and at n = 10^5 a
single int32 ``(n, n)`` step table is 40 GB.  So the compiled engine
stores the Lemma 2 substrate's tables as dense ``(n, n)`` matrices only
up to a vertex-count threshold, and as the landmark factorization in
o(n²) sorted pair tables above it (:func:`table_storage`).  Both
storages make identical decisions; the threshold moves memory, never a
route.  A big-memory host raises it through the ``REPRO_DENSE_MAX_N``
environment variable, and tests lower it to exercise the blocked
storage on small graphs.
"""

from __future__ import annotations

import os

from repro.exceptions import ConstructionError

#: Environment variable overriding the dense-table vertex-count ceiling.
DENSE_MAX_N_ENV = "REPRO_DENSE_MAX_N"

#: Default ceiling: a 4096-vertex dense int32 step table is 64 MiB —
#: roomy enough for every test/bench workload, far below OOM territory.
DEFAULT_DENSE_MAX_N = 4096


def dense_table_max_n() -> int:
    """Largest ``n`` whose step tables are stored dense.

    Read from ``REPRO_DENSE_MAX_N`` on every call (cheap, and lets tests
    flip the threshold with ``monkeypatch.setenv``); unset or empty
    means :data:`DEFAULT_DENSE_MAX_N`.

    Raises:
        ConstructionError: for a value that is not a positive integer
            (``1e1``, ``10k``, ``0``, ``-5``), naming the variable and
            the value.
    """
    raw = os.environ.get(DENSE_MAX_N_ENV, "")
    if not raw:
        return DEFAULT_DENSE_MAX_N
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConstructionError(
            f"{DENSE_MAX_N_ENV} must be a positive integer, got {raw!r}"
        )
    return value


def table_storage(n: int) -> str:
    """How an ``n``-vertex graph's compiled step tables are stored:
    ``"dense"`` while ``n <= dense_table_max_n()``, ``"blocked"`` above.

    Raises:
        ConstructionError: for a malformed ``REPRO_DENSE_MAX_N``.
    """
    return "dense" if n <= dense_table_max_n() else "blocked"
