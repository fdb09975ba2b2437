"""Size limits for dense ``(n, n)`` table materialization.

The paper's whole point is sublinear-*space* routing, so the library
refuses to silently allocate quadratic tables past a threshold: at
n = 10^5 a single int32 ``(n, n)`` step table is 40 GB.  Callers that
really want a dense table on a big-memory host can raise the threshold
via the ``REPRO_DENSE_MAX_N`` environment variable; everyone else is
steered to the blocked/landmark table family, which streams per-source
blocks and keeps peak memory proportional to ``block_rows * n``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.exceptions import TableTooLargeError

#: Environment variable overriding the dense-table vertex-count ceiling.
DENSE_MAX_N_ENV = "REPRO_DENSE_MAX_N"

#: Default ceiling: a 4096-vertex dense int32 step table is 64 MiB —
#: roomy enough for every test/bench workload, far below OOM territory.
DEFAULT_DENSE_MAX_N = 4096


def dense_table_max_n() -> int:
    """Largest ``n`` for which dense ``(n, n)`` tables may be built.

    Read from ``REPRO_DENSE_MAX_N`` on every call (cheap, and lets tests
    flip the threshold with ``monkeypatch.setenv``); malformed or
    non-positive values fall back to :data:`DEFAULT_DENSE_MAX_N`.
    """
    raw = os.environ.get(DENSE_MAX_N_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            return DEFAULT_DENSE_MAX_N
        if value > 0:
            return value
    return DEFAULT_DENSE_MAX_N


def check_dense_table(n: int, dtype) -> None:
    """Raise :class:`TableTooLargeError` if an ``(n, n)`` table of
    ``dtype`` entries would exceed the configured threshold."""
    limit = dense_table_max_n()
    if n > limit:
        dtype = np.dtype(dtype)
        raise TableTooLargeError(
            f"refusing to materialize a dense (n, n) table at n={n}: it "
            f"exceeds the dense limit of {limit} vertices "
            f"(~{n * n * dtype.itemsize / 2**20:,.1f} MiB at {dtype.name}). "
            "Use the blocked table family (--tables blocked) or raise "
            f"{DENSE_MAX_N_ENV} if the memory is really available."
        )
