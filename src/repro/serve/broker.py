"""The batching broker: coalesce concurrent requests into engine batches.

The compiled vectorized engine (:mod:`repro.runtime.engine`) amortizes
per-batch setup across every pair in a batch — a frontier sweep over
one 500-pair batch costs far less than 500 single-pair sweeps.  The
broker exploits that under concurrency: route requests from many
clients queue their pairs per ``(scheme)`` key, and a drainer task per
key takes every submission queued for the key, executes them as
**one** ``Router.route_many`` call on a worker thread, and hands each
waiting request its slice of the results.  Requests that arrive while
a batch runs go out together in the next one, so no timer is needed:
a lone request executes at once, and a burst coalesces behind the
batch in flight.

Because every pair's journey is independent of the rest of its batch
(the engine advances each packet by its own tables; no cross-pair
state), the coalesced results are bit-identical to what a direct
library ``route_many`` call would return for the same pair — the serve
differential tests and the CI smoke job assert exactly this.

Admission control is a bounded queue: when the pending-pair backlog for
a key would exceed ``max_queue``, :meth:`BatchBroker.submit` raises
:class:`OverloadedError` immediately (the daemon maps it to HTTP 429)
instead of letting latency grow without bound.  The bound is also the
largest batch a drainer can take.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.exceptions import ReproError

#: default bound on the pending-pair backlog per scheme key
DEFAULT_MAX_QUEUE = 8192


class OverloadedError(ReproError):
    """Raised by :meth:`BatchBroker.submit` when the pending backlog
    would exceed the queue bound (the daemon sheds the request with
    HTTP 429 rather than queueing unboundedly)."""


class BatchBroker:
    """Per-key request coalescing over one executor function.

    Args:
        execute: ``(key, pairs) -> results`` — routes one coalesced
            batch; called on a worker thread (the event loop's default
            executor), one in-flight call per key at a time, so a
            plain :class:`repro.api.router.Router` session per key is
            safe without locks.
        max_queue: pending-pair bound per key; beyond it submissions
            are shed with :class:`OverloadedError`.
    """

    def __init__(
        self,
        execute: Callable[[str, List[Tuple[int, int]]], Sequence[Any]],
        max_queue: int = DEFAULT_MAX_QUEUE,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._execute = execute
        self.max_queue = max_queue
        # per key: the submissions waiting for the next batch, and
        # their pair count
        self._queues: Dict[
            str, List[Tuple[Sequence[Tuple[int, int]], asyncio.Future]]
        ] = {}
        self._queued: Dict[str, int] = {}
        self._drainers: Dict[str, asyncio.Task] = {}
        self._closed = False
        # counters (exposed via stats())
        self.submitted_pairs = 0
        self.shed_pairs = 0
        self.executed_batches = 0
        self.executed_pairs = 0
        self.max_coalesced = 0
        self.exec_seconds = 0.0

    # ------------------------------------------------------------------
    async def submit(
        self, key: str, pairs: Sequence[Tuple[int, int]]
    ) -> List[Any]:
        """Enqueue ``pairs`` under ``key`` and await their results.

        Results come back in input order.  Concurrent submissions under
        the same key may execute in one coalesced batch; results are
        identical either way.  An empty submission answers ``[]``
        without starting a batch.

        Raises:
            OverloadedError: when the backlog bound would be exceeded
                (no partial admission: either every pair queues or
                none does).
            ReproError: whatever the execute function raised for the
                batch containing the submission.
        """
        if self._closed:
            raise OverloadedError("broker is closed (generation retired)")
        queued = self._queued.get(key, 0)
        if queued + len(pairs) > self.max_queue:
            self.shed_pairs += len(pairs)
            raise OverloadedError(
                f"pending backlog for {key!r} is full "
                f"({queued} + {len(pairs)} > {self.max_queue} pairs)"
            )
        if not pairs:
            return []
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._queues.setdefault(key, []).append((pairs, future))
        self._queued[key] = queued + len(pairs)
        self.submitted_pairs += len(pairs)
        if key not in self._drainers:
            self._drainers[key] = loop.create_task(self._drain(key))
        return await future

    async def _drain(self, key: str) -> None:
        """Serve ``key``'s queue until it runs dry: each executor call
        takes every submission queued since the previous one."""
        loop = asyncio.get_running_loop()
        try:
            while key in self._queues:
                batch = self._queues.pop(key)
                size = self._queued.pop(key)
                pairs = [pair for submitted, _ in batch for pair in submitted]
                t0 = loop.time()
                try:
                    results = await loop.run_in_executor(
                        None, self._execute, key, pairs
                    )
                except Exception as exc:  # demux the failure too
                    for _, future in batch:
                        if not future.done():
                            future.set_exception(exc)
                    continue
                finally:
                    self.exec_seconds += loop.time() - t0
                    self.executed_batches += 1
                self.executed_pairs += size
                self.max_coalesced = max(self.max_coalesced, size)
                start = 0
                for submitted, future in batch:
                    stop = start + len(submitted)
                    if not future.done():  # its waiter may be cancelled
                        future.set_result(list(results[start:stop]))
                    start = stop
        finally:
            # Synchronous with the emptiness check (no await between),
            # so a fresh submit either sees this drainer or spawns one.
            self._drainers.pop(key, None)

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every queued pair has been served (the graceful-
        reload path: the retired generation's broker drains before its
        network is released)."""
        while self._drainers:
            await asyncio.gather(
                *list(self._drainers.values()), return_exceptions=True
            )

    def close(self) -> None:
        """Refuse new submissions (already-queued pairs still drain)."""
        self._closed = True

    @property
    def pending_pairs(self) -> int:
        """Pairs queued for a next batch, across every key."""
        return sum(self._queued.values())

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for the ``/stats`` endpoint."""
        return {
            "submitted_pairs": self.submitted_pairs,
            "executed_pairs": self.executed_pairs,
            "executed_batches": self.executed_batches,
            "max_coalesced": self.max_coalesced,
            "pending_pairs": self.pending_pairs,
            "shed_pairs": self.shed_pairs,
            "exec_seconds": self.exec_seconds,
        }
