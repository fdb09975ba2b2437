"""Minimal HTTP/1.1 client side for the ``repro serve`` daemon.

:func:`open_loop` is the load generator: one asyncio thread, a fixed
number of keep-alive connections, and a send schedule fixed in advance
(request ``i`` is due at ``start + i / rate`` whatever happened to the
requests before it).  Each request is timed from when it was due, so a
stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

HOST = "127.0.0.1"


@dataclass
class Sent:
    """One request of an open-loop run (``status`` is ``None`` when the
    connection failed; ``payload`` then holds the error text)."""

    due: float
    sent: float
    done: float
    status: Optional[int]
    payload: bytes

    @property
    def ok(self) -> bool:
        return self.status == 200


def _request_bytes(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader):
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _open_loop(port: int, path: str, bodies: Sequence[bytes],
                     rate: float, conns: int, drain_s: float) -> List[Sent]:
    queue: asyncio.Queue = asyncio.Queue()
    records: List[Optional[Sent]] = [None] * len(bodies)

    async def worker() -> None:
        reader = writer = None
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                i, due = item
                sent = time.perf_counter()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(HOST, port)
                    writer.write(_request_bytes(path, bodies[i]))
                    await writer.drain()
                    status, payload = await _read_response(reader)
                except (OSError, ValueError, IndexError,
                        asyncio.IncompleteReadError) as exc:
                    status, payload = None, repr(exc).encode()
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                records[i] = Sent(due, sent, time.perf_counter(), status, payload)
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

    tasks = [asyncio.create_task(worker()) for _ in range(conns)]
    start = time.perf_counter() + 0.005
    for i in range(len(bodies)):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        queue.put_nowait((i, due))
    for _ in tasks:
        queue.put_nowait(None)
    done, pending = await asyncio.wait(tasks, timeout=drain_s)
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    end = time.perf_counter()
    return [
        r if r is not None
        else Sent(start + i / rate, end, end, None, b"no response before the deadline")
        for i, r in enumerate(records)
    ]


def open_loop(port: int, path: str, bodies: Sequence[bytes], rate: float,
              conns: int, drain_s: float = 30.0) -> List[Sent]:
    """Send ``bodies`` on a fixed schedule of ``rate`` requests/s over
    ``conns`` keep-alive connections; returns one record per body."""
    return asyncio.run(_open_loop(port, path, bodies, rate, conns, drain_s))


def get_json(port: int, path: str, timeout: float = 10.0):
    """``GET path`` on a fresh connection; ``(status, document)``."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()
