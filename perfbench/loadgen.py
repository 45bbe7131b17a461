"""The load generator: one thread, one event loop, a few HTTP connections.

The client is written here rather than taken from ``repro.serving`` so
that a change to the program's own client code cannot change what the
benchmark measures.  It speaks HTTP/1.1 keep-alive with
``Content-Length`` bodies, which is all the servers send.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

#: Per-request client timeout; a request that takes longer is a failure.
REQUEST_TIMEOUT_S = 60.0


#: The processors this process may use at start (``nproc``).  Read once:
#: the benchmark later confines itself to part of them while it drives load.
NPROC = len(os.sched_getaffinity(0))


def check_footprint(connections: int) -> None:
    """The generator must not out-number the machine's processors."""
    limit = NPROC
    threads = threading.active_count()
    if connections > limit or threads > limit:
        raise RuntimeError(
            f"load generator uses {threads} threads and {connections} "
            f"connections; the limit is nproc = {limit}"
        )


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url)
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def call(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, dict]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        data = await self._reader.readexactly(length)
        if not keep_alive:
            await self.close()
        return status, json.loads(data) if data else {}

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


@dataclass
class Sample:
    """One request as the client saw it (perf_counter seconds)."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    payload: Optional[dict]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None


async def _send(connection: Connection, index: int, due: float, body: bytes) -> Sample:
    sent = time.perf_counter()
    try:
        status, payload = await asyncio.wait_for(
            connection.call("POST", "/predict", body), REQUEST_TIMEOUT_S
        )
        return Sample(index, due, sent, time.perf_counter(), status, payload)
    except (asyncio.TimeoutError, OSError, ValueError, asyncio.IncompleteReadError) as error:
        await connection.close()
        return Sample(
            index, due, sent, time.perf_counter(), 0, None, f"{type(error).__name__}: {error}"
        )


async def open_loop(
    url: str, bodies: Sequence[bytes], offsets: Sequence[float], connections: int
) -> Tuple[List[Sample], float, List[float]]:
    """Send body ``i`` at ``offsets[i]`` whether or not earlier ones answered.

    A request due while every connection is busy waits for one; its
    latency still counts from when it was due.  Returns the samples, the
    start time, and the dispatcher's lateness per request (seconds).
    """
    check_footprint(connections)
    queue: "asyncio.Queue" = asyncio.Queue()
    samples: List[Sample] = []
    lags: List[float] = []
    started = time.perf_counter()

    async def dispatcher() -> None:
        for index, offset in enumerate(offsets):
            due = started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, time.perf_counter() - due))
            queue.put_nowait((index, due))
        for _ in range(connections):
            queue.put_nowait(None)

    async def sender() -> None:
        connection = Connection(url)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                index, due = item
                samples.append(await _send(connection, index, due, bodies[index]))
        finally:
            await connection.close()

    await asyncio.gather(dispatcher(), *(sender() for _ in range(connections)))
    check_footprint(connections)
    return samples, started, lags

