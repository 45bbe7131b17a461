"""Shared HTTP/1.1 plumbing for the serving and fleet tiers.

Both :class:`~repro.serving.server.PredictionServer` (the single-replica
server) and :class:`~repro.fleet.router.FleetRouter` (the consistent-hash
front tier) speak the same small JSON-over-HTTP dialect; this module owns
the wire-level pieces they share:

* :func:`read_request` / :func:`respond` -- the server side: parse one
  keep-alive request off a stream, write one JSON response;
* :func:`surrogate_error` -- the request-validation check both tiers run
  on a decoded ``source`` before hashing or parsing it;
* :func:`http_call` -- the client side the router forwards with: one
  asyncio round-trip against a replica, optionally reusing a pooled
  connection;
* the size bounds and reason phrases both tiers agree on.

Everything is stdlib-only, like the rest of the serving stack.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Dict, Optional, Tuple

#: Request body / header-block size bounds (a serving DoS guard, not a
#: feature limit: a 1 MiB source file is far beyond corpus file sizes).
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_BYTES = 16 << 10

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpRequest:
    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


class BadRequest(Exception):
    """Unparseable HTTP; answered with the status and the connection closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one HTTP/1.1 request; ``None`` on clean keep-alive EOF."""
    try:
        request_line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError) as error:
        raise BadRequest(400, f"oversized request line: {error}") from error
    if not request_line:
        return None  # clean EOF between keep-alive requests
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise BadRequest(400, "malformed HTTP request line")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as error:
            raise BadRequest(413, f"oversized header line: {error}") from error
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequest(413, "header block too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_header = headers.get("content-length", "0")
    try:
        content_length = int(length_header)
    except ValueError:
        raise BadRequest(400, f"bad Content-Length {length_header!r}")
    if content_length > MAX_BODY_BYTES:
        # Drain (a bounded amount of) the declared body first, so the
        # client finishes sending and receives the 413 instead of a
        # connection reset mid-upload.
        try:
            await reader.readexactly(min(content_length, 8 * MAX_BODY_BYTES))
        except asyncio.IncompleteReadError:
            pass
        raise BadRequest(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    if content_length > 0:
        body = await reader.readexactly(content_length)
    return HttpRequest(method, path.split("?", 1)[0], headers, body)


async def respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write one JSON response (with optional extra headers, e.g. Retry-After)."""
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


#: JSON may spell a lone UTF-16 surrogate (``"\\ud800"``); a well-formed
#: pair decodes to one code point, so any surrogate in a decoded string
#: is unpaired -- and cannot be encoded as UTF-8 for hashing or digests.
_SURROGATE = re.compile("[\ud800-\udfff]")


def surrogate_error(source: str) -> Optional[dict]:
    """The 400 payload for a source holding an unpaired surrogate, else None.

    Names the first offender's 1-based line and column (in code points),
    like a parser's ``ParseError`` would.
    """
    match = _SURROGATE.search(source)
    if match is None:
        return None
    offset = match.start()
    line = source.count("\n", 0, offset) + 1
    column = offset - source.rfind("\n", 0, offset)
    return {
        "error": f"field 'source' holds an unpaired surrogate "
        f"U+{ord(match.group()):04X} at line {line}, column {column}; "
        f"it is not valid Unicode text",
        "line": line,
        "column": column,
    }


# ----------------------------------------------------------------------
# The async client side (what the fleet router forwards with)
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive client connection to a serving replica."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.closed = False

    @classmethod
    async def open(cls, host: str, port: int, timeout: float) -> "Connection":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout
        )
        return cls(reader, writer)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.writer.close()
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

    async def call(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout: float = 30.0,
        host_header: str = "fleet",
    ) -> Tuple[int, Dict[str, str], dict]:
        """One round-trip: returns (status, headers, decoded JSON payload).

        Any protocol or timeout failure closes the connection and
        re-raises; the caller decides whether to retry elsewhere.
        """
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host_header}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        ).encode("latin-1")
        try:
            self.writer.write(head + payload)
            await asyncio.wait_for(self.writer.drain(), timeout=timeout)
            status, headers, raw = await asyncio.wait_for(
                self._read_response(), timeout=timeout
            )
        except BaseException:
            self.close()
            raise
        if headers.get("connection", "keep-alive").lower() == "close":
            self.close()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        return status, headers, decoded

    async def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("replica closed the connection")
        parts = status_line.decode("latin-1").strip().split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self.reader.readexactly(length) if length else b""
        return status, headers, raw


class ConnectionPool:
    """A small per-replica pool of keep-alive :class:`Connection` objects.

    The router holds one pool per replica; concurrent forwards each
    acquire their own connection (creating one when the pool is dry) and
    return it on success.  Failed connections are closed, never pooled.
    """

    def __init__(self, host: str, port: int, max_idle: int = 8) -> None:
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self._idle: list = []

    async def acquire(self, timeout: float) -> Connection:
        while self._idle:
            connection = self._idle.pop()
            if not connection.closed:
                return connection
        return await Connection.open(self.host, self.port, timeout)

    def release(self, connection: Connection) -> None:
        if connection.closed or len(self._idle) >= self.max_idle:
            connection.close()
        else:
            self._idle.append(connection)

    def close(self) -> None:
        while self._idle:
            self._idle.pop().close()

    async def call(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout: float = 30.0,
    ) -> Tuple[int, Dict[str, str], dict]:
        """Acquire -> round-trip -> release (close on failure)."""
        connection = await self.acquire(timeout)
        try:
            result = await connection.call(method, path, body=body, timeout=timeout)
        except BaseException:
            connection.close()
            raise
        self.release(connection)
        return result
