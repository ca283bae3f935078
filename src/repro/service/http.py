"""Minimal stdlib asyncio HTTP/1.1 plumbing for the solve service.

The service speaks a deliberately small slice of HTTP: one request per
connection (``Connection: close``), JSON bodies bounded by
``Content-Length``, JSON responses, and close-delimited NDJSON streams
for traces.  That slice is exactly what ``curl``, ``urllib`` and every
load-balancer health check need, and implementing it directly on
:func:`asyncio.start_server` keeps the daemon dependency-free — the
container bakes in numpy/scipy, not an HTTP framework.

Parsing errors surface as :class:`HttpError` with a proper status code
so a malformed request can never take the server down; the app layer
turns library errors into the 4xx/5xx JSON envelope.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

#: Reason phrases for every status the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Longest accepted header section (count * readline limit is bounded
#: separately by the stream's own limit).
MAX_HEADER_LINES = 64


class HttpError(Exception):
    """A request that must be answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def flag(self, name: str) -> bool:
        """Truthiness of a query flag (``?stream=1`` style)."""
        return self.query.get(name, "").lower() in ("1", "true", "yes", "on")

    def json(self) -> Any:
        """The body as JSON, or :class:`HttpError` 400."""
        if not self.body:
            raise HttpError(400, "request body must be JSON (got empty body)")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` for anything malformed or over-size —
    oversized request *lines* (the StreamReader's 64 KiB limit) arrive
    as :class:`LimitOverrunError`/:class:`ValueError` and are mapped to
    400 here rather than crashing the connection task.
    """
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HttpError(400, "request line too long") from None
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise HttpError(400, "header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, f"too many headers (limit {MAX_HEADER_LINES})")

    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length_text!r}") from None
    if length < 0:
        raise HttpError(400, f"bad Content-Length {length}")
    if length > max_body_bytes:
        raise HttpError(
            413, f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte limit"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length") from None

    split = urlsplit(target)
    query = {
        key: values[-1] for key, values in parse_qs(split.query).items()
    }
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, length: Optional[int]) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(
    writer: asyncio.StreamWriter, status: int, payload: Any
) -> None:
    """Write one complete JSON response."""
    body = (json.dumps(payload) + "\n").encode("utf-8")
    writer.write(_head(status, "application/json", len(body)) + body)
    await writer.drain()


async def start_ndjson(writer: asyncio.StreamWriter, status: int = 200) -> None:
    """Open a close-delimited NDJSON stream (no Content-Length)."""
    writer.write(_head(status, "application/x-ndjson", None))
    await writer.drain()


async def send_ndjson_lines(writer: asyncio.StreamWriter, payloads: List[Any]) -> None:
    """Write NDJSON events in one write and flush them to the client."""
    writer.write("".join(json.dumps(p) + "\n" for p in payloads).encode("utf-8"))
    await writer.drain()


def error_payload(status: int, message: str) -> Dict[str, Any]:
    """The uniform error envelope every non-200 body carries."""
    return {"error": {"status": status, "message": message}}
