"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough protocol for the serving layer: request-line + headers +
``Content-Length`` bodies in, status + headers + body out, keep-alive
by default.  No chunked encoding, no TLS, no multipart — the clients
are the repo's own (:mod:`repro.serve.client`), ``curl``, and load
generators, all of which speak this subset.

Bounds: header block ≤ 16 KiB, body ≤ 8 MiB — a malformed or hostile
peer costs one refused request, never unbounded memory.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "response_bytes",
    "json_response",
]

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Raise inside a handler to produce a non-200 response."""

    def __init__(self, status: int, detail: str, headers: Optional[Dict] = None):
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = dict(headers or {})


class Request:
    """One parsed request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload

    def __repr__(self) -> str:
        return f"<Request {self.method} {self.path}>"


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on clean EOF (peer closed keep-alive).

    Raises :class:`HttpError` on malformed/oversized input and
    ``asyncio.IncompleteReadError`` on mid-request disconnects.
    """
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "header block too large") from exc
    if len(header_block) > MAX_HEADER_BYTES:
        raise HttpError(413, "header block too large")

    lines = header_block.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unclosed "[" IPv6 host
        raise HttpError(400, f"malformed request target: {target!r}") from exc
    query = dict(parse_qsl(split.query))

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        digits = headers["content-length"]
        # ASCII digits only (int() also takes "+5" and "1_0"), and few
        # enough of them for int(), which refuses thousands.
        if not (digits.isascii() and digits.isdigit()):
            raise HttpError(400, "malformed Content-Length")
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise HttpError(413, "body too large")
        body = await reader.readexactly(int(digits))
    return Request(method.upper(), split.path, query, headers, body)


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    status: int,
    payload,
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return response_bytes(
        status, body, "application/json", headers, keep_alive
    )


def parse_response(raw_headers: bytes, body: bytes) -> Tuple[int, Dict[str, str]]:
    """Client-side: parse a status line + header block (body separate)."""
    lines = raw_headers.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers
