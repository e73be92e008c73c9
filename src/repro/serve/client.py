"""Clients for the serving layer.

:class:`ServeClient` is blocking (``http.client``, one keep-alive
connection) — used by tests, the CI smoke script, and anything
synchronous.  :class:`AsyncServeClient` speaks the same protocol over
``asyncio.open_connection`` — used by the load generators in
``perfbench/serve_load.py`` and ``benchmarks/bench_speed_gates.py``,
where many concurrent in-flight requests need to be cheap.

Both return ``(status, headers, payload)`` triples; ``payload`` is the
decoded JSON body (or raw text for non-JSON responses like
``/metrics``).
"""

from __future__ import annotations

import asyncio
import http.client
import json
from typing import Any, Dict, Optional, Tuple

from .http import parse_response

__all__ = ["ServeClient", "AsyncServeClient"]

Response = Tuple[int, Dict[str, str], Any]


def _decode_body(headers: Dict[str, str], body: bytes) -> Any:
    content_type = headers.get("content-type", "")
    if content_type.startswith("application/json") and body:
        return json.loads(body)
    return body.decode("utf-8", errors="replace")


class ServeClient:
    """Blocking keep-alive client (one connection, not thread-safe)."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ) -> Response:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
        except (http.client.HTTPException, OSError):
            # Stale keep-alive connection (server restarted / closed):
            # one reconnect attempt, then let the error propagate.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
        raw = response.read()
        resp_headers = {k.lower(): v for k, v in response.getheaders()}
        if resp_headers.get("connection", "").lower() == "close":
            self.close()
        return response.status, resp_headers, _decode_body(resp_headers, raw)

    def get(self, path: str) -> Response:
        return self.request("GET", path)

    def post(self, path: str, payload: dict) -> Response:
        return self.request("POST", path, payload)

    def job(self, kind: str, program: str, **fields) -> Response:
        """POST one job: ``client.job("protect", "gzip", seed=3)``."""
        return self.post(f"/{kind}", {"program": program, **fields})

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class AsyncServeClient:
    """Asyncio keep-alive client (one connection per instance).

    Not safe for concurrent use of a single instance — the load
    generator opens one per simulated client, which also exercises the
    server's per-connection handling realistically.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ) -> Response:
        if self._writer is None:
            await self._connect()
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await self._writer.drain()
        raw_headers = await self._reader.readuntil(b"\r\n\r\n")
        status, headers = parse_response(raw_headers, b"")
        length = int(headers.get("content-length", "0"))
        raw_body = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, _decode_body(headers, raw_body)

    async def get(self, path: str) -> Response:
        return await self.request("GET", path)

    async def post(self, path: str, payload: dict) -> Response:
        return await self.request("POST", path, payload)

    async def job(self, kind: str, program: str, **fields) -> Response:
        return await self.post(f"/{kind}", {"program": program, **fields})

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:  # noqa: BLE001 — teardown best-effort
                pass
            finally:
                self._reader = None
                self._writer = None

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc) -> bool:
        await self.close()
        return False
