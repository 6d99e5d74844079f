"""Asyncio-streams HTTP/1.1 front end for :class:`ServerApp`.

Deliberately minimal and dependency-free: request line + headers +
``Content-Length`` bodies in, status line + JSON bodies out, keep-alive
by default (``Connection: close`` honoured).  Everything interesting —
routing, validation, backpressure, timeouts — lives in the transport-free
app; this module is only the codec, which is why the protocol and soak
suites can drive the app in-process and trust that the wire behaves the
same (one TCP round-trip test in the protocol suite pins the codec
itself).
"""

from __future__ import annotations

import asyncio
import sys
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from repro.server.app import Request, Response, ServerApp
from repro.server.protocol import error_envelope


class _ProtocolError(Exception):
    """Unparseable request line or oversized body — answered with an
    error envelope and a closed connection."""

    def __init__(self, reason: str, detail: str) -> None:
        status, body = error_envelope(reason, detail)
        self.response = Response(status, body)
        super().__init__(detail)

#: hard cap on request bodies (1 MiB — jobs are small JSON documents)
MAX_BODY_BYTES = 1 << 20

#: hard cap on header lines per request (memory-exhaustion guard)
MAX_HEADER_LINES = 100

_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def _encode_response(response: Response, keep_alive: bool) -> bytes:
    body = response.encoded()
    lines = [
        "HTTP/1.1 %d %s" % (response.status, _STATUS_TEXT.get(response.status, "")),
        "Content-Type: %s" % response.content_type,
        "Content-Length: %d" % len(body),
        "Connection: %s" % ("keep-alive" if keep_alive else "close"),
    ]
    for name, value in response.headers.items():
        lines.append("%s: %s" % (name, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class HttpFrontend:
    """Bind a :class:`ServerApp` to a TCP listener."""

    def __init__(self, app: ServerApp, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def bound_port(self) -> int:
        if self._server is None:
            raise RuntimeError("frontend not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, reap_interval_s: Optional[float] = None) -> None:
        await self.app.startup(reap_interval_s=reap_interval_s)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.app.shutdown()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("frontend not started")
        await self._server.serve_forever()

    # ----------------------------------------------------------------- codec

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request, keep_alive = await self._read_request(reader)
                except (_ProtocolError, ValueError, asyncio.LimitOverrunError) as exc:
                    # bare ValueError / LimitOverrunError = a request or
                    # header line over the StreamReader's 64 KiB limit
                    if not isinstance(exc, _ProtocolError):
                        exc = _ProtocolError(
                            "malformed-body",
                            "request or header line exceeds the stream limit",
                        )
                    writer.write(_encode_response(exc.response, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self.app.handle(request)
                writer.write(_encode_response(response, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """Parse one request; ``(None, False)`` on clean EOF."""
        line = await reader.readline()
        if not line:
            return None, False
        try:
            method, target, version = line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            raise _ProtocolError("malformed-body", "unparseable request line")
        headers = {}
        header_lines = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            header_lines += 1
            if header_lines > MAX_HEADER_LINES:
                raise _ProtocolError(
                    "malformed-body",
                    "more than %d header lines" % MAX_HEADER_LINES,
                )
            if b":" in raw:
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _ProtocolError("malformed-body", "unparseable Content-Length")
        if length < 0:
            raise _ProtocolError("malformed-body", "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise _ProtocolError(
                "malformed-body", "request body exceeds %d bytes" % MAX_BODY_BYTES
            )
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and not version.endswith("1.0")
        )
        request = Request(
            method=method,
            path=split.path,
            body=body,
            query=dict(parse_qsl(split.query)),
            headers=headers,
        )
        return request, keep_alive


def serve_main(
    host: str,
    port: int,
    app: ServerApp,
    reap_interval_s: Optional[float] = None,
    ready_message: bool = True,
) -> int:
    """Blocking entry point for ``rolp-bench serve``."""

    async def _run() -> None:
        frontend = HttpFrontend(app, host, port)
        await frontend.start(reap_interval_s=reap_interval_s)
        if ready_message:
            print(
                "rolp-bench serve: listening on http://%s:%d (Ctrl-C to stop)"
                % (host, frontend.bound_port),
                file=sys.stderr,
                flush=True,
            )
        try:
            await frontend.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await frontend.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("rolp-bench serve: shutting down", file=sys.stderr)
    return 0
