"""Asyncio-streams HTTP/1.1 front end for :class:`ServerApp`.

Deliberately minimal and dependency-free: request line + headers +
``Content-Length`` bodies in, status line + JSON bodies out, keep-alive
by default (``Connection: close`` honoured).  Everything interesting —
routing, validation, backpressure, timeouts — lives in the transport-free
app; this module is only the codec, which is why the protocol and soak
suites can drive the app in-process and trust that the wire behaves the
same (the protocol suite's TCP tests pin the codec itself).
"""

from __future__ import annotations

import asyncio
import re
import sys
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from repro.server.app import Request, Response, ServerApp
from repro.server.protocol import error_envelope


class _ProtocolError(Exception):
    """Unparseable or oversized request framing — answered with an
    error envelope and a closed connection."""

    def __init__(self, reason: str, detail: str) -> None:
        status, body = error_envelope(reason, detail)
        self.response = Response(status, body)
        super().__init__(detail)

#: hard cap on request bodies (1 MiB — jobs are small JSON documents)
MAX_BODY_BYTES = 1 << 20

#: hard cap on header lines per request (memory-exhaustion guard)
MAX_HEADER_LINES = 100

#: hard cap on a request head: its request line, header lines and the
#: blank line that ends them (64 KiB)
MAX_HEAD_BYTES = 1 << 16

#: the blank line that ends a head: an LF, then CRLF or a bare LF (a
#: leading literal keeps the search a fast scan)
_HEAD_END = re.compile(rb"\n\r?\n")

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
        buffer = bytearray()  # bytes read past the current request
        try:
            while True:
                try:
                    request, keep_alive = await self._read_request(reader, buffer)
                except _ProtocolError as exc:
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

    async def _read_request(self, reader, buffer: bytearray):
        """Parse one request from ``buffer``, reading from ``reader``
        until it holds a whole head; ``(None, False)`` on an EOF before
        the head ends.  The request's bytes leave the buffer, and those
        of a pipelined request after it stay for the next call."""
        scanned = 0
        while True:
            end = _HEAD_END.search(buffer, max(scanned - 2, 0), MAX_HEAD_BYTES)
            if end is not None:
                break
            if buffer.find(b"\n", scanned) >= 0:
                # refuse what the complete lines already rule out, as a
                # line-at-a-time reader would, rather than wait for a
                # blank line that may never come
                _parse_head(buffer[: buffer.rfind(b"\n")])
            if len(buffer) >= MAX_HEAD_BYTES:
                raise _ProtocolError(
                    "malformed-body", "request head exceeds %d bytes" % MAX_HEAD_BYTES
                )
            scanned = len(buffer)
            chunk = await reader.read(MAX_HEAD_BYTES)
            if not chunk:
                return None, False
            buffer += chunk
        method, target, version, headers = _parse_head(buffer[: end.start()])
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
        start = end.end()
        body = bytes(buffer[start : start + length])
        del buffer[: start + length]
        if len(body) < length:
            body += await reader.readexactly(length - len(body))
        try:
            split = urlsplit(target)
        except ValueError:
            raise _ProtocolError("malformed-body", "unparseable request target")
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and not version.endswith("1.0")
        )
        request = Request(
            method=method,
            path=split.path,
            body=body,
            query=dict(parse_qsl(split.query)) if split.query else {},
            headers=headers,
        )
        return request, keep_alive


def _parse_head(head: bytes):
    """``(method, target, version, headers)`` of a head cut before its
    last LF; every line ends in CRLF or a bare LF."""
    lines = head.decode("latin-1").split("\n")
    try:
        method, target, version = lines[0].strip().split(" ", 2)
    except ValueError:
        raise _ProtocolError("malformed-body", "unparseable request line")
    if len(lines) > MAX_HEADER_LINES + 1:
        raise _ProtocolError(
            "malformed-body", "more than %d header lines" % MAX_HEADER_LINES
        )
    headers = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if colon:
            headers[name.strip().lower()] = value.strip()
    return method, target, version, headers


def serve_main(
    host: str,
    port: int,
    app: ServerApp,
    reap_interval_s: Optional[float] = None,
) -> int:
    """Blocking entry point for ``rolp-bench serve``."""

    async def _run() -> None:
        frontend = HttpFrontend(app, host, port)
        await frontend.start(reap_interval_s=reap_interval_s)
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
