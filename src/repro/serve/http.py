"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough protocol for both asyncio front ends — the dataset server
(:class:`repro.serve.server.ServeApp`) and the multi-process router
(:class:`repro.router.RouterApp`) — which share one connection loop in
:class:`~repro.serve.server.AsyncApp`: request-line + header parsing
with hard size limits, ``Content-Length`` bodies, JSON replies, plain
text replies (the ``/metrics`` exposition), and chunked transfer
encoding for NDJSON streaming (so a response's size never has to be
known — or buffered — up front).

Connections are **persistent by default** (HTTP/1.1 keep-alive): the
server's connection loop calls :func:`read_request` repeatedly on one
socket, and :func:`want_keep_alive` implements the negotiation rules —
HTTP/1.1 keeps the connection unless the client says ``Connection:
close``; HTTP/1.0 closes unless the client says ``Connection:
keep-alive``.  Reuse makes framing correctness load-bearing, so every
response states its framing explicitly: an exact ``Content-Length`` or
a chunked body ending in the terminal ``0\\r\\n\\r\\n`` (never a stray
byte after it), plus an explicit ``Connection: keep-alive``/``close``
header.  Requests are fully consumed (``readexactly`` of the declared
body length) before the next one is parsed, and anything that leaves
the request boundary ambiguous — a malformed head, duplicate or
conflicting ``Content-Length`` headers, ``Content-Length`` combined
with ``Transfer-Encoding`` — is rejected with a 400-class
:class:`ProtocolError` that the server answers with ``Connection:
close``: after a framing error, reusing the socket would be request
smuggling.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "Request",
    "ProtocolError",
    "read_request",
    "want_keep_alive",
    "send_json",
    "send_text",
    "start_stream",
    "send_chunk",
    "end_chunked",
    "STATUS_REASONS",
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
]

#: Reason phrases for the statuses the server emits.
STATUS_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

#: Also the ``limit=`` the server passes to :func:`asyncio.start_server`,
#: so an oversized head overruns the reader at 16 KiB instead of being
#: buffered up to asyncio's 64 KiB default before the check runs.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024


class ProtocolError(Exception):
    """Malformed or oversized request; carries the HTTP status to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"
    #: Raw query string (no leading ``?``); empty when the target had none.
    query: str = ""

    def json(self) -> Any:
        """Decode the body as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"request body is not valid JSON: {exc}") from exc


async def read_request(
    reader: asyncio.StreamReader,
    head_timeout: Optional[float] = None,
    body_timeout: Optional[float] = None,
) -> Optional[Request]:
    """Parse one request; ``None`` if the peer closed before sending one.

    The declared body is always consumed in full, so on a keep-alive
    connection the stream is positioned exactly at the next request
    head when this returns.  ``head_timeout`` bounds how long the
    connection may sit without delivering a complete request head (the
    keep-alive idle window — raises :class:`asyncio.TimeoutError` so
    the caller can close silently); ``body_timeout`` separately bounds
    body receipt, so a slow-but-progressing large upload is never
    mistaken for an idle connection (it raises a 400
    :class:`ProtocolError` instead).
    """
    try:
        head_read = reader.readuntil(b"\r\n\r\n")
        if head_timeout is not None:
            head = await asyncio.wait_for(head_read, head_timeout)
        else:
            head = await head_read
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(413, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(413, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    path, _, query = target.partition("?")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        key = name.strip().lower()
        value = value.strip()
        if key in headers:
            if key == "content-length":
                # Duplicate or conflicting lengths desynchronize framing
                # on a reused connection (request-smuggling class).
                raise ProtocolError(400, "duplicate Content-Length headers")
            headers[key] = f"{headers[key]}, {value}"
        else:
            headers[key] = value

    if "transfer-encoding" in headers:
        if "content-length" in headers:
            raise ProtocolError(
                400, "Content-Length with Transfer-Encoding is not allowed"
            )
        raise ProtocolError(
            400,
            "Transfer-Encoding request bodies are not supported; "
            "send a Content-Length body",
        )
    length_header = headers.get("content-length", "0")
    if not (length_header.isascii() and length_header.isdigit()):
        raise ProtocolError(400, f"bad Content-Length: {length_header!r}")
    length = int(length_header)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(413, f"body of {length} bytes exceeds the limit")
    body = b""
    if length:
        try:
            body_read = reader.readexactly(length)
            if body_timeout is not None:
                body = await asyncio.wait_for(body_read, body_timeout)
            else:
                body = await body_read
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "request body shorter than Content-Length") from exc
        except asyncio.TimeoutError as exc:
            raise ProtocolError(400, "timed out receiving the request body") from exc
    return Request(
        method=method.upper(), path=path, headers=headers, body=body,
        version=version.upper(), query=query,
    )


def want_keep_alive(request: Request) -> bool:
    """Should the connection stay open after answering ``request``?

    HTTP/1.1: persistent unless the client sent ``Connection: close``.
    HTTP/1.0: closed unless the client sent ``Connection: keep-alive``.
    """
    tokens = {
        token.strip().lower()
        for token in request.headers.get("connection", "").split(",")
        if token.strip()
    }
    if request.version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


def _head(status: int, headers: Dict[str, str]) -> bytes:
    """A response's status line and headers, through the blank line, as
    one ``bytes``: written at once, an idle keep-alive socket sends it
    in one ``send()`` instead of one per line."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    extra_headers: Optional[Dict[str, str]] = None,
    close: bool = True,
) -> None:
    """Send a complete JSON response (non-streaming endpoints)."""
    await send_text(
        writer, status, json.dumps(payload) + "\n",
        content_type="application/json",
        extra_headers=extra_headers, close=close,
    )


async def send_text(
    writer: asyncio.StreamWriter,
    status: int,
    text: str,
    content_type: str = "text/plain; charset=utf-8",
    extra_headers: Optional[Dict[str, str]] = None,
    close: bool = True,
) -> None:
    """Send a complete text response (the ``/metrics`` scrape, and
    every JSON reply through :func:`send_json`)."""
    body = text.encode("utf-8")
    headers = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "close" if close else "keep-alive",
        **(extra_headers or {}),
    }
    writer.write(_head(status, headers) + body)
    await writer.drain()


async def start_stream(
    writer: asyncio.StreamWriter, status: int = 200,
    content_type: str = "application/x-ndjson",
    extra_headers: Optional[Dict[str, str]] = None,
    close: bool = True,
    chunked: bool = True,
) -> None:
    """Open a streamed response; follow with :func:`send_chunk` calls.

    ``chunked=True`` (HTTP/1.1) uses chunked transfer encoding, so the
    connection can be reused after the terminal 0-chunk.  ``chunked=
    False`` is for HTTP/1.0 peers, which must never be sent chunked
    framing (RFC 7230 §3.3.1): the body is raw bytes delimited by
    connection close, so the caller must also pass ``close=True``.
    """
    headers = {
        "Content-Type": content_type,
        "Connection": "close" if close else "keep-alive",
        **(extra_headers or {}),
    }
    if chunked:
        headers["Transfer-Encoding"] = "chunked"
    writer.write(_head(status, headers))
    await writer.drain()


async def send_chunk(
    writer: asyncio.StreamWriter, payload: Any, chunked: bool = True
) -> int:
    """Send one NDJSON line (one HTTP chunk if ``chunked``), flushed.

    ``payload`` is a JSON-ready object, or a ``str`` its caller already
    encoded as one JSON document (no newline), which is sent as is.
    Returns the body byte count (excluding chunk framing), so callers
    can account streamed payload bytes without re-serialising.
    """
    text = payload if isinstance(payload, str) else json.dumps(payload)
    line = (text + "\n").encode("utf-8")
    if chunked:
        writer.write(b"%x\r\n%b\r\n" % (len(line), line))
    else:
        writer.write(line)
    await writer.drain()
    return len(line)


async def end_chunked(writer: asyncio.StreamWriter) -> None:
    """Terminate a chunked response (exactly ``0 CRLF CRLF``, no more)."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()
