"""Wire-faithful re-creation of the logger's HTTP file service and a
conforming ground-station client.

The server reproduces the device behaviour literally: requests are routed
by ``indexOf("air") > 5`` on the accumulated request text (so a plain
``GET /air.csv`` request reaches the ground handler — "air" sits at index
5), the response header block is exactly four CRLF lines plus a blank
line, bodies go out in 1760-byte chunks, and serving ground.csv deletes
both log files once its last chunk is out.  The client therefore requests
``/download/air.csv`` so the air file routes correctly, and always syncs
air before ground.
"""

from __future__ import annotations

import enum
import logging
import socket
import threading
from dataclasses import dataclass
from pathlib import Path

from .firmware import AIR_LOG, GROUND_LOG, SdCardImage

CHUNK_SIZE = 1760
REQUEST_LIMIT = 8192  # bytes; the device has no bound, this one stops runaway buffering
# seconds one read or write may stall before the server drops the connection;
# below fetch's 10 s default, so one idle client cannot time out the next
CONNECTION_TIMEOUT_S = 2.0
AIR_REQUEST_PATH = "/download/air.csv"
GROUND_REQUEST_PATH = "/ground.csv"

log = logging.getLogger(__name__)


class RouteTarget(enum.Enum):
    AIR = "air"
    GROUND = "ground"


class TransportError(ConnectionError):
    """Could not reach or keep a connection to the file server."""


class ProtocolError(RuntimeError):
    """The server answered, but not with a usable 200 response."""


def route(request_text: str) -> RouteTarget:
    """Route a request exactly as the device does.

    AIR if and only if the first occurrence of "air" in the text sits at
    an index strictly greater than 5; everything else (including a missing
    "air") is GROUND.
    """
    return RouteTarget.AIR if request_text.find("air") > 5 else RouteTarget.GROUND


@dataclass(frozen=True)
class HttpFileResponse:
    status_line: str
    headers: tuple[tuple[str, str], ...]
    body: bytes

    def wire_writes(self) -> list[bytes]:
        """The exact write sequence: one per header line, blank line, then chunks."""
        writes = [(self.status_line + "\r\n").encode("ascii")]
        writes += [f"{k}: {v}\r\n".encode("ascii") for k, v in self.headers]
        writes.append(b"\r\n")
        for offset in range(0, len(self.body), CHUNK_SIZE):
            writes.append(self.body[offset:offset + CHUNK_SIZE])
        return writes


def serve_file(name: str, sd: SdCardImage) -> HttpFileResponse | None:
    """The response for a log file; None when the file is absent (the
    connection is then dropped with nothing written)."""
    data = sd.read(name)
    if data is None:
        return None
    return HttpFileResponse(
        status_line="HTTP/1.1 200 OK",
        headers=(
            ("Content-Type", "text/csv"),
            ("Content-Disposition", f'attachment; filename="{name}"'),
            ("Connection", "close"),
        ),
        body=data,
    )


def handle_connection(conn, sd: SdCardImage, on_ground_served=None) -> RouteTarget | None:
    """Serve one connection on any socket-like transport.

    The transport needs recv/sendall/close.  Requests are read up to the
    first LF (or the 8 KiB bound); writes happen exactly one sendall per
    header line and per 1760-byte body chunk, so a counting transport can
    observe the chunking.  Once the last chunk of ground.csv is out, both
    logs are removed from the card and ``on_ground_served`` runs; a transport
    error before that propagates and leaves the card as it was.
    """
    try:
        buffer = b""
        while b"\n" not in buffer and len(buffer) < REQUEST_LIMIT:
            chunk = conn.recv(1024)
            if not chunk:
                break
            buffer += chunk
        if b"\n" not in buffer:
            return None
        first_line = buffer.split(b"\n", 1)[0].decode("latin-1")
        target = route(first_line)
        name = AIR_LOG if target is RouteTarget.AIR else GROUND_LOG
        response = serve_file(name, sd)
        if response is None:
            return target
        for piece in response.wire_writes():
            conn.sendall(piece)
        if name == GROUND_LOG:
            sd.remove(AIR_LOG)
            sd.remove(GROUND_LOG)
            if on_ground_served is not None:
                on_ground_served()
        return target
    finally:
        conn.close()


class LogServer:
    """Sequential accept-serve loop over TCP; one connection at a time."""

    def __init__(self, sd: SdCardImage, host: str = "127.0.0.1", port: int = 0,
                 on_ground_served=None):
        self.sd = sd
        self.on_ground_served = on_ground_served
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(1)
        self._sock.settimeout(0.2)
        self.host, self.port = self._sock.getsockname()[:2]

    def serve_forever(self, stop: threading.Event | None = None) -> None:
        """Serve until ``stop`` is set or the socket closes.

        A client that resets, hangs up or stalls past CONNECTION_TIMEOUT_S
        loses only its own connection.
        """
        while stop is None or not stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(CONNECTION_TIMEOUT_S)
            try:
                handle_connection(conn, self.sd, self.on_ground_served)
            except OSError as exc:
                log.warning("dropped a connection: %r", exc)

    def close(self) -> None:
        self._sock.close()


def fetch(host: str, port: int, which: RouteTarget, timeout: float = 10.0) -> bytes:
    """Fetch one log file; returns the body bytes.

    Raises TransportError when the server is unreachable and ProtocolError
    when the response lacks a 200 status + header block (which is what a
    deleted file looks like on the wire).
    """
    path = AIR_REQUEST_PATH if which is RouteTarget.AIR else GROUND_REQUEST_PATH
    request = f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii")
    try:
        conn = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    try:
        conn.sendall(request)
        conn.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            try:
                chunk = conn.recv(4096)
            except socket.timeout as exc:
                raise TransportError("timed out waiting for the response") from exc
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        conn.close()
    data = b"".join(chunks)
    if b"\r\n\r\n" not in data:
        raise ProtocolError("connection closed without a response header block")
    head, body = data.split(b"\r\n\r\n", 1)
    status = head.split(b"\r\n", 1)[0]
    if status != b"HTTP/1.1 200 OK":
        raise ProtocolError(f"unexpected status line {status!r}")
    return body


@dataclass(frozen=True)
class SyncResult:
    air: bytes
    ground: bytes


def sync(host: str, port: int, out_dir=None, timeout: float = 10.0) -> SyncResult:
    """Fetch air.csv strictly before ground.csv, then persist both.

    Any failure aborts the sync with nothing written.
    """
    air = fetch(host, port, RouteTarget.AIR, timeout)
    ground = fetch(host, port, RouteTarget.GROUND, timeout)
    result = SyncResult(air=air, ground=ground)
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / AIR_LOG).write_bytes(air)
        (directory / GROUND_LOG).write_bytes(ground)
    return result
