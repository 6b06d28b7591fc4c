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
STATUS_LINE = b"HTTP/1.1 200 OK"  # the only status the device sends

log = logging.getLogger(__name__)


class RouteTarget(enum.Enum):
    AIR = "air"
    GROUND = "ground"


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
    """What the device writes for one log file."""

    name: str
    body: bytes

    def wire_writes(self) -> list[bytes]:
        """The exact write sequence: the status line, three header lines naming
        the file and a blank line, one write each, then the body in 1760-byte chunks."""
        writes = [STATUS_LINE + b"\r\n", b"Content-Type: text/csv\r\n",
                  f'Content-Disposition: attachment; filename="{self.name}"\r\n'.encode("ascii"),
                  b"Connection: close\r\n", b"\r\n"]
        for offset in range(0, len(self.body), CHUNK_SIZE):
            writes.append(self.body[offset:offset + CHUNK_SIZE])
        return writes


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
        body = sd.read(name)
        if body is None:  # the device drops the connection with nothing written
            return target
        for piece in HttpFileResponse(name, body).wire_writes():
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
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(1)
        except BaseException:  # a busy or bad port: do not leak the socket
            self._sock.close()
            raise
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

    Raises ConnectionError when the server is unreachable, resets or
    stalls, and ProtocolError when the response lacks a 200 status + header
    block (which is what a deleted file looks like on the wire).
    """
    path = AIR_REQUEST_PATH if which is RouteTarget.AIR else GROUND_REQUEST_PATH
    request = f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii")
    try:
        conn = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectionError(f"cannot connect to {host}:{port}: {exc}") from exc
    try:
        conn.sendall(request)
        conn.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := conn.recv(4096):
            chunks.append(chunk)
    except OSError as exc:  # a reset or a stall past the timeout, always a transport failure
        raise ConnectionError(f"connection to {host}:{port} failed: {exc}") from exc
    finally:
        conn.close()
    data = b"".join(chunks)
    if b"\r\n\r\n" not in data:
        raise ProtocolError("connection closed without a response header block")
    head, body = data.split(b"\r\n\r\n", 1)
    status = head.split(b"\r\n", 1)[0]
    if status != STATUS_LINE:
        raise ProtocolError(f"unexpected status line {status!r}")
    return body


def sync(host: str, port: int, out_dir, timeout: float = 10.0) -> tuple[bytes, bytes]:
    """Fetch air.csv strictly before ground.csv into ``out_dir``; returns (air, ground).

    ``out_dir`` is made before the first fetch, and air.csv is written to its
    final name before ground.csv is requested, since serving ground.csv
    deletes both logs on the card.  ground.csv is written to a temporary name
    in ``out_dir`` and then renamed, so a failed rename leaves its bytes on
    disk under the temporary name (the error names both paths).
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    air = fetch(host, port, RouteTarget.AIR, timeout)
    (directory / AIR_LOG).write_bytes(air)
    ground = fetch(host, port, RouteTarget.GROUND, timeout)
    partial = directory / f"{GROUND_LOG}.part"
    partial.write_bytes(ground)
    partial.replace(directory / GROUND_LOG)
    return air, ground
