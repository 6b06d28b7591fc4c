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

import logging
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .firmware import AIR_DELAY_MS, AIR_LOG, CLOCK_LIMIT_MS, GROUND_LOG, SdCardImage

CHUNK_SIZE = 1760
REQUEST_LIMIT = 8192  # bytes; the device has no bound, this one stops runaway buffering
# bytes; the longest body fetch accepts.  The device has no bound either, but it
# writes at most one row per AIR_DELAY_MS of the logger clock (28,800 rows), and its
# widest row is 94 bytes: a four-digit year and five floats at -4294967040
BODY_LIMIT = CLOCK_LIMIT_MS // AIR_DELAY_MS * 94
# seconds the whole request line, or one write, may take before the server drops the
# connection; below fetch's 10 s default, so one slow client cannot time out the next
CONNECTION_TIMEOUT_S = 2.0
AIR_REQUEST_PATH = "/download/air.csv"
GROUND_REQUEST_PATH = "/ground.csv"
STATUS_LINE = b"HTTP/1.1 200 OK"  # the only status the device sends

log = logging.getLogger(__name__)


class ProtocolError(RuntimeError):
    """The server answered, but not with a usable 200 response."""


def route(request_text: str) -> str:
    """The log file the device serves for a request.

    AIR_LOG if and only if the first occurrence of "air" in the text sits
    at an index strictly greater than 5; everything else (including a
    missing "air") gets GROUND_LOG.
    """
    return AIR_LOG if request_text.find("air") > 5 else GROUND_LOG


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


def handle_connection(conn, sd: SdCardImage) -> str | None:
    """Serve one connection on any socket-like transport; returns the routed file name.

    The transport needs recv/sendall/close.  Requests are read up to the first
    LF, the 8 KiB bound or CONNECTION_TIMEOUT_S, whichever comes first; with no
    LF by then, None is returned and nothing written.  On a socket (a
    transport with settimeout) each read waits only for the time left, so a
    read stalled at the deadline raises, and each write may take
    CONNECTION_TIMEOUT_S.  Writes happen exactly one sendall per header line
    and per 1760-byte body chunk, so a counting transport can observe the
    chunking.  Once the last chunk of ground.csv is out, both logs are removed
    from the card (from its directory too, for a card read with ``from_dir``);
    a transport error before that propagates and leaves the card as it was.
    """
    deadline = time.monotonic() + CONNECTION_TIMEOUT_S
    settimeout = getattr(conn, "settimeout", None)
    try:
        buffer = b""
        while b"\n" not in buffer and len(buffer) < REQUEST_LIMIT:
            left = deadline - time.monotonic()
            if left <= 0.0:
                break
            if settimeout is not None:
                settimeout(left)
            chunk = conn.recv(1024)
            if not chunk:
                break
            buffer += chunk
        if b"\n" not in buffer:
            return None
        if settimeout is not None:
            settimeout(CONNECTION_TIMEOUT_S)
        name = route(buffer.split(b"\n", 1)[0].decode("latin-1"))
        body = sd.read(name)
        if body is None:  # the device drops the connection with nothing written
            return name
        for piece in HttpFileResponse(name, body).wire_writes():
            conn.sendall(piece)
        if name == GROUND_LOG:
            sd.remove(AIR_LOG)
            sd.remove(GROUND_LOG)
        return name
    finally:
        conn.close()


class LogServer:
    """Sequential accept-serve loop over TCP; one connection at a time."""

    def __init__(self, sd: SdCardImage, host: str = "127.0.0.1", port: int = 0):
        self.sd = sd
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

        A client that resets, hangs up, or stalls or drips past
        CONNECTION_TIMEOUT_S loses only its own connection.
        """
        while stop is None or not stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                handle_connection(conn, self.sd)
            except OSError as exc:
                log.warning("dropped a connection: %r", exc)

    def close(self) -> None:
        self._sock.close()


def fetch(host: str, port: int, path: str, timeout: float = 10.0) -> bytes:
    """Request ``path`` and return the body bytes of the file the server sends.

    ``timeout`` bounds the whole call: each read waits only for the time left.
    Raises ConnectionError when the server is unreachable, resets, stalls or
    passes the timeout, and ProtocolError when the response lacks a 200
    status + header block (which is what a deleted file looks like on the
    wire) or its body is longer than BODY_LIMIT.
    """
    deadline = time.monotonic() + timeout
    request = f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii")
    try:
        conn = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectionError(f"cannot connect to {host}:{port}: {exc}") from exc
    try:
        conn.sendall(request)
        conn.shutdown(socket.SHUT_WR)
        chunks = []
        received = 0
        while True:
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise TimeoutError("timed out")
            conn.settimeout(left)
            chunk = conn.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
            received += len(chunk)
            if received > REQUEST_LIMIT + BODY_LIMIT:  # REQUEST_LIMIT for the header block
                raise ProtocolError(f"the response passed {REQUEST_LIMIT + BODY_LIMIT} bytes, "
                                    f"more than the device can write")
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
    if len(body) > BODY_LIMIT:
        raise ProtocolError(f"a body of {len(body)} bytes is longer than the device can write "
                            f"({BODY_LIMIT} bytes)")
    return body


def sync(host: str, port: int, out_dir, timeout: float = 10.0) -> tuple[bytes, bytes]:
    """Fetch air.csv strictly before ground.csv into ``out_dir``; returns (air, ground).

    ``timeout`` bounds each of the two fetches.

    ``out_dir`` is made before the first fetch, and air.csv is written to its
    final name before ground.csv is requested, since serving ground.csv
    deletes both logs on the card.  ground.csv is written to a temporary name
    in ``out_dir`` and then renamed, so a failed rename leaves its bytes on
    disk under the temporary name (the error names both paths).
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    air = fetch(host, port, AIR_REQUEST_PATH, timeout)
    (directory / AIR_LOG).write_bytes(air)
    ground = fetch(host, port, GROUND_REQUEST_PATH, timeout)
    partial = directory / f"{GROUND_LOG}.part"
    partial.write_bytes(ground)
    partial.replace(directory / GROUND_LOG)
    return air, ground
