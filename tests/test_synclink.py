import contextlib
import gc
import random
import socket
import string
import struct
import threading
import time
import warnings

import pytest

from asid import cli, synclink
from asid.firmware import AIR_LOG, ARDUINO_FLOAT_LIMIT, GROUND_LOG, PHOTO_MANIFEST, \
    SdCardImage, format_row
from asid.synclink import (
    AIR_REQUEST_PATH,
    BODY_LIMIT,
    CHUNK_SIZE,
    CONNECTION_TIMEOUT_S,
    GROUND_REQUEST_PATH,
    HttpFileResponse,
    LogServer,
    ProtocolError,
    fetch,
    handle_connection,
    route,
    sync,
)
from asid.wxindices import LogRow

AIR_BYTES = b"01.06.2021,10:15:22,15.0,49.7,13.8,1007.58,5.04,\r\n" * 70
GROUND_BYTES = b"01.06.2021,10:15:00,15.0,50.0,13.9,1008.18,0.00,\r\n" * 6


def _sd():
    return SdCardImage({AIR_LOG: AIR_BYTES, GROUND_LOG: GROUND_BYTES})


class ScriptedConn:
    """Socket stand-in that records every write, for chunk counting; with
    ``reset_after=n``, every write after the first n raises ConnectionResetError."""

    def __init__(self, request: bytes, reset_after: int | None = None):
        self._rx = request
        self._reset_after = reset_after
        self.writes: list[bytes] = []
        self.closed = False

    def recv(self, n: int) -> bytes:
        chunk, self._rx = self._rx[:n], self._rx[n:]
        return chunk

    def sendall(self, data: bytes) -> None:
        if len(self.writes) == self._reset_after:
            raise ConnectionResetError("peer reset")
        self.writes.append(bytes(data))

    def close(self) -> None:
        self.closed = True


class WatchedConn(ScriptedConn):
    """ScriptedConn that records, at each write, whether ``path`` still exists."""

    def __init__(self, request: bytes, path, reset_after: int | None = None):
        super().__init__(request, reset_after)
        self._path = path
        self.present: list[bool] = []

    def sendall(self, data: bytes) -> None:
        self.present.append(self._path.exists())
        super().sendall(data)


def _dir_card(directory, files: dict[str, bytes]) -> SdCardImage:
    """A card read back from ``directory`` once ``files`` are written there."""
    SdCardImage(files).to_dir(directory)
    return SdCardImage.from_dir(directory)


class TestRoute:
    def test_download_path_routes_air(self):
        line = "GET /download/air.csv HTTP/1.1"
        assert line.find("air") == 14  # literal index check
        assert route(line) == AIR_LOG

    def test_no_air_routes_ground(self):
        assert route("GET /ground HTTP/1.1") == GROUND_LOG

    def test_air_at_index_five_routes_ground(self):
        # the strict > 5 comparison sends a plain /air.csv to the ground handler
        line = "GET /air.csv HTTP/1.1"
        assert line.find("air") == 5
        assert route(line) == GROUND_LOG

    def test_fuzz_never_raises(self):
        rng = random.Random(1234)
        alphabet = string.printable
        for _ in range(1000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
            assert route(text) in (AIR_LOG, GROUND_LOG)


class TestServeFile:
    def test_header_block_byte_exact(self):
        writes = HttpFileResponse(AIR_LOG, AIR_BYTES).wire_writes()
        assert writes[0] == b"HTTP/1.1 200 OK\r\n"
        assert writes[1] == b"Content-Type: text/csv\r\n"
        assert writes[2] == b'Content-Disposition: attachment; filename="air.csv"\r\n'
        assert writes[3] == b"Connection: close\r\n"
        assert writes[4] == b"\r\n"

    def test_body_chunked_at_1760(self):
        body_writes = HttpFileResponse(AIR_LOG, b"x" * 3521).wire_writes()[5:]
        assert [len(w) for w in body_writes] == [1760, 1760, 1]

    def test_chunks_concatenate_to_file(self):
        for size in (0, 1, 1759, 1760, 1761, 3520, 3521, 5000):
            original = (bytes(range(256)) * (size // 256 + 1))[:size]
            body_writes = HttpFileResponse(AIR_LOG, original).wire_writes()[5:]
            assert b"".join(body_writes) == original
            assert all(len(w) == CHUNK_SIZE for w in body_writes[:-1])

    def test_serving_air_keeps_files(self):
        sd = _sd()
        handle_connection(ScriptedConn(b"GET /download/air.csv HTTP/1.1\r\n\r\n"), sd)
        assert AIR_LOG in sd.files
        assert GROUND_LOG in sd.files


class TestHandleConnection:
    def test_counting_transport_sees_header_then_chunks(self):
        sd = SdCardImage({AIR_LOG: b"a" * 3521, GROUND_LOG: GROUND_BYTES})
        conn = ScriptedConn(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
        target = handle_connection(conn, sd)
        assert target == AIR_LOG
        assert conn.closed
        sizes = [len(w) for w in conn.writes[5:]]
        assert sizes == [1760, 1760, 1]
        assert b"".join(conn.writes[5:]) == b"a" * 3521

    def test_serving_ground_removes_both_files(self, tmp_path):
        sd = _dir_card(tmp_path, {AIR_LOG: AIR_BYTES, GROUND_LOG: GROUND_BYTES,
                                  PHOTO_MANIFEST: b"[]"})
        conn = WatchedConn(b"GET /ground.csv HTTP/1.1\r\n\r\n", tmp_path / GROUND_LOG)
        target = handle_connection(conn, sd)
        assert target == GROUND_LOG
        # removed once the last chunk is out: present at every write, gone after
        assert conn.present == [True] * len(conn.writes) and len(conn.writes) > 5
        assert sorted(sd.files) == [PHOTO_MANIFEST]
        assert sorted(path.name for path in tmp_path.iterdir()) == [PHOTO_MANIFEST]

    def test_failed_send_keeps_both_logs(self, tmp_path):
        sd = _dir_card(tmp_path, {AIR_LOG: AIR_BYTES, GROUND_LOG: GROUND_BYTES})
        conn = ScriptedConn(b"GET /ground.csv HTTP/1.1\r\n\r\n", reset_after=5)
        with pytest.raises(ConnectionResetError):
            handle_connection(conn, sd)
        assert conn.closed
        assert sd.read(AIR_LOG) == AIR_BYTES
        assert sd.read(GROUND_LOG) == GROUND_BYTES
        assert (tmp_path / AIR_LOG).read_bytes() == AIR_BYTES
        assert (tmp_path / GROUND_LOG).read_bytes() == GROUND_BYTES

    def test_missing_file_writes_nothing(self):
        conn = ScriptedConn(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
        target = handle_connection(conn, SdCardImage())
        assert target == AIR_LOG
        assert conn.writes == []
        assert conn.closed

    def test_missing_ground_file_deletes_nothing(self, tmp_path):
        sd = _dir_card(tmp_path, {AIR_LOG: AIR_BYTES})
        conn = ScriptedConn(b"GET /ground.csv HTTP/1.1\r\n\r\n")
        assert handle_connection(conn, sd) == GROUND_LOG
        assert conn.writes == []
        assert sd.read(AIR_LOG) == AIR_BYTES
        assert (tmp_path / AIR_LOG).read_bytes() == AIR_BYTES

    def test_empty_file_sends_headers_only(self):
        sd = SdCardImage({AIR_LOG: b""})
        conn = ScriptedConn(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
        handle_connection(conn, sd)
        assert len(conn.writes) == 5  # status + 3 headers + blank line, zero body bytes

    def test_request_without_newline_is_dropped(self):
        conn = ScriptedConn(b"GET /download/air.csv HTTP/1.1")
        assert handle_connection(conn, _sd()) is None
        assert conn.writes == []

    def test_responses_byte_identical_across_runs(self):
        wires = []
        for _ in range(2):
            conn = ScriptedConn(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
            handle_connection(conn, _sd())
            wires.append(b"".join(conn.writes))
        assert wires[0] == wires[1]


@pytest.fixture
def server():
    sd = _sd()
    srv = LogServer(sd, port=0)
    stop = threading.Event()
    thread = threading.Thread(target=srv.serve_forever, args=(stop,), daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        stop.set()
        thread.join(timeout=2.0)
        srv.close()


class TestLoopback:
    def test_fetch_air_then_ground_byte_identical(self, server):
        air = fetch(server.host, server.port, AIR_REQUEST_PATH, timeout=5.0)
        ground = fetch(server.host, server.port, GROUND_REQUEST_PATH, timeout=5.0)
        assert air == AIR_BYTES
        assert ground == GROUND_BYTES

    def test_ground_first_breaks_air(self, server):
        ground = fetch(server.host, server.port, GROUND_REQUEST_PATH, timeout=5.0)
        assert ground == GROUND_BYTES
        with pytest.raises(ProtocolError):
            fetch(server.host, server.port, AIR_REQUEST_PATH, timeout=5.0)

    def test_sync_persists_both(self, server, tmp_path):
        assert sync(server.host, server.port, tmp_path, timeout=5.0) == (AIR_BYTES, GROUND_BYTES)
        assert (tmp_path / AIR_LOG).read_bytes() == AIR_BYTES
        assert (tmp_path / GROUND_LOG).read_bytes() == GROUND_BYTES
        assert sorted(path.name for path in tmp_path.iterdir()) == [AIR_LOG, GROUND_LOG]

    def test_sync_succeeds_exactly_once(self, server, tmp_path):
        sync(server.host, server.port, tmp_path, timeout=5.0)
        with pytest.raises(ProtocolError):
            sync(server.host, server.port, tmp_path / "second", timeout=5.0)
        assert list((tmp_path / "second").iterdir()) == []  # no log written on failure

    def test_client_reset_mid_response_keeps_serving(self, server):
        server.sd.files[AIR_LOG] = b"x" * (4 << 20)
        for _ in range(3):
            conn = socket.create_connection((server.host, server.port), timeout=5.0)
            conn.sendall(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
            conn.recv(1024)
            # abort with a TCP reset while the server is still writing the body
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
        assert fetch(server.host, server.port, GROUND_REQUEST_PATH, timeout=5.0) == GROUND_BYTES

    def test_idle_client_does_not_block_the_next(self, server):
        with socket.create_connection((server.host, server.port)):  # sends nothing
            air = fetch(server.host, server.port, AIR_REQUEST_PATH,
                        timeout=CONNECTION_TIMEOUT_S + 3.0)
        assert air == AIR_BYTES

    def test_dripping_client_does_not_hold_the_server(self, server, monkeypatch):
        # one byte per 0.2 s keeps every read under its timeout, but not the
        # request line under the connection's deadline
        monkeypatch.setattr(synclink, "CONNECTION_TIMEOUT_S", 0.3)
        stop = threading.Event()

        def drip() -> None:
            with socket.create_connection((server.host, server.port)) as conn:
                for _ in range(25):
                    try:
                        conn.sendall(b"G")
                    except OSError:  # dropped by the server
                        return
                    if stop.wait(0.2):
                        return

        dripper = threading.Thread(target=drip, daemon=True)
        dripper.start()
        time.sleep(0.1)  # the dripping connection is accepted first
        try:
            assert fetch(server.host, server.port, AIR_REQUEST_PATH, timeout=2.0) == AIR_BYTES
        finally:
            stop.set()
            dripper.join(timeout=2.0)
        assert not dripper.is_alive()

    def test_a_read_waits_only_for_the_time_left(self, server, monkeypatch):
        # one byte just before the deadline, then silence: the read after it
        # ends at the deadline, not a whole CONNECTION_TIMEOUT_S later
        monkeypatch.setattr(synclink, "CONNECTION_TIMEOUT_S", 0.6)
        with socket.create_connection((server.host, server.port)) as stalled:
            accepted = time.monotonic()
            time.sleep(0.45)
            stalled.sendall(b"G")
            air = fetch(server.host, server.port, AIR_REQUEST_PATH, timeout=3.0)
            served = time.monotonic() - accepted
        assert air == AIR_BYTES
        assert served < 0.85  # ~0.6 s; ~1.05 s when the read gets a full timeout

    def test_plain_air_path_is_served_ground(self, server):
        # "air" at index 5 of "GET /air.csv" routes to the ground handler
        assert fetch(server.host, server.port, "/air.csv", timeout=5.0) == GROUND_BYTES
        assert sorted(server.sd.files) == []
        with pytest.raises(ProtocolError):
            fetch(server.host, server.port, AIR_REQUEST_PATH, timeout=5.0)

    def test_empty_air_file_yields_zero_byte_body(self):
        sd = SdCardImage({AIR_LOG: b"", GROUND_LOG: GROUND_BYTES})
        srv = LogServer(sd, port=0)
        stop = threading.Event()
        thread = threading.Thread(target=srv.serve_forever, args=(stop,), daemon=True)
        thread.start()
        try:
            body = fetch(srv.host, srv.port, AIR_REQUEST_PATH, timeout=5.0)
            assert body == b""
        finally:
            stop.set()
            thread.join(timeout=2.0)
            srv.close()


def test_a_server_on_a_busy_port_closes_its_socket():
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                LogServer(SdCardImage(), port=busy.getsockname()[1])
            except OSError:
                pass
            else:
                pytest.fail("a busy port was bound")
            gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_fetch_refused_connection_is_transport_error():
    with pytest.raises(ConnectionError):
        fetch("127.0.0.1", 1, AIR_REQUEST_PATH, timeout=0.5)


def test_fetch_of_a_non_200_status_is_a_protocol_error():
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def answer() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.recv(1024)
                conn.sendall(b"HTTP/1.1 404 Not Found\r\nConnection: close\r\n\r\n")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        with pytest.raises(ProtocolError, match="unexpected status line b'HTTP/1.1 404"):
            fetch("127.0.0.1", listener.getsockname()[1], AIR_REQUEST_PATH, timeout=5.0)
        thread.join(timeout=2.0)


def test_fetch_from_a_silent_server_is_a_connection_error():
    with socket.socket() as silent:  # connections queue in the backlog, never answered
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        with pytest.raises(ConnectionError, match="timed out"):
            fetch("127.0.0.1", silent.getsockname()[1], AIR_REQUEST_PATH, timeout=0.3)


@contextlib.contextmanager
def one_shot_server(respond):
    """A loopback listener that reads the request of its first connection, then
    calls ``respond(conn, stop)``; yields (host, port).  ``stop`` is set on exit."""
    stop = threading.Event()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(5.0)

        def serve() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.recv(1024)
                try:
                    respond(conn, stop)
                except OSError:  # the client hung up
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            yield listener.getsockname()[:2]
        finally:
            stop.set()
            thread.join(timeout=2.0)


AIR_HEADER = b"".join(HttpFileResponse(AIR_LOG, b"").wire_writes())


class TestFetchBounds:
    def test_the_body_limit_is_a_row_per_air_delay_at_the_widest_row(self):
        widest = format_row(LogRow("31.12.9999", "23:59:59", *[-ARDUINO_FLOAT_LIMIT] * 5))
        assert len(widest) == 94
        assert BODY_LIMIT == 28_800 * len(widest) == 2_707_200

    def test_a_trickling_server_fails_sync_at_its_deadline(self, monkeypatch, tmp_path,
                                                           capsys):
        # one body byte per 0.1 s keeps every read under a 0.5 s timeout for 3 s;
        # the timeout bounds the whole call, so sync fails with exit 4 after 0.5 s
        def trickle(conn, stop) -> None:
            conn.sendall(AIR_HEADER)
            for _ in range(30):
                conn.sendall(b"x")
                if stop.wait(0.1):
                    return

        monkeypatch.setattr(synclink, "fetch",
                            lambda host, port, path, timeout: fetch(host, port, path, 0.5))
        with one_shot_server(trickle) as (host, port):
            start = time.monotonic()
            code = cli.main(["sync", "--host", host, "--port", str(port),
                             "--out", str(tmp_path)])
            elapsed = time.monotonic() - start
        assert code == cli.EXIT_TRANSPORT
        assert capsys.readouterr().err == \
            f"transport error: connection to {host}:{port} failed: timed out\n"
        assert 0.5 <= elapsed < 1.5
        assert list(tmp_path.iterdir()) == []

    def test_a_body_longer_than_the_device_can_write_exits_data_error(self, server, monkeypatch,
                                                                      tmp_path, capsys):
        monkeypatch.setattr(synclink, "BODY_LIMIT", len(AIR_BYTES) - 1)
        code = cli.main(["sync", "--host", server.host, "--port", str(server.port),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: a body of {len(AIR_BYTES)} bytes is longer than the device can "
            f"write ({len(AIR_BYTES) - 1} bytes)\n")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(synclink, "BODY_LIMIT", len(AIR_BYTES))
        assert fetch(server.host, server.port, AIR_REQUEST_PATH, timeout=5.0) == AIR_BYTES

    def test_a_long_body_is_not_read_past_the_limit(self, monkeypatch):
        # 1 MiB against a 100-byte limit: fetch stops reading once the response
        # passes the limit and REQUEST_LIMIT for the header block
        def long_body(conn, stop) -> None:
            conn.sendall(AIR_HEADER)
            for _ in range(1024):
                if stop.is_set():
                    return
                conn.sendall(b"x" * 1024)

        monkeypatch.setattr(synclink, "BODY_LIMIT", 100)
        with one_shot_server(long_body) as (host, port):
            with pytest.raises(ProtocolError, match=f"the response passed "
                               f"{synclink.REQUEST_LIMIT + 100} bytes"):
                fetch(host, port, AIR_REQUEST_PATH, timeout=5.0)
