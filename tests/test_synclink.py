import random
import socket
import string
import struct
import threading

import pytest

from asid.firmware import AIR_LOG, GROUND_LOG, SdCardImage
from asid.synclink import (
    CHUNK_SIZE,
    CONNECTION_TIMEOUT_S,
    LogServer,
    ProtocolError,
    RouteTarget,
    TransportError,
    fetch,
    handle_connection,
    route,
    serve_file,
    sync,
)

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


class TestRoute:
    def test_download_path_routes_air(self):
        line = "GET /download/air.csv HTTP/1.1"
        assert line.find("air") == 14  # literal index check
        assert route(line) is RouteTarget.AIR

    def test_no_air_routes_ground(self):
        assert route("GET /ground HTTP/1.1") is RouteTarget.GROUND

    def test_air_at_index_five_routes_ground(self):
        # the strict > 5 comparison sends a plain /air.csv to the ground handler
        line = "GET /air.csv HTTP/1.1"
        assert line.find("air") == 5
        assert route(line) is RouteTarget.GROUND

    def test_fuzz_never_raises(self):
        rng = random.Random(1234)
        alphabet = string.printable
        for _ in range(1000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
            assert route(text) in (RouteTarget.AIR, RouteTarget.GROUND)


class TestServeFile:
    def test_header_block_byte_exact(self):
        response = serve_file(AIR_LOG, _sd())
        writes = response.wire_writes()
        assert writes[0] == b"HTTP/1.1 200 OK\r\n"
        assert writes[1] == b"Content-Type: text/csv\r\n"
        assert writes[2] == b'Content-Disposition: attachment; filename="air.csv"\r\n'
        assert writes[3] == b"Connection: close\r\n"
        assert writes[4] == b"\r\n"

    def test_body_chunked_at_1760(self):
        sd = SdCardImage({AIR_LOG: b"x" * 3521, GROUND_LOG: GROUND_BYTES})
        response = serve_file(AIR_LOG, sd)
        body_writes = response.wire_writes()[5:]
        assert [len(w) for w in body_writes] == [1760, 1760, 1]

    def test_chunks_concatenate_to_file(self):
        for size in (0, 1, 1759, 1760, 1761, 3520, 3521, 5000):
            sd = SdCardImage({AIR_LOG: bytes(range(256)) * (size // 256 + 1)})
            sd.files[AIR_LOG] = sd.files[AIR_LOG][:size]
            original = sd.files[AIR_LOG]
            response = serve_file(AIR_LOG, sd)
            assert b"".join(response.wire_writes()[5:]) == original
            assert all(len(w) == CHUNK_SIZE for w in response.wire_writes()[5:-1])

    def test_serving_air_keeps_files(self):
        sd = _sd()
        serve_file(AIR_LOG, sd)
        assert sd.exists(AIR_LOG)
        assert sd.exists(GROUND_LOG)

    def test_missing_file_returns_none(self):
        assert serve_file(AIR_LOG, SdCardImage()) is None


class TestHandleConnection:
    def test_counting_transport_sees_header_then_chunks(self):
        sd = SdCardImage({AIR_LOG: b"a" * 3521, GROUND_LOG: GROUND_BYTES})
        conn = ScriptedConn(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
        target = handle_connection(conn, sd)
        assert target is RouteTarget.AIR
        assert conn.closed
        sizes = [len(w) for w in conn.writes[5:]]
        assert sizes == [1760, 1760, 1]
        assert b"".join(conn.writes[5:]) == b"a" * 3521

    def test_serving_ground_removes_both_files(self):
        sd = _sd()
        conn = ScriptedConn(b"GET /ground.csv HTTP/1.1\r\n\r\n")
        served_after = []
        target = handle_connection(conn, sd, lambda: served_after.append(len(conn.writes)))
        assert target is RouteTarget.GROUND
        assert not sd.exists(AIR_LOG)
        assert not sd.exists(GROUND_LOG)
        assert served_after == [len(conn.writes)]  # once, after the last chunk

    def test_failed_send_keeps_both_logs(self):
        sd = _sd()
        conn = ScriptedConn(b"GET /ground.csv HTTP/1.1\r\n\r\n", reset_after=5)
        served = []
        with pytest.raises(ConnectionResetError):
            handle_connection(conn, sd, lambda: served.append(True))
        assert conn.closed
        assert sd.read(AIR_LOG) == AIR_BYTES
        assert sd.read(GROUND_LOG) == GROUND_BYTES
        assert served == []

    def test_missing_file_writes_nothing(self):
        conn = ScriptedConn(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
        target = handle_connection(conn, SdCardImage())
        assert target is RouteTarget.AIR
        assert conn.writes == []
        assert conn.closed

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
        air = fetch(server.host, server.port, RouteTarget.AIR, timeout=5.0)
        ground = fetch(server.host, server.port, RouteTarget.GROUND, timeout=5.0)
        assert air == AIR_BYTES
        assert ground == GROUND_BYTES

    def test_ground_first_breaks_air(self, server):
        ground = fetch(server.host, server.port, RouteTarget.GROUND, timeout=5.0)
        assert ground == GROUND_BYTES
        with pytest.raises(ProtocolError):
            fetch(server.host, server.port, RouteTarget.AIR, timeout=5.0)

    def test_sync_persists_both(self, server, tmp_path):
        result = sync(server.host, server.port, tmp_path, timeout=5.0)
        assert result.air == AIR_BYTES
        assert result.ground == GROUND_BYTES
        assert (tmp_path / AIR_LOG).read_bytes() == AIR_BYTES
        assert (tmp_path / GROUND_LOG).read_bytes() == GROUND_BYTES

    def test_sync_succeeds_exactly_once(self, server, tmp_path):
        sync(server.host, server.port, tmp_path, timeout=5.0)
        with pytest.raises(ProtocolError):
            sync(server.host, server.port, tmp_path / "second", timeout=5.0)
        assert not (tmp_path / "second").exists()  # nothing written on failure

    def test_client_reset_mid_response_keeps_serving(self, server):
        server.sd.files[AIR_LOG] = b"x" * (4 << 20)
        for _ in range(3):
            conn = socket.create_connection((server.host, server.port), timeout=5.0)
            conn.sendall(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
            conn.recv(1024)
            # abort with a TCP reset while the server is still writing the body
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
        assert fetch(server.host, server.port, RouteTarget.GROUND, timeout=5.0) == GROUND_BYTES

    def test_idle_client_does_not_block_the_next(self, server):
        with socket.create_connection((server.host, server.port)):  # sends nothing
            air = fetch(server.host, server.port, RouteTarget.AIR,
                        timeout=CONNECTION_TIMEOUT_S + 3.0)
        assert air == AIR_BYTES

    def test_empty_air_file_yields_zero_byte_body(self):
        sd = SdCardImage({AIR_LOG: b"", GROUND_LOG: GROUND_BYTES})
        srv = LogServer(sd, port=0)
        stop = threading.Event()
        thread = threading.Thread(target=srv.serve_forever, args=(stop,), daemon=True)
        thread.start()
        try:
            body = fetch(srv.host, srv.port, RouteTarget.AIR, timeout=5.0)
            assert body == b""
        finally:
            stop.set()
            thread.join(timeout=2.0)
            srv.close()


def test_fetch_refused_connection_is_transport_error():
    with pytest.raises(TransportError):
        fetch("127.0.0.1", 1, RouteTarget.AIR, timeout=0.5)
