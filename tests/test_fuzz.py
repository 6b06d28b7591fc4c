"""Seeded fuzz over the input boundaries, in process and time-bounded.

Each case list is drawn from a fixed seed or enumerated, so a failure names
a case that reproduces.  The contract under test: bad input ends in the
documented error (ConfigError, exit 2, 3 or 5, a dropped connection), never
in another exception.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from asid import config, mission
from asid.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_SIMULATION, main
from asid.firmware import AIR_LOG, GROUND_LOG, SdCardImage
from asid.synclink import AIR_REQUEST_PATH, GROUND_REQUEST_PATH, handle_connection, route

GOLDEN = Path(__file__).parent / "golden"

# values a mutated document may put anywhere: wrong types, edges, extremes
JSON_VALUES = (None, True, False, 0, 1, -1, 2, 7, 0.0, -0.0, 0.5, -3.5, 1e-300, 1e308,
               -1e308, 10 ** 400, float("nan"), float("inf"), float("-inf"), "", "x", "40",
               "2021-06-01T10:15:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59",
               "2021-06-01T10:15:00+14:00", [], [1], [90.0, 1e308], ["a"], {}, {"x": 1})


def _mutate_document(rng: random.Random, document: dict) -> dict:
    """Replace, delete or add one to three keys at any depth."""
    document = copy.deepcopy(document)
    for _ in range(rng.randint(1, 3)):
        node = document
        key = rng.choice(sorted(node))
        while isinstance(node[key], dict) and node[key] and rng.random() < 0.7:
            node = node[key]
            key = rng.choice(sorted(node))
        action = rng.random()
        if action < 0.7:
            node[key] = rng.choice(JSON_VALUES)
        elif action < 0.85 and len(node) > 1:
            del node[key]
        else:
            node[key + "_"] = rng.choice(JSON_VALUES)
    return document


# finite values a JSON document may hold at any numeric leaf of the run config
EXTREME_FLOATS = (-1e-14, 1e-300, 1e300, -1e300)


def _float_leaves(node, path=()):
    """The paths of every float in a config document, array items included."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from _float_leaves(value, path + (key,))
        elif isinstance(value, float):
            yield path + (key,)


def _mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """Flip, insert, delete, duplicate or truncate one to four spots."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        if not data:
            data += bytes([rng.randrange(256)])
            continue
        at = rng.randrange(len(data))
        action = rng.random()
        if action < 0.35:
            data[at] = rng.choice(b"0123456789.,-+e:\r\n \x00\xff")
        elif action < 0.55:
            data[at] = rng.randrange(256)
        elif action < 0.7:
            data.insert(at, rng.choice(b"0123456789.,-e\r\n"))
        elif action < 0.85:
            del data[at:at + rng.randint(1, 8)]
        elif action < 0.95:
            end = min(len(data), at + rng.randint(1, 60))
            data[at:at] = data[at:end]
        else:
            del data[at:]
    return bytes(data)


def test_config_documents_give_a_run_config_or_a_config_error():
    rng = random.Random(8001)
    base = config.to_dict(config.default_run_config())
    outcomes = set()
    for case in range(400):
        document = _mutate_document(rng, base)
        try:
            result = config.from_dict(json.loads(json.dumps(document)))
        except config.ConfigError:
            outcomes.add("error")
            continue
        assert isinstance(result, config.RunConfig), (case, document)
        outcomes.add("ok")
    assert outcomes == {"ok", "error"}


def test_extreme_config_values_simulate_or_exit_config_or_simulation_error(tmp_path):
    base = json.loads(json.dumps(config.to_dict(config.default_run_config())))
    path, out = tmp_path / "c.json", tmp_path / "sd"
    codes = set()
    for leaf in _float_leaves(base):
        for value in EXTREME_FLOATS:
            document = copy.deepcopy(base)
            node = document
            for key in leaf[:-1]:
                node = node[key]
            node[leaf[-1]] = value
            path.write_text(json.dumps(document), encoding="utf-8")
            code = main(["simulate", "--config", str(path), "--out", str(out)])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SIMULATION), (leaf, value, code)
            codes.add(code)
    assert codes == {EXIT_OK, EXIT_CONFIG, EXIT_SIMULATION}


def test_mission_files_validate_or_exit_data_error(tmp_path, capsys):
    rng = random.Random(8002)
    plan = mission.generate_sounding_profile(mission.MissionParams(target_alt=20.0))
    text = mission.serialize(plan).encode("utf-8")
    path = tmp_path / "plan.csv"
    codes = set()
    for case in range(150):
        path.write_bytes(_mutate_bytes(rng, text))
        code = main(["mission", "validate", "--file", str(path)])
        assert code in (EXIT_OK, EXIT_DATA), (case, path.read_bytes())
        codes.add(code)
    assert codes == {EXIT_OK, EXIT_DATA}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", [AIR_LOG, GROUND_LOG])
def test_logs_report_or_exit_data_error(name, tmp_path, capsys):
    rng = random.Random(8003 if name == AIR_LOG else 8004)
    golden = {n: (GOLDEN / n).read_bytes() for n in (AIR_LOG, GROUND_LOG)}
    in_dir, out = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    (in_dir / (GROUND_LOG if name == AIR_LOG else AIR_LOG)).write_bytes(
        golden[GROUND_LOG if name == AIR_LOG else AIR_LOG])
    codes = set()
    for case in range(60):
        data = _mutate_bytes(rng, golden[name])
        (in_dir / name).write_bytes(data)
        code = main(["report", "--in", str(in_dir), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_DATA), (case, data)
        codes.add(code)
    assert codes == {EXIT_OK, EXIT_DATA}
    assert "Traceback" not in capsys.readouterr().err


class _ScriptedTransport:
    """A socket stand-in that hands the request out in scripted recv sizes."""

    def __init__(self, request: bytes, sizes: list[int]):
        self._rx, self._sizes = request, sizes
        self.writes: list[bytes] = []

    def recv(self, n: int) -> bytes:
        size = min(n, self._sizes.pop(0) if self._sizes else n)
        chunk, self._rx = self._rx[:size], self._rx[size:]
        return chunk

    def sendall(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def close(self) -> None:
        pass


def test_request_bytes_route_or_drop():
    rng = random.Random(8005)
    requests = [f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii")
                for path in (AIR_REQUEST_PATH, GROUND_REQUEST_PATH)]
    requests.append(b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n")
    card = {AIR_LOG: b"a,\r\n", GROUND_LOG: b"g,\r\n"}
    targets = set()
    for case in range(300):
        request = _mutate_bytes(rng, rng.choice(requests))
        sizes = [rng.randint(1, 64) for _ in range(rng.randint(0, 6))]
        transport = _ScriptedTransport(request, sizes)
        target = handle_connection(transport, SdCardImage(card))
        assert target in (None, AIR_LOG, GROUND_LOG), (case, request)
        if target is not None:
            first_line = request.split(b"\n", 1)[0].decode("latin-1")
            assert target == route(first_line), (case, request)
            assert b"".join(transport.writes[5:]) == card[target], (case, request)
        targets.add(target)
    assert targets == {None, AIR_LOG, GROUND_LOG}
