"""A reference device loop, written from the documented rules, against run_simulation.

The oracle below restates the logger's and the pipeline's docstrings in the
plainest form, without ``readings``, ``true_sample``, ``log_ground``,
``tick``, the pipeline's air loop or ``Trajectory.to_csv``:

- a reading is the column's truth plus one ``rng.gauss(0.0, 1.0)`` draw times
  each channel's sigma, in the order temperature, humidity, pressure; the
  power-on pressure is the first reading's, and every reading after it draws
  from the same rng, the ground rows' first and the polls' next;
- the ground rows are stamped at clocks 0, 3500, ... (a 500 ms buzz, the row,
  a 3000 ms delay); the flight starts after the last, plus the server's
  5000 ms buzz when the first 5 m interval already lies past the threshold;
- a poll at clock c reads the first flown sample whose step count is
  round((c - start) / 1000 / DT), and makes every check of a row;
- it writes a row when the calibrated altitude passes the interval, which
  then grows by the interval step; the device blocks 3000 ms after a row,
  plus 5000 ms when that row starts the server;
- the next poll comes max(blocked, 100 ms) later, and polling stops once the
  server runs or the flight has no sample at the poll's count;
- trajectory.csv's t is the sum of one DT per step from 0, and a LAND stop
  repeats the t of the sample before it;
- a flight error wins over the logger's first error.

Any difference between the two is a fault in one of them, and names its case.
"""

import importlib.util
import io
import random
from pathlib import Path

import pytest

from asid import config, firmware, flightsim, mission
from asid.atmosphere import HYPSO_EXPONENT, HYPSO_SCALE
from asid.firmware import AIR_LOG, GROUND_LOG, PHOTO_MANIFEST, SimulationError, format_row, \
    make_sample
from asid.flightsim import CSV_HEADER, DT
from asid.mission import (
    CONDITION_YAW,
    DELAY,
    DO_DIGICAM_CONTROL,
    LAND,
    TAKEOFF,
    WAYPOINT,
    MissionCommand,
    MissionPlan,
)
from asid.pipeline import run_simulation

ROOT = Path(__file__).resolve().parent.parent


def _fly(cfg, plan):
    """The flown samples as (count, altitude, speed, heading), the summary and the
    flight's error (None when it landed)."""
    flown = []

    def collect(block):
        samples = block.samples
        for i in range(0, len(samples), 2):
            flown.append((block.count + i // 2, samples[i], samples[i + 1], block.heading))

    try:
        return flown, flightsim.run_mission(plan, cfg.airframe, cfg.environment, collect), None
    except Exception as exc:
        return flown, None, exc


def _reading(env, altitude, rng):
    """A sensor reading as the flight model states it: the column's truth plus
    one rng.gauss(0.0, 1.0) draw times each channel's sigma, drawn in the order
    temperature, humidity, pressure, with the humidity held to [0, 100] %; a
    pressure at or below zero ends the run."""
    noise = env.sensor_noise
    temperature = env.surface_temperature - env.temperature_lapse * altitude \
        + rng.gauss(0.0, 1.0) * noise.temperature
    humidity = env.surface_humidity - env.humidity_lapse * altitude \
        + rng.gauss(0.0, 1.0) * noise.humidity
    pressure = env.surface_pressure * 100.0 * (1.0 - altitude / HYPSO_SCALE) ** HYPSO_EXPONENT \
        + rng.gauss(0.0, 1.0) * noise.pressure
    if pressure <= 0.0:
        raise SimulationError(f"sensor noise drove the pressure to {pressure:g} Pa")
    return temperature, min(100.0, max(0.0, humidity)), pressure


def _oracle(cfg, plan):
    """What the documented device loop writes: ("error", type, message) or
    ("card", files, trajectory.csv)."""
    env, fw = cfg.environment, cfg.firmware
    flown, trajectory, flight_error = _fly(cfg, plan)
    rng = random.Random(env.rng_seed)
    files = {}
    logger_error = None
    try:
        state = firmware.setup(fw, _reading(env, 0.0, rng)[2])
        ground = []
        for number in range(fw.ground_samples):
            reading = _reading(env, 0.0, rng)
            ground.append(format_row(make_sample(state, *reading, number * 3500)))
        files[GROUND_LOG] = b"".join(ground)
        interval = 5.0
        start = clock = fw.ground_samples * 3500 + (5000 if interval > fw.server_threshold else 0)
        first_altitude = {}
        for count, altitude, _, _ in flown:
            first_altitude.setdefault(count, altitude)
        air = b""
        while interval <= fw.server_threshold:
            count = round((clock - start) / 1000 / DT)
            if count not in first_altitude:
                break
            row = make_sample(state, *_reading(env, first_altitude[count], rng), clock)
            blocked = 0
            if row.cal_altitude > interval:
                air += format_row(row)
                interval += fw.interval_step
                blocked = 3000 + (5000 if interval > fw.server_threshold else 0)
            clock += max(blocked, 100)
        if air:
            files[AIR_LOG] = air
    except Exception as exc:
        logger_error = exc
    error = flight_error or logger_error
    if error is not None:
        return "error", type(error).__name__, str(error)
    files[PHOTO_MANIFEST] = trajectory.camera_manifest().encode("ascii")
    lines = [CSV_HEADER.decode("ascii")]
    t, previous = 0.0, 0
    for count, altitude, speed, heading in flown:
        if count != previous:
            t += DT
        previous = count
        lines.append("%.2f,%.4f,%.4f,%.1f\n" % (t, altitude, speed, heading))
    return "card", files, "".join(lines).encode("ascii")


def _program(cfg):
    csv = io.BytesIO()
    csv.write(CSV_HEADER)
    try:
        result = run_simulation(cfg, csv)
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)
    return "card", {name: bytes(data) for name, data in result.sd.files.items()}, csv.getvalue()


def _check(cfg):
    plan = mission.generate_sounding_profile(cfg.mission)
    assert _program(cfg) == _oracle(cfg, plan)


def _random_document(rng):
    """A paper_sounding-size run with every logger figure drawn."""
    noise = rng.choice((0.0, 0.05, 0.5))
    temperature = rng.choice((round(rng.uniform(-10.0, 35.0), 2), -0.0, 2.25))
    return {
        "airframe": {"total_mass": round(rng.uniform(1950.0, 2100.0), 2)},
        "environment": {
            "surface_temperature": temperature,
            "surface_pressure": round(rng.uniform(960.0, 1040.0), 3),
            "surface_humidity": rng.choice((round(rng.uniform(0.0, 100.0), 2), 100.0, 50.35)),
            "temperature_lapse": rng.choice((0.0, round(rng.uniform(0.004, 0.0098), 5))),
            "humidity_lapse": round(rng.uniform(0.0, 0.1), 4),
            "wind": round(rng.uniform(0.0, 40.0), 1),
            "rng_seed": rng.randrange(2**31),
            "sensor_noise": {"temperature": noise, "humidity": 4 * noise,
                             "pressure": 10 * noise},
        },
        "firmware": {
            "elevation": rng.choice((0.0, round(rng.uniform(0.0, 300.0), 1))),
            "pressure_correction": round(rng.uniform(0.95, 1.05), 4),
            "interval_step": rng.choice((0.5, 2.5, 5.0, 7.5)),
            "server_threshold": round(rng.uniform(2.0, 60.0), 2),
            "ground_samples": rng.randint(1, 12),
            "rtc_start": rng.choice(("2021-06-01T10:15:00", "2021-12-31T23:59:30")),
        },
        "mission": {
            "target_alt": round(rng.uniform(20.0, 60.0), 2),
            "step": round(rng.uniform(5.0, 25.0), 2),
            "headings": rng.sample((0.0, 90.0, 180.0, 270.0), rng.randint(1, 4)),
            "capture_dwell": round(rng.uniform(0.0, 3.0), 2),
        },
    }


@pytest.mark.parametrize("case", range(30))
def test_random_soundings_match_the_oracle(case):
    _check(config.from_dict(_random_document(random.Random(f"oracle/{case}"))))


def _edge_documents():
    spec = importlib.util.spec_from_file_location("compare_runs",
                                                  ROOT / "scripts" / "compare_runs.py")
    compare_runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_runs)
    return {name: document for name, document in compare_runs.documents().items()
            if not name.startswith(("paper_sounding_", "tall_column_", "surface_watch_"))}


@pytest.mark.parametrize("document", _edge_documents().values(), ids=_edge_documents())
def test_the_compare_runs_edge_documents_match_the_oracle(document):
    _check(config.from_dict(document))


def _plan(*commands):
    return MissionPlan(tuple(MissionCommand(kind, **fields) for kind, fields in commands))


MULTI_LAND = {
    "hop_then_climb": _plan(
        (TAKEOFF, {"alt": 3.0}), (DELAY, {"p1": 1.0}), (LAND, {}),
        (TAKEOFF, {"alt": 8.0}), (CONDITION_YAW, {"p1": 90.0}),
        (DO_DIGICAM_CONTROL, {"alt": 8.0}), (WAYPOINT, {"alt": 22.0}), (DELAY, {"p1": 2.0}),
        (LAND, {})),
    "three_landings": _plan(
        (TAKEOFF, {"alt": 12.0}), (LAND, {}), (TAKEOFF, {"alt": 18.0}),
        (CONDITION_YAW, {"p1": 180.0}), (LAND, {}), (TAKEOFF, {"alt": 25.0}),
        (DELAY, {"p1": 0.5}), (LAND, {})),
}


@pytest.mark.parametrize("threshold", (4.0, 15.0, 100.0))
@pytest.mark.parametrize("name", MULTI_LAND)
def test_multi_land_plans_match_the_oracle(monkeypatch, name, threshold):
    monkeypatch.setattr(mission, "generate_sounding_profile", lambda params: MULTI_LAND[name])
    _check(config.from_dict({
        "environment": {"rng_seed": 3, "sensor_noise": {"pressure": 2.0}},
        "firmware": {"interval_step": 2.0, "server_threshold": threshold}}))
