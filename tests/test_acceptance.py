"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with the measured values (run with -s to see them all).
"""

import json
import math
import random
import string
import threading
import time
from pathlib import Path

import pytest

from asid import config, groundstation, synclink, wxindices
from asid.airframe import (
    reference_config,
    required_static_thrust,
    service_ceiling,
    thrust_to_weight,
    wind_drift,
)
from asid.atmosphere import density_ratio, isa_density, isa_pressure
from asid.firmware import AIR_LOG, GROUND_LOG, SdCardImage
from asid.flightsim import Environment, SimState, step
from asid.pipeline import run_simulation
from asid.synclink import RouteTarget, fetch, handle_connection, route
from asid.wxindices import (
    LogRow,
    SoundingProfile,
    SurfaceSummary,
    dew_point,
    discomfort_index,
    freezing_level,
    heat_index,
)

GOLDEN = Path(__file__).parent / "golden"
FT = 0.3048


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _report(number, message):
    print(f"criterion {number:02d}: PASS — {message}")


def test_criterion_01_density_claim():
    isa_density(6096.0)  # warm-up
    rho, elapsed = _timed(isa_density, 6096.0)
    assert abs(rho - 0.660) / 0.660 < 0.02
    assert elapsed < 1e-3
    _report(1, f"isa_density(6096 m) = {rho:.4f} kg/m^3, "
               f"{abs(rho - 0.660) / 0.660 * 100:.2f}% from 0.660, {elapsed * 1e6:.1f} us")


def test_criterion_02_sizing_claim():
    required_static_thrust(3000.0, 6096.0)  # warm-up
    total, elapsed = _timed(required_static_thrust, 3000.0, 6096.0)
    per_motor = total / 4.0
    assert abs(total - 5586.0) / 5586.0 < 0.015
    assert abs(per_motor - 1400.0) / 1400.0 < 0.015
    assert elapsed < 1e-3
    _report(2, f"required static thrust {total:.0f} g total / {per_motor:.0f} g per motor "
               f"({abs(total - 5586.0) / 5586.0 * 100:.2f}% from 5586 g), "
               f"{elapsed * 1e6:.1f} us")


def test_criterion_03_drift_claim():
    wind_drift(118.0, 75.0, 180.0)  # warm-up
    drift, elapsed = _timed(wind_drift, 118.0, 75.0, 180.0)
    assert drift == pytest.approx(2150.0, rel=1e-12)
    assert abs(drift - 2000.0) / 2000.0 < 0.10
    assert elapsed < 1e-3
    _report(3, f"drift(118 km/h wind, 75 km/h limit, 180 s) = {drift:.0f} m "
               f"({abs(drift - 2000.0) / 2000.0 * 100:.1f}% from 2 km), {elapsed * 1e6:.1f} us")


def test_criterion_04_ceiling_claim():
    cfg = reference_config()
    assert thrust_to_weight(cfg) == 2.0
    ceiling = service_ceiling(cfg)
    design = 6096.0
    assert abs(ceiling - design) / design < 0.15
    tw_at_ceiling = thrust_to_weight(cfg) * density_ratio(ceiling)
    assert tw_at_ceiling == pytest.approx(1.0, abs=1e-6)
    _report(4, f"service ceiling {ceiling:.0f} m ({ceiling / FT:.0f} ft, "
               f"{abs(ceiling - design) / design * 100:.1f}% from 20,000 ft), "
               f"T/W there = {tw_at_ceiling:.9f}")


def test_criterion_05_climb_claims():
    cfg = reference_config()
    near_ceiling = 0.75 * service_ceiling(cfg)
    state = SimState(battery_remaining=1e9)
    start = time.perf_counter()
    peak_low = 0.0
    v_near = None
    t_design = None
    while state.altitude < 6096.0:
        step(state, cfg, 1.0, 0.01, density_ratio(state.altitude))
        if state.altitude < 300.0:
            peak_low = max(peak_low, state.vertical_speed)
        if v_near is None and state.altitude >= near_ceiling:
            v_near = state.vertical_speed
    t_design = state.t
    elapsed = time.perf_counter() - start
    assert abs(peak_low / FT - 120.0) / 120.0 < 0.15
    assert abs(v_near / FT - 55.0) / 55.0 < 0.20
    assert elapsed < 5.0
    _report(5, f"terminal climb {peak_low / FT:.1f} ft/s at sea level, "
               f"{v_near / FT:.1f} ft/s near the ceiling ({near_ceiling:.0f} m); "
               f"time to 20,000 ft = {t_design / 60.0:.1f} min (reported only); "
               f"sim ran {elapsed:.2f} s")


def test_criterion_06_firmware_trace():
    start = time.perf_counter()
    result = run_simulation(config.default_run_config())
    elapsed = time.perf_counter() - start
    assert result.ground_rows == 6
    assert result.air_rows == 7
    ground = result.sd.read(GROUND_LOG)
    air = result.sd.read(AIR_LOG)
    assert ground == (GOLDEN / "ground.csv").read_bytes()
    assert air == (GOLDEN / "air.csv").read_bytes()
    for blob in (ground, air):
        for line in blob.split(b"\r\n"):
            if line:
                assert line.endswith(b",")
    thresholds = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)
    altitudes = [float(line.split(b",")[6]) for line in air.split(b"\r\n") if line]
    for threshold, altitude in zip(thresholds, altitudes):
        assert altitude > threshold
    assert elapsed < 5.0
    _report(6, f"golden flight: 6 ground + 7 air rows at thresholds 5-35 m, "
               f"byte-identical to goldens, rows end ',\\r\\n'; ran {elapsed:.2f} s")


def test_criterion_07_wire_fidelity():
    start = time.perf_counter()
    air_bytes = (GOLDEN / "air.csv").read_bytes() * 11  # > 2 full chunks
    ground_bytes = (GOLDEN / "ground.csv").read_bytes()
    sd = SdCardImage({AIR_LOG: air_bytes, GROUND_LOG: ground_bytes})

    # counting transport: header lines then 1760-byte chunks
    class CountingConn:
        def __init__(self, request):
            self._rx = request
            self.writes = []

        def recv(self, n):
            chunk, self._rx = self._rx[:n], self._rx[n:]
            return chunk

        def sendall(self, data):
            self.writes.append(bytes(data))

        def close(self):
            pass

    conn = CountingConn(b"GET /download/air.csv HTTP/1.1\r\n\r\n")
    handle_connection(conn, SdCardImage({AIR_LOG: air_bytes, GROUND_LOG: ground_bytes}))
    assert conn.writes[0] == b"HTTP/1.1 200 OK\r\n"
    assert conn.writes[1] == b"Content-Type: text/csv\r\n"
    assert conn.writes[2] == b'Content-Disposition: attachment; filename="air.csv"\r\n'
    assert conn.writes[3] == b"Connection: close\r\n"
    assert conn.writes[4] == b"\r\n"
    body_sizes = [len(w) for w in conn.writes[5:]]
    assert all(size == 1760 for size in body_sizes[:-1])
    assert 0 < body_sizes[-1] <= 1760
    assert b"".join(conn.writes[5:]) == air_bytes

    # loopback TCP: air then ground byte-identical, reordering fails
    server = synclink.LogServer(sd, port=0)
    stop = threading.Event()
    thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
    thread.start()
    try:
        assert fetch(server.host, server.port, RouteTarget.AIR, 5.0) == air_bytes
        assert fetch(server.host, server.port, RouteTarget.GROUND, 5.0) == ground_bytes
        # ground served -> both files deleted -> air now fails
        with pytest.raises(synclink.ProtocolError):
            fetch(server.host, server.port, RouteTarget.AIR, 5.0)
    finally:
        stop.set()
        thread.join(timeout=2.0)
        server.close()
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(7, f"loopback transfer byte-identical, header block matches the 4-line "
               f"template, {len(body_sizes)} chunks at 1760 B, ground-before-air "
               f"breaks air; ran {elapsed:.2f} s")


def test_criterion_08_routing_quirk():
    plain = "GET /air.csv HTTP/1.1"
    nested = "GET /download/air.csv HTTP/1.1"
    assert plain.find("air") == 5 and not plain.find("air") > 5
    assert nested.find("air") == 14 and nested.find("air") > 5
    assert route(plain) is RouteTarget.GROUND
    assert route(nested) is RouteTarget.AIR
    _report(8, 'route("GET /air.csv ...") = GROUND (index 5), '
               'route("GET /download/air.csv ...") = AIR (index 14)')


def test_criterion_09_index_oracles():
    start = time.perf_counter()
    for t in (-10.0, 0.0, 12.3, 35.0):
        assert dew_point(t, 100.0) == pytest.approx(t, abs=1e-12)
    assert dew_point(20.0, 50.0) == pytest.approx(9.26, abs=0.05)

    def rothfusz(t_f, rh):
        simple = 0.5 * (t_f + 61.0 + (t_f - 68.0) * 1.2 + rh * 0.094)
        if simple <= 79.0:
            return simple
        hi = (-42.379 + 2.04901523 * t_f + 10.14333127 * rh - 0.22475541 * t_f * rh
              - 6.83783e-3 * t_f ** 2 - 5.481717e-2 * rh ** 2
              + 1.22874e-3 * t_f ** 2 * rh + 8.5282e-4 * t_f * rh ** 2
              - 1.99e-6 * t_f ** 2 * rh ** 2)
        if rh < 13.0 and 80.0 <= t_f <= 112.0:
            hi -= ((13.0 - rh) / 4.0) * math.sqrt((17.0 - abs(t_f - 95.0)) / 17.0)
        elif rh > 85.0 and 80.0 <= t_f <= 87.0:
            hi += ((rh - 85.0) / 10.0) * ((87.0 - t_f) / 5.0)
        return hi

    worst = 0.0
    for i in range(20):
        for j in range(20):
            t_c = 10.0 + i * 30.0 / 19.0
            rh = 5.0 + j * 95.0 / 19.0
            ours_f = heat_index(t_c, rh) * 1.8 + 32.0
            worst = max(worst, abs(ours_f - rothfusz(t_c * 1.8 + 32.0, rh)))
    assert worst < 0.1

    for rh in (0.0, 33.0, 66.0, 100.0):
        assert discomfort_index(14.5, rh) == pytest.approx(14.5, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(9, f"dew point saturation exact, Magnus(20,50) = "
               f"{dew_point(20.0, 50.0):.3f} C, heat index within {worst:.4f} F of the "
               f"independent regression on a 20x20 grid, discomfort pivot exact; "
               f"ran {elapsed:.2f} s")


def test_criterion_10_freezing_level():
    start = time.perf_counter()
    env = Environment()  # 15 C surface, 0.0065 C/m: the golden environment
    levels = tuple(
        LogRow(date="01.06.2021", time="10:16:00",
               temperature=env.surface_temperature - env.temperature_lapse * h,
               humidity=50.0, heat_index=13.9, pressure_hpa=1000.0, cal_altitude=h)
        for h in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0))
    profile = SoundingProfile(levels=levels,
                              surface=SurfaceSummary(15.0, 50.0, 1013.25),
                              collection_time=__import__("datetime").datetime(2021, 6, 1))
    result = freezing_level(profile)
    elapsed = time.perf_counter() - start
    analytic = env.surface_temperature / env.temperature_lapse
    assert result.status == "extrapolated"
    assert result.altitude_m == pytest.approx(2308.0, abs=1.0)
    assert result.altitude_m == pytest.approx(analytic, abs=1e-6)
    assert elapsed < 1.0
    _report(10, f"extrapolated freezing level {result.altitude_m:.2f} m "
                f"(analytic {analytic:.2f} m); ran {elapsed * 1000:.1f} ms")


def test_criterion_11_pipeline_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        result = run_simulation(config.default_run_config())
        out = tmp_path / run
        groundstation.write_report(result.sd.read(AIR_LOG), result.sd.read(GROUND_LOG), out)
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                 if p.is_file()}
        files["sd/ground.csv"] = result.sd.read(GROUND_LOG)
        files["sd/air.csv"] = result.sd.read(AIR_LOG)
        files["sd/photos.json"] = result.sd.read("photos.json")
        outputs.append(files)
    assert outputs[0] == outputs[1]
    _report(11, f"two seeded pipeline runs byte-identical across "
                f"{len(outputs[0])} output files (report.json, SVGs, logs)")


def test_criterion_12_property_suites():
    # compact re-run of the headline module properties; the detailed versions
    # live in the per-module test files and share the same 60 s budget
    start = time.perf_counter()

    grid = [i * 11000.0 / 99 for i in range(100)]
    pressures = [isa_pressure(h) for h in grid]
    densities = [isa_density(h) for h in grid]
    assert all(a > b for a, b in zip(pressures, pressures[1:]))
    assert all(a > b for a, b in zip(densities, densities[1:]))

    from asid.airframe import thrust_at_altitude
    for h in (0.0, 2500.0, 6096.0):
        assert required_static_thrust(thrust_at_altitude(1500.0, h), h) == \
            pytest.approx(1500.0, rel=1e-9)

    from asid.mission import MissionParams, generate_sounding_profile, parse, serialize, \
        validate
    plan = generate_sounding_profile(MissionParams(target_alt=35.0))
    assert validate(plan, ceiling=6096.0) == []
    assert parse(serialize(plan)) == plan

    rows = [wxindices.LogRow("01.06.2021", "10:15:00", 15.0 + i * 0.1, 50.0 - i,
                             13.9, 1008.0 - i, float(i)) for i in range(6)]
    rng = random.Random(3)
    reference = wxindices.surface_summary(rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert wxindices.surface_summary(shuffled) == reference

    alphabet = string.printable
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 100)))
        assert route(text) in (RouteTarget.AIR, RouteTarget.GROUND)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(12, f"monotonicity grids, round-trips, permutation invariance and route "
                f"fuzzing re-checked in {elapsed:.2f} s (full suite budget 60 s)")
