from datetime import datetime

import pytest

from asid.firmware import (
    AIR_LOG,
    CLOCK_LIMIT_MS,
    GROUND_LOG,
    RTC_LATEST_START,
    FirmwareConfig,
    Phase,
    SdCardImage,
    arduino_print_float,
    format_row,
    make_sample,
    setup,
    tick,
)
from asid.wxindices import LogRow


def _sample(cal_altitude, clock_s=0, temperature=15.0, humidity=50.0):
    return LogRow(
        date="01.06.2021",
        time=f"10:{15 + clock_s // 60:02d}:{clock_s % 60:02d}",
        temperature=temperature,
        humidity=humidity,
        heat_index=13.9,
        pressure_hpa=1008.18,
        cal_altitude=cal_altitude,
    )


def _run_flight(altitudes, cfg=None):
    """Drive the state machine over a cal-altitude sequence (one tick per entry
    after the ground phase completes).  Returns the state, the card and the
    durations of the ("buzzer", ms) effects in order."""
    cfg = cfg or FirmwareConfig(elevation=0.0)
    sd = SdCardImage()
    state = setup(cfg, 101325.0)
    buzzes = []
    clock = 0
    while state.phase is Phase.GROUND:
        effects = tick(state, _sample(0.0, clock // 1000), sd)
        buzzes += [e[1] for e in effects if e[0] == "buzzer"]
        clock += 3500
    for altitude in altitudes:
        effects = tick(state, _sample(altitude, clock // 1000), sd)
        buzzes += [e[1] for e in effects if e[0] == "buzzer"]
        clock += 3000 if any(e[0] == "log" for e in effects) else 100
    return state, sd, buzzes


class TestSetup:
    def test_elevation_zero_identity(self):
        cfg = FirmwareConfig(elevation=0.0, pressure_correction=1.0)
        state = setup(cfg, 101325.0)
        assert state.mslp_hpa == pytest.approx(1013.25, rel=1e-12)

    def test_site_reduction(self):
        cfg = FirmwareConfig(elevation=45.0, pressure_correction=0.995)
        state = setup(cfg, 101000.0)
        assert state.mslp_hpa == pytest.approx(1010.328, abs=1e-3)

    def test_initial_state(self):
        state = setup(FirmwareConfig(), 101325.0)
        assert state.phase is Phase.GROUND
        assert state.interval == 5.0


class TestGroundPhase:
    def test_six_rows_then_air(self):
        cfg = FirmwareConfig(elevation=0.0)
        sd = SdCardImage()
        state = setup(cfg, 101325.0)
        for i in range(6):
            assert state.phase is Phase.GROUND
            effects = tick(state, _sample(0.0), sd)
            kinds = [e[0] for e in effects]
            assert kinds == ["buzzer", "log", "wait"]
            assert ("wait", 3000) in effects
        assert state.phase is Phase.AIR
        assert sd.read(GROUND_LOG).count(b"\r\n") == 6

    def test_write_failure_leaves_state_unchanged(self):
        cfg = FirmwareConfig(elevation=0.0)
        sd = SdCardImage(write_protected=True)
        state = setup(cfg, 101325.0)
        effects = tick(state, _sample(0.0), sd)
        assert ("write_failure", GROUND_LOG) in effects
        assert state.ground_count == 0
        assert state.phase is Phase.GROUND
        assert not sd.exists(GROUND_LOG)


class TestAirPhase:
    def test_monotone_climb_produces_seven_rows(self):
        altitudes = [round(0.5 * i, 2) for i in range(1, 81)]  # 0.5 .. 40.0 m
        state, sd, _ = _run_flight(altitudes)
        assert sd.read(AIR_LOG).count(b"\r\n") == 7
        assert state.interval == 40.0
        assert state.phase is Phase.SERVING
        # thresholds 5,10,...,35: logged values strictly increasing and above them
        values = [float(line.split(b",")[6]) for line in
                  sd.read(AIR_LOG).split(b"\r\n") if line]
        assert all(a < b for a, b in zip(values, values[1:]))
        for threshold, value in zip((5, 10, 15, 20, 25, 30, 35), values):
            assert value > threshold

    def test_low_flight_never_logs_or_serves(self):
        altitudes = [1.0, 2.0, 3.9, 3.9, 2.0, 0.5] * 10
        state, sd, _ = _run_flight(altitudes)
        assert not sd.exists(AIR_LOG)
        assert state.phase is Phase.AIR

    def test_buzzer_log_six_short_one_long(self):
        altitudes = [float(i) for i in range(1, 41)]
        _, _, buzzes = _run_flight(altitudes)
        assert buzzes == [500] * 6 + [5000]

    def test_server_starts_once_past_threshold(self):
        altitudes = [float(i) for i in range(1, 41)] + [40.0] * 20
        state, _, buzzes = _run_flight(altitudes)
        assert state.phase is Phase.SERVING
        assert buzzes == [500] * 6 + [5000]

    def test_logging_stops_while_serving(self):
        altitudes = [float(i) for i in range(1, 41)] + [45.0, 50.0, 60.0]
        state, sd, _ = _run_flight(altitudes)
        assert sd.read(AIR_LOG).count(b"\r\n") == 7  # nothing after the server starts


class TestRowFormat:
    def test_reference_row(self):
        row = LogRow("01.06.2021", "10:15:30", 25.3, 45.2, 25.1, 1005.25, 41.67)
        assert format_row(row) == b"01.06.2021,10:15:30,25.3,45.2,25.1,1005.25,41.67,\r\n"

    def test_every_row_ends_comma_crlf(self):
        altitudes = [float(i) for i in range(1, 41)]
        _, sd, _ = _run_flight(altitudes)
        for blob in (sd.read(GROUND_LOG), sd.read(AIR_LOG)):
            for line in blob.split(b"\r\n"):
                if line:
                    assert line.endswith(b",")

    def test_rounding_half_away_from_zero(self):
        assert arduino_print_float(25.35, 1) == "25.4"
        assert arduino_print_float(25.349, 1) == "25.3"
        assert arduino_print_float(-1.25, 1) == "-1.3"
        assert arduino_print_float(0.05, 1) == "0.1"

    def test_out_of_range_prints_like_arduino(self):
        assert arduino_print_float(float("nan"), 1) == "nan"
        assert arduino_print_float(float("inf"), 2) == "inf"
        assert arduino_print_float(float("-inf"), 2) == "inf"
        assert arduino_print_float(1e308, 1) == "ovf"
        assert arduino_print_float(-4294967041.0, 2) == "ovf"
        assert arduino_print_float(4294967040.0, 2) == "4294967040.00"

    def test_fixed_decimals_keep_trailing_zeros(self):
        assert arduino_print_float(1013.2, 2) == "1013.20"
        assert arduino_print_float(5.0, 2) == "5.00"
        assert arduino_print_float(15.0, 1) == "15.0"

    def test_row_length_deterministic(self):
        a = format_row(_sample(41.67, temperature=25.3, humidity=45.2))
        b = format_row(_sample(39.76, temperature=14.8, humidity=48.1))
        assert len(a) == len(b)


class TestMakeSample:
    def test_reproduces_logger_arithmetic(self):
        cfg = FirmwareConfig(elevation=0.0, pressure_correction=0.995)
        state = setup(cfg, 101325.0)
        sample = make_sample(state, 15.0, 50.0, 101325.0, 0)
        assert sample.pressure_hpa == pytest.approx(101325.0 * 0.995 / 100.0, rel=1e-12)
        assert sample.cal_altitude == pytest.approx(0.0, abs=1e-9)
        # 5 hPa of differential reads 41.67 m on the 0.12 hPa/m altimeter
        sample = make_sample(state, 15.0, 50.0, (state.mslp_hpa - 5.0) * 100.0 / 0.995, 0)
        assert sample.cal_altitude == pytest.approx(5.0 / 0.12, rel=1e-9)

    def test_clock_drives_timestamp(self):
        cfg = FirmwareConfig(elevation=0.0, rtc_start=datetime(2021, 6, 1, 10, 15, 0))
        state = setup(cfg, 101325.0)
        sample = make_sample(state, 15.0, 50.0, 101325.0, 83_000)
        assert sample.date == "01.06.2021"
        assert sample.time == "10:16:23"

    def test_clock_stops_at_its_limit(self):
        # the latest rtc_start plus the longest clock is the last second of the calendar
        state = setup(FirmwareConfig(elevation=0.0, rtc_start=RTC_LATEST_START), 101325.0)
        sample = make_sample(state, 15.0, 50.0, 101325.0, CLOCK_LIMIT_MS)
        assert (sample.date, sample.time) == ("31.12.9999", "23:59:59")
        with pytest.raises(RuntimeError):
            make_sample(state, 15.0, 50.0, 101325.0, CLOCK_LIMIT_MS + 1)


class TestSdCardImage:
    def test_append_read_remove(self):
        sd = SdCardImage()
        assert sd.append("a.csv", b"one,")
        assert sd.append("a.csv", b"two,")
        assert sd.read("a.csv") == b"one,two,"
        sd.remove("a.csv")
        assert not sd.exists("a.csv")
        assert sd.read("a.csv") is None
        sd.remove("a.csv")  # removing a missing file is a no-op

    def test_dir_round_trip(self, tmp_path):
        sd = SdCardImage({"x.csv": b"1,\r\n", "photos.json": b"[]"})
        sd.to_dir(tmp_path)
        loaded = SdCardImage.from_dir(tmp_path)
        assert loaded.files == sd.files


def test_config_validation():
    with pytest.raises(ValueError):
        FirmwareConfig(interval_step=0.0)
    with pytest.raises(ValueError):
        FirmwareConfig(ground_samples=0)
    with pytest.raises(ValueError):
        FirmwareConfig(ground_delay_ms=-1)
    with pytest.raises(ValueError):
        FirmwareConfig(pressure_correction=0.5)
    with pytest.raises(ValueError):
        FirmwareConfig(elevation=44330.0)
    with pytest.raises(ValueError):
        FirmwareConfig(rtc_start=datetime(9999, 12, 31, 23, 59, 58))


def test_sample_validation():
    state = setup(FirmwareConfig(elevation=0.0), 101325.0)
    with pytest.raises(ValueError):
        make_sample(state, 25.3, 101.0, 100525.0, 0)
    with pytest.raises(ValueError):
        make_sample(state, 25.3, 45.2, 0.0, 0)
