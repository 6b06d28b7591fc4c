import math
import random
from datetime import datetime, timedelta, timezone
from decimal import ROUND_HALF_UP, Decimal

import pytest

from asid import firmware
from asid.atmosphere import LINEAR_ALTIMETER_SLOPE
from asid.firmware import (
    AIR_LOG,
    ARDUINO_FLOAT_LIMIT,
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
from asid.flightsim import RawReading
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


def _reading(state, cal_altitude, temperature=15.0, humidity=50.0):
    """A raw reading the logger calibrates to ``cal_altitude``, or to a hair below
    it, so that a reading at a threshold does not pass it."""
    corrected_hpa = state.mslp_hpa - LINEAR_ALTIMETER_SLOPE * cal_altitude
    pressure = corrected_hpa * 100.0 / state.cfg.pressure_correction
    while make_sample(state, temperature, humidity, pressure, 0).cal_altitude > cal_altitude:
        pressure = math.nextafter(pressure, math.inf)
    return RawReading(temperature, humidity, pressure)


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
        effects = tick(state, _reading(state, 0.0), clock, sd)
        buzzes += [e[1] for e in effects if e[0] == "buzzer"]
        clock += 3500
    for altitude in altitudes:
        effects = tick(state, _reading(state, altitude), clock, sd)
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
        state = setup(FirmwareConfig(elevation=45.0), 101325.0)
        assert state.phase is Phase.GROUND
        assert state.interval == 5.0


class TestGroundPhase:
    def test_six_rows_then_air(self):
        cfg = FirmwareConfig(elevation=0.0)
        sd = SdCardImage()
        state = setup(cfg, 101325.0)
        for i in range(6):
            assert state.phase is Phase.GROUND
            effects = tick(state, _reading(state, 0.0), 0, sd)
            kinds = [e[0] for e in effects]
            assert kinds == ["buzzer", "log", "wait"]
            assert ("wait", 3000) in effects
        assert state.phase is Phase.AIR
        assert sd.read(GROUND_LOG).count(b"\r\n") == 6

    def test_write_failure_leaves_state_unchanged(self):
        cfg = FirmwareConfig(elevation=0.0)
        sd = SdCardImage(write_protected=True)
        state = setup(cfg, 101325.0)
        effects = tick(state, _reading(state, 0.0), 0, sd)
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

    def test_unwritten_poll_still_checks_its_reading(self, monkeypatch):
        state, sd, _ = _run_flight([])
        assert state.phase is Phase.AIR
        calls = []
        monkeypatch.setattr(firmware, "format_row", lambda row: calls.append("format_row"))
        monkeypatch.setattr(firmware, "make_sample", lambda *args: calls.append("make_sample"))
        low = _reading(state, 1.0)  # below the 5 m interval: no row is written
        assert tick(state, low, 20_000, sd) == []
        with pytest.raises(RuntimeError):
            tick(state, low, CLOCK_LIMIT_MS + 1, sd)
        with pytest.raises(ValueError):
            tick(state, RawReading(15.0, 50.0, 0.0), 20_000, sd)
        with pytest.raises(ValueError):
            tick(state, RawReading(15.0, 101.0, low.pressure), 20_000, sd)
        assert calls == []
        assert not sd.exists(AIR_LOG)


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
        # ties of repr that "%.*f" rounds the other way
        assert arduino_print_float(0.125, 2) == "0.13"   # exact binary tie, "%.2f" rounds to even
        assert arduino_print_float(-0.125, 2) == "-0.13"
        assert arduino_print_float(2.675, 2) == "2.68"   # binary value lies below the tie

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


def _reference_print(value, decimals):
    """The device's printFloat: repr rounded half up, or nan/inf/ovf."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    if abs(value) > ARDUINO_FLOAT_LIMIT:
        return "ovf"
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def _printer_cases():
    rng = random.Random(20210601)
    values = [rng.uniform(-lim, lim) for lim in (1.0, 100.0, 1e4, 1e7, ARDUINO_FLOAT_LIMIT)
              for _ in range(1500)]
    values += [k / 100 for k in range(-3000, 3000)] + [k / 1000 for k in range(-3000, 3000)]
    # exact ties, at one, two and three decimals
    values += [k / 20 + 0.025 for k in range(-1000, 1000)]
    values += [k / 200 + 0.0025 for k in range(-1000, 1000)]
    values += [k / 10 + 0.05 for k in range(-1000, 1000)]
    values += [k / 100 + 0.005 for k in range(-1000, 1000)]
    values += [0.0, -0.0, -0.04, -0.049, -0.004, -0.0049, 0.05, -0.05, 0.005, -0.005,
               5e-324, -5e-324, 1e-5, -1e-5, 2.5e-5, -7.5e-7, 5e-05, 1.5e-10, 1e16,
               ARDUINO_FLOAT_LIMIT, -ARDUINO_FLOAT_LIMIT,
               math.nextafter(ARDUINO_FLOAT_LIMIT, math.inf),
               math.nextafter(-ARDUINO_FLOAT_LIMIT, -math.inf),
               float("nan"), float("inf"), float("-inf")]
    return values


class TestFastPrinter:
    """The "%.*f" printer and the one-string row against the Decimal reference."""

    @pytest.mark.parametrize("decimals", [1, 2])
    def test_matches_the_decimal_reference(self, decimals):
        mismatches = [(value, arduino_print_float(value, decimals))
                      for value in _printer_cases()
                      if arduino_print_float(value, decimals) != _reference_print(value, decimals)]
        assert mismatches == []

    def test_format_row_matches_the_reference_fields(self):
        rng = random.Random(7)
        cases = _printer_cases()
        for _ in range(3000):
            row = LogRow("01.06.2021", "10:15:30", *(rng.choice(cases) for _ in range(5)))
            fields = [row.date, row.time] + [
                _reference_print(value, decimals) for value, decimals in (
                    (row.temperature, 1), (row.humidity, 1), (row.heat_index, 1),
                    (row.pressure_hpa, 2), (row.cal_altitude, 2))]
            assert format_row(row) == ("".join(f + "," for f in fields) + "\r\n").encode()


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

    @pytest.mark.parametrize("rtc_start", [
        datetime(2021, 6, 1, 23, 59, 59),                       # across midnight
        datetime(2024, 2, 28, 23, 30, 0),                       # into a leap day
        datetime(2021, 12, 31, 22, 0, 0),                       # into a new year
        datetime(2021, 6, 1, 10, 15, tzinfo=timezone(timedelta(hours=3))),
        datetime(2021, 6, 1, 23, 59, 59, 999_500),              # microseconds
        datetime(999, 12, 31, 12, 0, 0),                        # a year before 1000
        RTC_LATEST_START,
    ], ids=["midnight", "leap_day", "new_year", "tz_aware", "microseconds", "year_999",
            "latest_start"])
    def test_stamps_match_strftime(self, rtc_start):
        state = setup(FirmwareConfig(elevation=0.0, rtc_start=rtc_start), 101325.0)
        rng = random.Random(3)
        midnight = datetime.combine(rtc_start.date() + timedelta(days=1), datetime.min.time())
        to_midnight = (midnight - rtc_start.replace(tzinfo=None)) // timedelta(milliseconds=1)
        clocks = [rng.randrange(CLOCK_LIMIT_MS + 1) for _ in range(300)]
        clocks += [0, 1, 999, 1000, CLOCK_LIMIT_MS - 1, CLOCK_LIMIT_MS]
        clocks += [ms for ms in range(to_midnight - 2, to_midnight + 3)
                   if 0 <= ms <= CLOCK_LIMIT_MS]
        for ms in clocks:
            stamp = rtc_start + timedelta(milliseconds=ms)
            row = make_sample(state, 15.0, 50.0, 101325.0, ms)
            # the year is four digits on every C library (glibc writes 999 as "999")
            assert (row.date, row.time) == (stamp.strftime("%d.%m.") + "%04d" % stamp.year,
                                            stamp.strftime("%H:%M:%S")), ms


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
