import itertools
import math
import random
from datetime import datetime, timedelta, timezone

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
    SdCardImage,
    arduino_print_float,
    format_row,
    log_ground,
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


def _reading(state, cal_altitude, temperature=15.0, humidity=50.0):
    """A raw reading the logger calibrates to ``cal_altitude``, or to a hair below
    it, so that a reading at a threshold does not pass it."""
    corrected_hpa = state.mslp_hpa - LINEAR_ALTIMETER_SLOPE * cal_altitude
    pressure = corrected_hpa * 100.0 / state.cfg.pressure_correction
    while make_sample(state, temperature, humidity, pressure, 0).cal_altitude > cal_altitude:
        pressure = math.nextafter(pressure, math.inf)
    return temperature, humidity, pressure


def _run_flight(altitudes, cfg=None):
    """Drive the state machine over a cal-altitude sequence: the ground pass,
    then one tick per entry.  Returns the state, the card and the ms the
    device blocked, in order: the ground pass, then every tick that blocked."""
    cfg = cfg or FirmwareConfig(elevation=0.0)
    sd = SdCardImage()
    state = setup(cfg, 101325.0)
    clock = log_ground(state, itertools.repeat(_reading(state, 0.0)), sd)
    blocked = [clock]
    for altitude in altitudes:
        wait = tick(state, _reading(state, altitude), clock, sd)
        blocked += [wait] if wait else []
        clock += max(wait, 100)
    return state, sd, blocked


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
        assert not state.serving
        assert state.interval == 5.0


class TestGroundPhase:
    def test_six_rows_then_air(self):
        cfg = FirmwareConfig(elevation=0.0)
        sd = SdCardImage()
        state = setup(cfg, 101325.0)
        assert not state.serving
        # each row: a 500 ms buzz, the row, a 3000 ms delay
        assert log_ground(state, itertools.repeat(_reading(state, 0.0)), sd) == 6 * (500 + 3000)
        assert not state.serving
        stamps = [line.split(b",")[1] for line in sd.read(GROUND_LOG).split(b"\r\n") if line]
        assert stamps == [b"10:15:00", b"10:15:03", b"10:15:07", b"10:15:10", b"10:15:14",
                          b"10:15:17"]


    def test_each_row_is_make_sample_printed_by_format_row(self):
        # ties, -0.0, values past the printer's limit and a day boundary
        rng = random.Random(26)
        cfg = FirmwareConfig(ground_samples=60, rtc_start=datetime(2021, 6, 1, 23, 59, 30))
        state = setup(cfg, 101325.0)
        readings = [(rng.choice((2.25, -0.0, 0.05, -1e10, round(rng.uniform(-30, 45), 3))),
                     rng.choice((0.0, 100.0, 50.35, round(rng.uniform(0, 100), 3))),
                     rng.choice((101325.0, 1e13, 5.0, rng.uniform(50000.0, 110000.0))))
                    for _ in range(60)]
        sd = SdCardImage()
        assert log_ground(state, iter(readings), sd) == 60 * 3500
        assert sd.read(GROUND_LOG) == b"".join(
            format_row(make_sample(state, *reading, 3500 * number))
            for number, reading in enumerate(readings))
        assert b"ovf" in sd.read(GROUND_LOG)

    def test_no_reading_is_taken_past_the_last_row(self):
        state = setup(FirmwareConfig(ground_samples=6), 101325.0)
        readings = iter([(15.0, 50.0, 101325.0)] * 10)
        log_ground(state, readings, SdCardImage())
        assert len(list(readings)) == 4

    @pytest.mark.parametrize("humidity, pressure, past_the_clock, error", [
        (101.0, 0.0, True, "logger clock's 86400000 ms limit"),
        (101.0, 0.0, False, "pressure must be positive"),
        (-1.0, 101325.0, False, "relative humidity"),
    ])
    def test_make_sample_s_checks_in_its_order(self, humidity, pressure, past_the_clock,
                                              error):
        kind = firmware.SimulationError if past_the_clock else ValueError
        # the last of 24,687 rows is stamped at 86,401,000 ms, past the clock's limit
        rows = 24_687 if past_the_clock else 3
        state = setup(FirmwareConfig(ground_samples=rows), 101325.0)
        readings = [(15.0, 50.0, 101325.0)] * (rows - 1) + [(15.0, humidity, pressure)]
        sd = SdCardImage()
        with pytest.raises(kind, match=error):
            log_ground(state, iter(readings), sd)
        with pytest.raises(kind, match=error):
            make_sample(state, 15.0, humidity, pressure, 3500 * (rows - 1))
        assert GROUND_LOG not in sd.files


class TestAirPhase:
    def test_monotone_climb_produces_seven_rows(self):
        altitudes = [round(0.5 * i, 2) for i in range(1, 81)]  # 0.5 .. 40.0 m
        state, sd, _ = _run_flight(altitudes)
        assert sd.read(AIR_LOG).count(b"\r\n") == 7
        assert state.interval == 40.0
        assert state.serving
        # thresholds 5,10,...,35: logged values strictly increasing and above them
        values = [float(line.split(b",")[6]) for line in
                  sd.read(AIR_LOG).split(b"\r\n") if line]
        assert all(a < b for a, b in zip(values, values[1:]))
        for threshold, value in zip((5, 10, 15, 20, 25, 30, 35), values):
            assert value > threshold

    def test_low_flight_never_logs_or_serves(self):
        altitudes = [1.0, 2.0, 3.9, 3.9, 2.0, 0.5] * 10
        state, sd, _ = _run_flight(altitudes)
        assert AIR_LOG not in sd.files
        assert not state.serving

    def test_buzzer_log_six_short_one_long(self):
        altitudes = [float(i) for i in range(1, 41)]
        _, _, blocked = _run_flight(altitudes)
        # six ground rows with a 500 ms buzz each, six air rows, and the
        # seventh air row with the server's 5000 ms buzz
        assert blocked == [6 * (500 + 3000)] + [3000] * 6 + [3000 + 5000]

    def test_server_starts_once_past_threshold(self):
        altitudes = [float(i) for i in range(1, 41)] + [40.0] * 20
        state, _, blocked = _run_flight(altitudes)
        assert state.serving
        assert blocked == [6 * (500 + 3000)] + [3000] * 6 + [3000 + 5000]

    def test_logging_stops_while_serving(self):
        altitudes = [float(i) for i in range(1, 41)] + [45.0, 50.0, 60.0]
        state, sd, _ = _run_flight(altitudes)
        assert sd.read(AIR_LOG).count(b"\r\n") == 7  # nothing after the server starts

    def test_unwritten_poll_still_checks_its_reading(self, monkeypatch):
        state, sd, _ = _run_flight([])
        assert not state.serving
        calls = []
        monkeypatch.setattr(firmware, "format_row", lambda row: calls.append("format_row"))
        monkeypatch.setattr(firmware, "make_sample", lambda *args: calls.append("make_sample"))
        low = _reading(state, 1.0)  # below the 5 m interval: no row is written
        assert tick(state, low, 20_000, sd) == 0
        with pytest.raises(RuntimeError):
            tick(state, low, CLOCK_LIMIT_MS + 1, sd)
        with pytest.raises(ValueError):
            tick(state, (15.0, 50.0, 0.0), 20_000, sd)
        with pytest.raises(ValueError):
            tick(state, (15.0, 101.0, low[2]), 20_000, sd)
        assert calls == []
        assert AIR_LOG not in sd.files


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
        assert arduino_print_float(2.675, 2) == "2.67"   # binary value lies below the tie

    def test_out_of_range_prints_like_arduino(self):
        assert arduino_print_float(float("nan"), 1) == "nan"
        assert arduino_print_float(float("inf"), 2) == "inf"
        assert arduino_print_float(float("-inf"), 2) == "inf"
        assert arduino_print_float(1e308, 1) == "ovf"
        assert arduino_print_float(-4294967041.0, 2) == "ovf"
        assert arduino_print_float(4294967040.0, 2) == "4294967040.00"

    @pytest.mark.parametrize("value, one, two", [
        (-0.0, "0.0", "0.00"), (-0.04, "-0.0", "-0.04"), (-0.004, "-0.0", "-0.00"),
    ])
    def test_the_sign_prints_only_below_zero(self, value, one, two):
        # printFloat prints "-" when number < 0.0, and -0.0 is not below zero
        assert (arduino_print_float(value, 1), arduino_print_float(value, 2)) == (one, two)
        row = LogRow("01.06.2021", "10:15:30", *[value] * 5)
        assert format_row(row).decode() == f"01.06.2021,10:15:30,{one},{one},{one},{two},{two},\r\n"

    @pytest.mark.parametrize("value, decimals, text", [
        (0.35, 1, "0.3"), (2.25, 1, "2.2"), (1.005, 2, "1.00"), (1013.125, 2, "1013.12"),
    ])
    def test_a_decimal_tie_rounds_as_its_binary_sum_falls(self, value, decimals, text):
        # printFloat adds 0.5 / 10 per decimal in double and truncates, not
        # half up: 2.25 + 0.05 rounds to the double just below 2.3
        assert arduino_print_float(value, decimals) == text
        places = (1, 1, 1, 2, 2)
        row = LogRow("01.06.2021", "10:15:30", *(value if p == decimals else 1.0 for p in places))
        assert format_row(row).decode().split(",")[2:7] \
            == [text if p == decimals else "%.*f" % (p, 1.0) for p in places]

    def test_fixed_decimals_keep_trailing_zeros(self):
        assert arduino_print_float(1013.2, 2) == "1013.20"
        assert arduino_print_float(5.0, 2) == "5.00"
        assert arduino_print_float(15.0, 1) == "15.0"

    def test_row_length_deterministic(self):
        a = format_row(_sample(41.67, temperature=25.3, humidity=45.2))
        b = format_row(_sample(39.76, temperature=14.8, humidity=48.1))
        assert len(a) == len(b)


def _reference_print(value, decimals):
    """Print::printFloat of the Arduino core, line by line, in double."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    if value > 4294967040.0 or value < -4294967040.0:
        return "ovf"
    text = ""
    if value < 0.0:
        text += "-"
        value = -value
    rounding = 0.5
    for _ in range(decimals):
        rounding /= 10.0
    value += rounding
    int_part = int(value)
    remainder = value - float(int_part)
    text += str(int_part)
    if decimals > 0:
        text += "."
    while decimals > 0:
        decimals -= 1
        remainder *= 10.0
        to_print = int(remainder)
        text += str(to_print)
        remainder -= to_print
    return text


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
    """The exact printer and the one-string row against the printFloat reference."""

    @pytest.mark.parametrize("decimals", [1, 2])
    def test_matches_the_printfloat_reference(self, decimals):
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


def _is_repr_tie(value, decimals):
    text = repr(value)
    return text[-1] == "5" and text[-decimals - 2] == "." and "e" not in text


class TestTieSoundness:
    """format_row's tie test may send non-ties to the exact printer, never passes a tie."""

    @pytest.mark.parametrize("decimals", [1, 2])
    def test_no_tie_passes_up_to_the_limit(self, decimals, monkeypatch):
        rng = random.Random(1500 + decimals)
        scale = 10 ** (decimals + 1)
        top = (int(ARDUINO_FLOAT_LIMIT) * scale - 5) // 10  # the largest tie is 10 * top + 5
        tens = [0, 1, top - 1, top] + [int(top ** rng.random()) for _ in range(4000)]
        ties = [float(f"{sign}{10 * m + 5}e-{decimals + 1}") for m in tens for sign in "+-"]
        assert min(map(abs, ties)) == 5 / scale
        assert all(abs(x) <= ARDUINO_FLOAT_LIMIT and _is_repr_tie(x, decimals) for x in ties)
        printer = firmware.arduino_print_float
        printed = []

        def record(value, places):
            printed.append((value, places))
            return printer(value, places)

        monkeypatch.setattr(firmware, "arduino_print_float", record)
        positions = (0, 1, 2) if decimals == 1 else (3, 4)  # the fields of this many decimals

        def passes(value):
            """Whether format_row prints a row with ``value`` in one of its fields
            of ``decimals`` places with "%" instead of the exact printer."""
            passed = False
            for position in positions:
                fields = [1.0] * 5
                fields[position] = value
                printed.clear()
                format_row(LogRow("01.06.2021", "10:15:30", *fields))
                assert printed == [] or (value, decimals) in printed
                passed = passed or not printed
            return passed

        assert [x for x in ties if passes(x)] == []
        past = [math.nextafter(ARDUINO_FLOAT_LIMIT, math.inf),
                math.nextafter(-ARDUINO_FLOAT_LIMIT, -math.inf),
                1e300, -1e300, math.inf, -math.inf, math.nan]
        assert [x for x in past if passes(x)] == []
        # the values next to a tie and to the limit are no ties: where the
        # test passes them, "%.*f" must print them as the device does
        neighbours = [math.nextafter(x, direction) for direction in (-math.inf, math.inf)
                      for x in ties + [ARDUINO_FLOAT_LIMIT, -ARDUINO_FLOAT_LIMIT]]
        assert [x for x in neighbours if passes(x)
                and "%.*f" % (decimals, x) != _reference_print(x, decimals)] == []


def test_card_bytes_of_five_thousand_ground_rows_are_pinned(monkeypatch):
    # surface_watch size.  Noise on humidity and pressure makes every row
    # differ; the noiseless 15.25 degC is a tie on every ground row, so the
    # pin holds bytes that only the exact printer prints right.
    import hashlib
    from asid import config, pipeline
    printed = firmware.arduino_print_float
    fallback_fields = []

    def print_and_record(value, decimals):
        text = printed(value, decimals)
        fallback_fields.append(text != "%.*f" % (decimals, value))
        return text

    monkeypatch.setattr(firmware, "arduino_print_float", print_and_record)
    sd = pipeline.run_simulation(config.from_dict({
        "firmware": {"ground_samples": 5000},
        "environment": {"surface_temperature": 15.25, "rng_seed": 11,
                        "sensor_noise": {"humidity": 0.5, "pressure": 2.0}}})).sd
    assert hashlib.sha256(sd.read("ground.csv")).hexdigest() \
        == "b8b6aa6fadbc6ecc067ec5307e579dd75a7a9be7d3a160560b7a75139694d16a"
    assert hashlib.sha256(sd.read("air.csv")).hexdigest() \
        == "8f05e3cd4f76361f1c316fdadd66e2f844c9600813c60d4ddc8d0e5920954be7"
    assert any(fallback_fields)


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
        # the ground rows, stamped every 3.5 s, up to two past midnight
        period = firmware.GROUND_BUZZ_MS + firmware.GROUND_DELAY_MS
        cfg = FirmwareConfig(elevation=0.0, rtc_start=rtc_start,
                             ground_samples=to_midnight // period + 2)
        sd = SdCardImage()
        log_ground(setup(cfg, 101325.0), itertools.repeat((15.0, 50.0, 101325.0)), sd)
        rows = sd.read(GROUND_LOG).split(b"\r\n")[:-1]
        assert len(rows) == cfg.ground_samples
        for index, row in enumerate(rows):
            stamp = rtc_start + timedelta(milliseconds=index * period)
            assert row.split(b",")[:2] == [
                (stamp.strftime("%d.%m.") + "%04d" % stamp.year).encode("ascii"),
                stamp.strftime("%H:%M:%S").encode("ascii")], index

    def test_stamp_tables_print_every_second_of_a_day(self):
        assert len(firmware.MINUTE_STAMPS) == 1440 and len(firmware.SECOND_STAMPS) == 60
        assert [firmware.MINUTE_STAMPS[s // 60] + firmware.SECOND_STAMPS[s % 60]
                for s in range(86_400)] \
            == ["%02d:%02d:%02d" % (s // 3600, s // 60 % 60, s % 60) for s in range(86_400)]


class TestSdCardImage:
    def test_append_read_remove(self):
        sd = SdCardImage()
        sd.append("a.csv", b"one,")
        sd.append("a.csv", b"two,")
        assert sd.read("a.csv") == b"one,two,"
        sd.remove("a.csv")
        assert "a.csv" not in sd.files
        assert sd.read("a.csv") is None
        sd.remove("a.csv")  # removing a missing file is a no-op

    def test_dir_round_trip(self, tmp_path):
        sd = SdCardImage({"air.csv": b"1,\r\n", "photos.json": b"[]"})
        sd.to_dir(tmp_path)
        loaded = SdCardImage.from_dir(tmp_path)
        assert loaded.files == sd.files

    def test_from_dir_loads_only_the_files_the_device_writes(self, tmp_path):
        card = {"air.csv": b"1,\r\n", "ground.csv": b"2,\r\n", "photos.json": b"[]"}
        SdCardImage(card).to_dir(tmp_path)
        (tmp_path / "trajectory.csv").write_text("t,altitude,vertical_speed,heading\n")
        (tmp_path / "notes.txt").write_text("not the device's\n")
        (tmp_path / "sub").mkdir()
        assert SdCardImage.from_dir(tmp_path).files == card

    def test_a_card_read_from_a_directory_removes_its_files_there(self, tmp_path):
        SdCardImage({"air.csv": b"1,\r\n", "photos.json": b"[]"}).to_dir(tmp_path)
        sd = SdCardImage.from_dir(tmp_path)
        sd.remove("air.csv")
        sd.remove("ground.csv")  # missing on the card and in the directory: a no-op
        assert sorted(sd.files) == ["photos.json"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["photos.json"]

    def test_an_in_memory_card_leaves_a_directory_alone(self, tmp_path):
        sd = SdCardImage({"air.csv": b"1,\r\n"})
        sd.to_dir(tmp_path)  # writes the files, but does not bind the card to them
        sd.remove("air.csv")
        assert sd.files == {}
        assert (tmp_path / "air.csv").read_bytes() == b"1,\r\n"

    def test_a_file_the_card_cannot_delete_stays_on_the_card(self, tmp_path):
        SdCardImage({"air.csv": b"1,\r\n"}).to_dir(tmp_path)
        sd = SdCardImage.from_dir(tmp_path)
        (tmp_path / "air.csv").unlink()
        (tmp_path / "air.csv").mkdir()  # unlink refuses a directory
        with pytest.raises(OSError):
            sd.remove("air.csv")
        assert sd.read("air.csv") == b"1,\r\n"


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
