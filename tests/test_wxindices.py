import importlib.util
import math
import pickle
import random
import re
import statistics
from datetime import datetime
from pathlib import Path

import pytest

from asid import cli, config
from asid.firmware import AIR_LOG, GROUND_LOG, format_row
from asid.pipeline import run_simulation
from asid.wxindices import (
    FreezingLevel,
    LogParseError,
    LogRow,
    ProfileError,
    SoundingProfile,
    SurfaceSummary,
    build_profile,
    build_report,
    dew_point,
    discomfort_index,
    fit_temperature_gradient,
    freezing_level,
    heat_index,
    parse_log,
    surface_summary,
)


def rothfusz_oracle(t_f: float, rh: float) -> float:
    """Independent evaluation of the published regression, in degF.

    Same branch rule as the sensor-library port: the simple average
    formula below 79 degF, the full regression with both humidity
    adjustments above it.
    """
    simple = 0.5 * (t_f + 61.0 + (t_f - 68.0) * 1.2 + rh * 0.094)
    if simple <= 79.0:
        return simple
    hi = (-42.379 + 2.04901523 * t_f + 10.14333127 * rh
          - 0.22475541 * t_f * rh - 6.83783e-3 * t_f ** 2
          - 5.481717e-2 * rh ** 2 + 1.22874e-3 * t_f ** 2 * rh
          + 8.5282e-4 * t_f * rh ** 2 - 1.99e-6 * t_f ** 2 * rh ** 2)
    if rh < 13.0 and 80.0 <= t_f <= 112.0:
        hi -= ((13.0 - rh) / 4.0) * math.sqrt((17.0 - abs(t_f - 95.0)) / 17.0)
    elif rh > 85.0 and 80.0 <= t_f <= 87.0:
        hi += ((rh - 85.0) / 10.0) * ((87.0 - t_f) / 5.0)
    return hi


class TestDewPoint:
    def test_saturation_returns_temperature(self):
        for t in (-10.0, 0.0, 15.0, 35.0):
            assert dew_point(t, 100.0) == pytest.approx(t, abs=1e-12)

    def test_magnus_worked_case(self):
        assert dew_point(20.0, 50.0) == pytest.approx(9.26, abs=0.05)

    def test_monotone_in_humidity(self):
        for t in (-10.0, 0.0, 20.0, 40.0):
            values = [dew_point(t, rh) for rh in range(5, 101, 5)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_never_above_temperature(self):
        for t in range(-10, 41, 5):
            for rh in range(5, 101, 5):
                dp = dew_point(float(t), float(rh))
                assert dp <= t + 1e-9
                if rh < 100:
                    assert dp < t

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dew_point(20.0, 0.0)
        with pytest.raises(ValueError):
            dew_point(20.0, -5.0)
        with pytest.raises(ValueError):
            dew_point(99.0, 50.0)


class TestHeatIndex:
    def test_simple_branch_worked_case(self):
        # 25 C / 40 %: simple formula gives 76.28 F = 24.6 C
        assert heat_index(25.0, 40.0) == pytest.approx(24.6, abs=0.05)

    def test_cold_input_stays_on_simple_branch(self):
        for rh in (0.0, 30.0, 60.0, 100.0):
            t_f = 10.0 * 1.8 + 32.0
            expected = 0.5 * (t_f + 61.0 + (t_f - 68.0) * 1.2 + rh * 0.094)
            assert heat_index(10.0, rh) == pytest.approx((expected - 32.0) / 1.8, abs=1e-9)

    def test_matches_independent_regression_on_grid(self):
        # 20x20 grid spanning both branches; tolerance 0.1 degF
        for i in range(20):
            for j in range(20):
                t_c = 10.0 + i * (40.0 - 10.0) / 19.0
                rh = 5.0 + j * (100.0 - 5.0) / 19.0
                ours_f = heat_index(t_c, rh) * 1.8 + 32.0
                assert ours_f == pytest.approx(rothfusz_oracle(t_c * 1.8 + 32.0, rh),
                                               abs=0.1)

    def test_full_branch_worked_case(self):
        t_f = 30.0 * 1.8 + 32.0
        expected_f = rothfusz_oracle(t_f, 70.0)
        assert heat_index(30.0, 70.0) * 1.8 + 32.0 == pytest.approx(expected_f, abs=0.1)

    def test_branch_threshold_behaviour(self):
        # The reference algorithm is discontinuous at 79 degF; the measured
        # jump reaches ~1.7 degF near saturation, so assert the branch rule
        # itself plus a documented bound on the jump size.
        max_jump = 0.0
        for rh in range(20, 101, 10):
            # temperature where the simple formula hits exactly 79 degF
            t_f = (79.0 + 0.5 * (81.6 - 61.0) - 0.5 * rh * 0.094) / (0.5 * 2.2)
            below = heat_index((t_f - 1e-6 - 32.0) / 1.8, float(rh)) * 1.8 + 32.0
            above = heat_index((t_f + 1e-6 - 32.0) / 1.8, float(rh)) * 1.8 + 32.0
            assert below == pytest.approx(79.0, abs=1e-4)
            max_jump = max(max_jump, abs(above - below))
        assert max_jump < 2.0


class TestDiscomfortIndex:
    def test_pivot_temperature(self):
        for rh in (0.0, 25.0, 50.0, 100.0):
            assert discomfort_index(14.5, rh) == pytest.approx(14.5, rel=1e-12)

    def test_saturation_returns_temperature(self):
        for t in (0.0, 14.5, 30.0):
            assert discomfort_index(t, 100.0) == pytest.approx(t, rel=1e-12)

    def test_worked_case(self):
        assert discomfort_index(30.0, 60.0) == pytest.approx(26.59, abs=1e-9)


def _profile(levels, surface=None, when=None):
    return SoundingProfile(
        levels=tuple(levels),
        surface=surface or SurfaceSummary(15.0, 50.0, 1013.25),
        collection_time=when or datetime(2021, 6, 1, 10, 18, 0),
    )


def _level(alt, temp, rh=50.0, p=1000.0):
    return LogRow("01.06.2021", "10:16:00", temp, rh, 13.9, p, alt)


class TestFreezingLevel:
    def test_bracketed_midpoint(self):
        result = freezing_level(_profile([_level(0.0, 2.0), _level(100.0, -2.0)]))
        assert result.status == "interpolated"
        assert result.altitude_m == pytest.approx(50.0, rel=1e-12)

    def test_extrapolated_linear_profile(self):
        levels = [_level(h, 15.0 - 0.0065 * h) for h in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)]
        result = freezing_level(_profile(levels))
        assert result.status == "extrapolated"
        assert result.altitude_m == pytest.approx(15.0 / 0.0065, abs=1e-6)

    def test_isothermal_is_indeterminate(self):
        result = freezing_level(_profile([_level(h, 10.0) for h in (5.0, 15.0, 25.0)]))
        assert result.status == "indeterminate"
        assert result.altitude_m is None

    def test_inversion_is_indeterminate(self):
        result = freezing_level(_profile([_level(h, 10.0 + 0.01 * h) for h in (5.0, 15.0, 25.0)]))
        assert result.status == "indeterminate"

    def test_below_surface_flagged(self):
        levels = [_level(h, -5.0 - 0.0065 * h) for h in (5.0, 15.0, 25.0)]
        result = freezing_level(_profile(levels))
        assert result.status == "below_surface"
        assert result.altitude_m < 0.0

    @pytest.mark.parametrize("temps, altitude", [
        ([-1.0, 0.0], 20.0), ([-2.0, -1.0, 0.0], 30.0), ([0.0, -1.0], 10.0)],
        ids=["top_of_two", "top_of_three", "bottom"])
    def test_a_level_measured_at_zero_is_the_freezing_level(self, temps, altitude):
        levels = [_level(10.0 * (i + 1), t) for i, t in enumerate(temps)]
        result = freezing_level(_profile(levels))
        assert (result.status, result.altitude_m) == ("interpolated", altitude)

    def test_needs_two_levels(self):
        with pytest.raises(ProfileError):
            freezing_level(_profile([_level(5.0, 10.0)]))


class TestSurfaceSummary:
    def _row(self, t, rh=50.0, hi=13.9, p=1013.25, alt=0.0):
        return LogRow("01.06.2021", "10:15:00", t, rh, hi, p, alt)

    def test_single_row(self):
        summary = surface_summary([self._row(20.1)])
        assert summary.temperature == 20.1

    def test_even_count_median(self):
        rows = [self._row(t) for t in (20.1, 20.2, 20.2, 20.3, 20.4, 20.5)]
        assert surface_summary(rows).temperature == pytest.approx(20.25)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        rows = [self._row(15.0 + i * 0.1, rh=40.0 + i, p=1000.0 + i) for i in range(6)]
        reference = surface_summary(rows)
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert surface_summary(shuffled) == reference

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            surface_summary([])


class TestLogParsing:
    def test_round_trip_through_row_format(self):
        samples = [
            LogRow("01.06.2021", "10:15:30", 25.3, 45.2, 25.1, 1005.25, 41.67),
            LogRow("01.06.2021", "10:15:33", 14.97, 49.3, 13.86, 1007.58, 5.04),
        ]
        blob = b"".join(format_row(s) for s in samples)
        rows = parse_log(blob)
        assert len(rows) == 2
        for row, sample in zip(rows, samples):
            assert row.temperature == pytest.approx(sample.temperature, abs=0.05)
            assert row.humidity == pytest.approx(sample.humidity, abs=0.05)
            assert row.pressure_hpa == pytest.approx(sample.pressure_hpa, abs=0.005)
            assert row.cal_altitude == pytest.approx(sample.cal_altitude, abs=0.005)
        # every value of the first row prints exactly, so it parses back equal
        assert parse_log(format_row(samples[0])) == [samples[0]]

    def test_a_row_refuses_field_assignment(self):
        row = LogRow("01.06.2021", "10:15:30", 25.3, 45.2, 25.1, 1005.25, 41.67)
        with pytest.raises(AttributeError):
            row.temperature = 0.0
        assert row.temperature == 25.3

    def test_parse_error_carries_row_number(self):
        blob = b"01.06.2021,10:15:30,25.3,45.2,25.1,1005.25,41.67,\r\nnot,a,row\r\n"
        with pytest.raises(LogParseError) as err:
            parse_log(blob)
        assert err.value.row == 2

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "ovf"])
    def test_out_of_range_field_is_parse_error(self, field):
        good = b"01.06.2021,10:15:30,25.3,45.2,25.1,1005.25,41.67,\r\n"
        bad = f"01.06.2021,10:15:33,25.3,45.2,{field},1005.25,41.67,\r\n".encode()
        with pytest.raises(LogParseError) as err:
            parse_log(good + bad)
        assert err.value.row == 2

    @pytest.mark.parametrize("text, byte", [("15_05", "_"), (" 15.0", " "), ("+15.0", "+"),
                                            ("1e1", "e"), ("15.0\n", "\n"), ("\r15.0", "\r")])
    def test_number_text_the_logger_never_prints_is_refused(self, text, byte):
        # float() reads each of these, and the logger prints none of them
        good = b"01.06.2021,10:15:30,25.3,45.2,25.1,1005.25,41.67,\r\n"
        bad = f"01.06.2021,10:15:33,{text},45.2,25.1,1005.25,41.67,\r\n".encode()
        with pytest.raises(LogParseError) as err:
            parse_log(good + bad + good)
        assert err.value.row == 2
        assert str(err.value) == "row 2: the logger prints only digits, '-', '.', ',', ':' " \
            f"and CRLF row ends, not {byte!r}"

    def test_timestamp_parsing(self):
        row = parse_log(b"01.06.2021,10:15:30,25.3,45.2,25.1,1005.25,41.67,\r\n")[0]
        assert row.timestamp == datetime(2021, 6, 1, 10, 15, 30)


_REFERENCE_BAD_STAMP = re.compile(r"\r\n(?!\d\d\.\d\d\.\d{4},\d\d:\d\d:\d\d,|\r\n|\Z)")


def reference_parse_log(data: bytes) -> list[LogRow]:
    """parse_log as it was before it built its rows with tuple.__new__ and
    refused the bytes the logger never prints, kept as the reference."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:  # the row number counts the CRLFs before the byte
        raise LogParseError(data.count(b"\r\n", 0, exc.start) + 1, "non-ASCII byte") from None
    rows: list[LogRow] = []
    for number, line in enumerate(text.split("\r\n"), start=1):
        if line == "":
            continue
        fields = line.split(",")
        # the writer emits a trailing comma, producing an empty last field
        if fields and fields[-1] == "":
            fields = fields[:-1]
        if len(fields) != 7:
            raise LogParseError(number, f"expected 7 fields, got {len(fields)}")
        try:
            values = tuple(map(float, fields[2:]))
        except ValueError as exc:
            raise LogParseError(number, str(exc)) from None
        if not all(map(math.isfinite, values)):
            raise LogParseError(number, f"non-finite field in {line!r}")
        rows.append(LogRow(fields[0], fields[1], *values))
    text = "\r\n" + text  # so the first row has a CRLF before it too
    bad = _REFERENCE_BAD_STAMP.search(text)
    if bad is not None:
        line = text[bad.end():].split("\r\n", 1)[0]
        raise LogParseError(text.count("\r\n", 0, bad.end()),
                            f"date and time {','.join(line.split(',')[:2])!r} do not read "
                            f"DD.MM.YYYY,HH:MM:SS")
    return rows


GOLDEN = Path(__file__).parent / "golden"
GOOD_ROW = "01.06.2021,10:15:30,25.30,45.2,25.13,1005.25,-41.67"
# what the logger prints: digits, '-', '.', ',' and ':', each row ending in a CRLF
PRINTED = re.compile(rb"(?:[0-9.,:-]*\r\n)*[0-9.,:-]*")


def _outcome(parse, data: bytes):
    try:
        rows = parse(data)
    except LogParseError as exc:
        return "error", type(exc), exc.row, str(exc)
    return "rows", [(type(row), repr(row)) for row in rows]


def assert_parses_as_the_reference(data: bytes) -> None:
    """parse_log gives the reference's rows or error, except that it refuses
    a log the reference reads whose bytes are not all ones the logger prints,
    then one with a CRLF that does not follow a ',', and then one that is not
    empty and does not end with ',' and CRLF."""
    got, expected = _outcome(parse_log, data), _outcome(reference_parse_log, data)
    if expected[0] == "error":
        assert got == expected, data
        return
    if PRINTED.fullmatch(data):
        bare = next((i for i in range(len(data) - 1)
                     if data[i:i + 2] == b"\r\n" and data[i - 1:i] != b","), None)
        if bare is not None:
            row = data.count(b"\r\n", 0, bare) + 1
            expected = ("error", LogParseError, row,
                        f"row {row}: the row does not end with its ',' and CRLF")
        elif data and not data.endswith(b",\r\n"):
            row = data.count(b"\r\n", 0, len(data) - 1) + 1
            expected = ("error", LogParseError, row,
                        f"row {row}: the log ends inside this row, not with its ',' and CRLF")
        assert got == expected, data
        return
    at = next(i for i, byte in enumerate(data)
              if byte not in b"0123456789-.,:\r\n"
              or byte == 13 and data[i + 1:i + 2] != b"\n"  # a CR before no LF
              or byte == 10 and (i == 0 or data[i - 1] != 13))  # an LF after no CR
    row = data.count(b"\r\n", 0, at) + 1
    assert got == ("error", LogParseError, row,
                   f"row {row}: the logger prints only digits, '-', '.', ',', ':' and CRLF "
                   f"row ends, not {chr(data[at])!r}"), data


def _device_logs() -> list[bytes]:
    spec = importlib.util.spec_from_file_location("fuzz_cases",
                                                  Path(__file__).parent / "test_fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    logs = []
    for document in fuzz.device_documents():
        sd = run_simulation(config.from_dict(document)).sd
        logs += [sd.read(GROUND_LOG), sd.read(AIR_LOG) or b""]
    return logs


def _edited_rows() -> dict[str, bytes]:
    """One-row edits, each put first, second and after a later bad row."""
    fields = GOOD_ROW.split(",")
    edits = {"6 fields": ",".join(fields[:6]) + ",", "8 fields": GOOD_ROW + ",1.0,",
             "two trailing commas": GOOD_ROW + ",,", "no trailing comma": GOOD_ROW,
             "empty row fields": ",,,,,,,", "bad stamp": GOOD_ROW.replace("10:15:30", "10:15:3x"),
             "short year": GOOD_ROW.replace("2021", "21") + ",",
             "non-ASCII": GOOD_ROW.replace("45.2", "45.\xb02") + ","}
    for position in range(2, 7):
        for text in ("x", "", "1.2.3", "nan", "inf", "-inf", "ovf", "NaN", "1" * 400,
                     "15_05", " 15.0 ", "+15.0", "1e1", "15.0\n", "\r15.0", "0x1p3"):
            edited = fields[:]
            edited[position] = text
            edits[f"field {position} {text!r}"] = ",".join(edited) + ","
    cases = {}
    good = (GOOD_ROW + ",\r\n").encode()
    later_bad = (GOOD_ROW.replace("45.2", "4x5.2") + ",\r\n").encode()
    for name, row in edits.items():
        row = row.encode("latin-1") + b"\r\n"
        cases[f"{name}, alone"] = row
        cases[f"{name}, row 2"] = good + row + good
        cases[f"{name}, before a bad row"] = good + good + row + later_bad
    return cases


class TestParseErrorPickles:
    """A LogParseError survives pickle, as a process pool sends a worker's
    error back: type, text, row and args."""

    @staticmethod
    def assert_round_trips(error: LogParseError) -> None:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(error, protocol))
            assert type(back) is LogParseError
            assert (str(back), back.row, back.args) == (str(error), error.row, error.args)

    def test_a_parse_error(self):
        self.assert_round_trips(LogParseError(3, "x"))

    def test_a_parse_error_build_profile_named(self):
        with pytest.raises(LogParseError) as raised:
            build_profile(b"", GROUND_BLOB + b"01.06.2021,10:16:00,nan,45.2,25.1,1005.25,0.0,\r\n")
        assert str(raised.value).startswith(f"ground-log row {raised.value.row}: ")
        self.assert_round_trips(raised.value)


def _report_exit(air: bytes, ground: bytes, tmp_path: Path, capsys) -> tuple[int, str]:
    """``asid report`` on the two logs; returns (exit code, stderr)."""
    (tmp_path / "air.csv").write_bytes(air)
    (tmp_path / "ground.csv").write_bytes(ground)
    capsys.readouterr()
    code = cli.main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


class TestALogCutInsideItsLastRow:
    """A log that does not end with its last row's ',' and CRLF was cut short,
    so it is refused with its last row's number, not read short."""

    @staticmethod
    def soundings() -> list[tuple[bytes, bytes]]:
        """(air, ground) of the golden flight and of the 16 device cards."""
        logs = _device_logs()
        return [((GOLDEN / "air.csv").read_bytes(), (GOLDEN / "ground.csv").read_bytes()),
                *zip(logs[1::2], logs[0::2])]

    def test_the_whole_logs_still_report(self, tmp_path, capsys):
        ground = (GOLDEN / "ground.csv").read_bytes()
        for air, ground_log in [*self.soundings(), (b"", ground)]:  # b"": surface only
            code, err = _report_exit(air, ground_log, tmp_path, capsys)
            assert code == cli.EXIT_OK and "error" not in err, err

    def test_every_cut_inside_the_last_row_exits_data_error(self, tmp_path, capsys):
        cuts = 0
        for air, ground in self.soundings():
            for log, data in (("air", air), ("ground", ground)):
                last = data.count(b"\r\n")
                start = data.rindex(b"\r\n", 0, len(data) - 2) + 2 if last > 1 else 0
                for end in range(start + 1, len(data)):
                    cut = data[:end]
                    logs = (cut, ground) if log == "air" else (air, cut)
                    code, err = _report_exit(*logs, tmp_path, capsys)
                    assert code == cli.EXIT_DATA, (log, cut[start:])
                    assert err.startswith(f"data error: {log}-log row {last}: "), err
                    assert not (tmp_path / "out").exists()
                    cuts += 1
        assert cuts > 34 * 40  # every log's last row is longer than 40 bytes

    def test_the_golden_air_log_cut_by_five_bytes(self):
        # it read row 7's altitude 37.81 as 37.0, and a lapse rate of 6.19 C/km for 6.05
        with pytest.raises(LogParseError) as raised:
            build_profile((GOLDEN / "air.csv").read_bytes()[:-5],
                          (GOLDEN / "ground.csv").read_bytes())
        assert str(raised.value) == \
            "air-log row 7: the log ends inside this row, not with its ',' and CRLF"


class TestARowEndWithoutItsComma:
    """The logger ends every row with ',' and CRLF, so a CRLF after any other
    byte is refused with its row, not read as a row end."""

    @pytest.mark.parametrize("edit, row", [
        (lambda rows: rows[:1] + [rows[1][:-1]] + rows[2:], 2),  # row 2's trailing comma
        (lambda rows: rows[:2] + [b""] + rows[2:], 3),  # an empty line after row 2
        (lambda rows: [b""] + rows, 1),  # a leading CRLF
    ], ids=["no trailing comma", "empty line", "leading CRLF"])
    def test_an_edited_golden_air_log_exits_data_error(self, edit, row, tmp_path, capsys):
        air = b"\r\n".join(edit((GOLDEN / "air.csv").read_bytes().split(b"\r\n")))
        code, err = _report_exit(air, (GOLDEN / "ground.csv").read_bytes(), tmp_path, capsys)
        assert (code, err) == (cli.EXIT_DATA, f"data error: air-log row {row}: the row does "
                               f"not end with its ',' and CRLF\n")
        assert not (tmp_path / "out").exists()

    def test_a_device_log_without_its_first_rows_comma_exits_data_error(self, tmp_path,
                                                                       capsys):
        edits = 0
        for air, ground in TestALogCutInsideItsLastRow.soundings():
            for log, data in (("air", air), ("ground", ground)):
                if not data:  # a surface-only card's air log has no row to edit
                    continue
                end = data.index(b",\r\n")
                edited = data[:end] + data[end + 1:]
                logs = (edited, ground) if log == "air" else (air, edited)
                code, err = _report_exit(*logs, tmp_path, capsys)
                assert (code, err) == (cli.EXIT_DATA, f"data error: {log}-log row 1: the row "
                                       f"does not end with its ',' and CRLF\n")
                edits += 1
        assert edits > 30


class TestParseLogAgainstTheReference:
    @pytest.mark.parametrize("name", ["air.csv", "ground.csv"])
    def test_the_golden_logs(self, name):
        data = (GOLDEN / name).read_bytes()
        assert_parses_as_the_reference(data)
        assert parse_log(data)  # the golden logs are read, not refused

    def test_the_device_cards_of_the_fuzz_list(self):
        for data in _device_logs():
            assert_parses_as_the_reference(data)
            assert all(type(row) is LogRow for row in parse_log(data))

    @pytest.mark.parametrize("data", _edited_rows().values(), ids=_edited_rows())
    def test_an_edited_row(self, data):
        assert_parses_as_the_reference(data)

    def test_mutated_golden_logs(self):
        rng = random.Random(28)
        golden = [(GOLDEN / name).read_bytes() for name in ("air.csv", "ground.csv")]
        for _ in range(600):
            data = bytearray(rng.choice(golden))
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(data))
                if rng.random() < 0.5:
                    data[at] = rng.choice(b"0123456789.,-+e:_ nai\r\n\x00\xff")
                else:
                    data.insert(at, rng.choice(b"0123456789.,-+e_ \r\n"))
            assert_parses_as_the_reference(bytes(data))


GROUND_BLOB = b"".join(
    f"01.06.2021,10:15:{i:02d},15.0,50.0,13.9,1008.18,0.00,\r\n".encode()
    for i in (0, 3, 7, 10, 14, 17))


def _air_blob(levels):
    rows = []
    for i, (alt, temp) in enumerate(levels):
        rows.append(f"01.06.2021,10:16:{i:02d},{temp:.1f},49.0,13.7,1007.00,{alt:.2f},\r\n")
    return "".join(rows).encode()


class TestBuildProfileAndReport:
    def test_profile_uses_cal_altitude(self):
        air = _air_blob([(5.04, 15.0), (10.06, 14.9), (17.88, 14.9)])
        profile = build_profile(air, GROUND_BLOB)
        assert [l.cal_altitude for l in profile.levels] == [5.04, 10.06, 17.88]
        assert profile.surface.temperature == 15.0
        assert profile.collection_time == datetime(2021, 6, 1, 10, 16, 2)

    @pytest.mark.parametrize("altitudes, levels, skipped", [
        ([10.06, 5.04], [10.06], (2,)),                              # shuffled
        ([5.04, 10.06, 10.02, 10.06, 10.07, 17.88], [5.04, 10.06, 10.07, 17.88], (3, 4)),
        ([5.04, 10.06, 17.88], [5.04, 10.06, 17.88], ()),           # a climb keeps every row
    ], ids=["shuffled", "hover_jitter", "monotone"])
    def test_the_levels_are_the_rows_that_climb(self, altitudes, levels, skipped):
        # a row at or below an earlier row's altitude leaves the levels and is named
        air = _air_blob([(altitude, 15.0) for altitude in altitudes])
        profile = build_profile(air, GROUND_BLOB)
        assert [l.cal_altitude for l in profile.levels] == levels
        assert profile.skipped == skipped
        assert profile.collection_time == datetime(2021, 6, 1, 10, 16, len(altitudes) - 1)

    def test_empty_air_gives_surface_only_report(self):
        profile = build_profile(b"", GROUND_BLOB)
        report = build_report(profile)
        assert report.freezing_level.status == "indeterminate"
        assert report.fitted_lapse_rate is None
        assert report.surface_temperature == 15.0
        assert report.dew_point < 15.0

    def test_full_report_fields(self):
        levels = [(h * 0.996, 15.0 - 0.0065 * h) for h in (5.0, 10.0, 15.0, 20.0, 25.0,
                                                           30.0, 35.0)]
        air = _air_blob(levels)
        profile = build_profile(air, GROUND_BLOB)
        report = build_report(profile)
        assert report.surface_temperature == 15.0
        assert report.surface_humidity == 50.0
        assert report.surface_pressure == 1008.18
        assert report.dew_point == pytest.approx(dew_point(15.0, 50.0), rel=1e-12)
        assert report.discomfort_index == pytest.approx(discomfort_index(15.0, 50.0),
                                                        rel=1e-12)
        assert report.heat_index == pytest.approx(heat_index(15.0, 50.0), rel=1e-12)
        assert report.freezing_level.status == "extrapolated"
        assert report.fitted_lapse_rate is not None
        assert report.collection_time == profile.collection_time


def test_gradient_fit_recovers_exact_line():
    levels = tuple(_level(h, 12.0 - 0.007 * h) for h in (3.0, 9.0, 21.0, 30.0))
    intercept, slope = fit_temperature_gradient(levels)
    assert intercept == pytest.approx(12.0, abs=1e-9)
    assert slope == pytest.approx(-0.007, abs=1e-12)
