"""The logger's row record, meteorological indices and vertical-profile analysis.

Dew point uses the Magnus form (alpha=17.62, beta=243.12 degC), the heat
index replicates the hobbyist sensor-library port of the Rothfusz
regression (including its simple-formula branch below 79 degF), and the
discomfort index is Thom's formulation.
"""

from __future__ import annotations

import copyreg
import math
import re
import statistics
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

MAGNUS_A = 17.62
MAGNUS_B = 243.12  # degC

# a CRLF not followed by a DD.MM.YYYY,HH:MM:SS stamp, an empty line or the end
_BAD_STAMP = re.compile(r"\r\n(?!\d\d\.\d\d\.\d{4},\d\d:\d\d:\d\d,|\r\n|\Z)")
# the logger prints these bytes in its rows, and ends each row with a CRLF;
# the first byte it does not print is one outside that set, or a CR or LF
# that is not part of a CRLF
_ROW_BYTES = b"0123456789-.,:"
_NOT_PRINTED = re.compile(rb"[^0-9\-.,:\r\n]|\r(?!\n)|(?<!\r)\n")
_BARE_ROW_END = re.compile(rb"(?<!,)\r\n")  # a CRLF the logger never prints


class LogParseError(ValueError):
    """Malformed log row; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row

    def __reduce__(self):
        # args hold the formatted text, as _parse_named may have renamed it,
        # not __init__'s arguments: unpickling rebuilds from args and attributes
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ProfileError(ValueError):
    """Log rows do not form a usable vertical profile."""


def dew_point(t_c: float, rh: float) -> float:
    """Dew point in degC from temperature and relative humidity (%)."""
    if not 0.0 < rh <= 100.0:
        raise ValueError("relative humidity must lie in (0, 100] %")
    if not -45.0 <= t_c <= 60.0:
        raise ValueError("temperature outside the Magnus fit range [-45, 60] degC")
    gamma = math.log(rh / 100.0) + MAGNUS_A * t_c / (MAGNUS_B + t_c)
    return MAGNUS_B * gamma / (MAGNUS_A - gamma)


def heat_index(t_c: float, rh: float) -> float:
    """Apparent temperature in degC, Rothfusz regression with 79 degF branch.

    Mirrors the common DHT sensor-library algorithm: average-style simple
    formula first; above 79 degF the full regression with its low- and
    high-humidity adjustments.
    """
    if not 0.0 <= rh <= 100.0:
        raise ValueError("relative humidity must lie in [0, 100] %")
    t_f = t_c * 1.8 + 32.0
    hi = 0.5 * (t_f + 61.0 + (t_f - 68.0) * 1.2 + rh * 0.094)
    if hi > 79.0:
        hi = (-42.379
              + 2.04901523 * t_f
              + 10.14333127 * rh
              - 0.22475541 * t_f * rh
              - 0.00683783 * t_f * t_f
              - 0.05481717 * rh * rh
              + 0.00122874 * t_f * t_f * rh
              + 0.00085282 * t_f * rh * rh
              - 0.00000199 * t_f * t_f * rh * rh)
        if rh < 13.0 and 80.0 <= t_f <= 112.0:
            hi -= (13.0 - rh) * 0.25 * math.sqrt((17.0 - abs(t_f - 95.0)) * 0.05882)
        elif rh > 85.0 and 80.0 <= t_f <= 87.0:
            hi += (rh - 85.0) * 0.1 * (87.0 - t_f) * 0.2
    return (hi - 32.0) / 1.8


def discomfort_index(t_c: float, rh: float) -> float:
    """Thom's discomfort index: T - 0.55*(1 - 0.01*RH)*(T - 14.5)."""
    if not 0.0 <= rh <= 100.0:
        raise ValueError("relative humidity must lie in [0, 100] %")
    return t_c - 0.55 * (1.0 - 0.01 * rh) * (t_c - 14.5)


class LogRow(NamedTuple):
    """One logger CSV row: built and printed by the firmware, parsed back here.

    An immutable named tuple whose fields are in print order, so the
    firmware can format the row as one tuple.
    """

    date: str          # DD.MM.YYYY
    time: str          # HH:MM:SS
    temperature: float  # degC
    humidity: float     # %
    heat_index: float   # degC
    pressure_hpa: float
    cal_altitude: float  # m

    @property
    def timestamp(self) -> datetime:
        return datetime.strptime(f"{self.date} {self.time}", "%d.%m.%Y %H:%M:%S")


def parse_log(data: bytes) -> list[LogRow]:
    """Parse logger CSV content (rows end with a trailing comma + CRLF).

    A number the logger could not print (``nan``, ``inf``, ``ovf``) is a
    LogParseError, like any other malformed field; so is a non-ASCII byte,
    and a date or time that does not read DD.MM.YYYY or HH:MM:SS (a shape
    check over the whole text, so the digits are not parsed per row).  Last,
    so that those errors keep their rows and text, a byte the logger never
    prints is refused too: it prints digits, ``-``, ``.``, ``,`` and ``:``,
    and ends each row with CRLF, so ``15_05``, ``+15.0``, ``1e1`` and a
    blank around a number, all of which ``float`` reads, are malformed fields.
    After these, every CRLF must follow its row's ``,`` (a lost comma, an
    empty line or a leading CRLF names its row), and a log that is not empty
    must end with the last row's ``,`` and CRLF: a log cut inside its last
    row is refused, not read short.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:  # the row number counts the CRLFs before the byte
        raise LogParseError(data.count(b"\r\n", 0, exc.start) + 1, "non-ASCII byte") from None
    rows: list[LogRow] = []
    append, new_row = rows.append, tuple.__new__
    lines = text.split("\r\n")
    for number, line in enumerate(lines, start=1):
        if line == "":
            continue
        fields = line.split(",")
        # the writer emits a trailing comma, producing an empty last field
        if fields[-1] == "":
            del fields[-1]
        if len(fields) != 7:
            raise LogParseError(number, f"expected 7 fields, got {len(fields)}")
        try:
            t, h, hi, p, a = map(float, fields[2:])
        except ValueError as exc:
            raise LogParseError(number, str(exc)) from None
        # NaN exactly when a field is NaN or infinite; finite fields cannot overflow it
        if t * 0.0 + h * 0.0 + hi * 0.0 + p * 0.0 + a * 0.0 != 0.0:
            raise LogParseError(number, f"non-finite field in {line!r}")
        # seven checked fields: LogRow's own __new__ would only pass them on
        append(new_row(LogRow, (fields[0], fields[1], t, h, hi, p, a)))
    text = "\r\n" + text  # so the first row has a CRLF before it too
    bad = _BAD_STAMP.search(text)
    if bad is not None:
        line = text[bad.end():].split("\r\n", 1)[0]
        raise LogParseError(text.count("\r\n", 0, bad.end()),
                            f"date and time {','.join(line.split(',')[:2])!r} do not read "
                            f"DD.MM.YYYY,HH:MM:SS")
    # what is left once the row bytes are deleted must be the rows' CRLF ends
    if data.translate(None, delete=_ROW_BYTES) != b"\r\n" * (len(lines) - 1):
        at = _NOT_PRINTED.search(data).start()
        raise LogParseError(data.count(b"\r\n", 0, at) + 1,
                            f"the logger prints only digits, '-', '.', ',', ':' and CRLF row "
                            f"ends, not {chr(data[at])!r}")
    if data.count(b",\r\n") != len(lines) - 1:  # the search only when a row end lacks its ','
        at = _BARE_ROW_END.search(data).start()
        raise LogParseError(data.count(b"\r\n", 0, at) + 1,
                            "the row does not end with its ',' and CRLF")
    if data and not data.endswith(b",\r\n"):  # a log cut inside its last row
        raise LogParseError(data.count(b"\r\n", 0, len(data) - 1) + 1,
                            "the log ends inside this row, not with its ',' and CRLF")
    return rows


@dataclass(frozen=True)
class SurfaceSummary:
    """Per-variable medians of the ground log."""

    temperature: float
    humidity: float
    pressure_hpa: float


def surface_summary(ground_rows: list[LogRow]) -> SurfaceSummary:
    """Medians of the variables the report reads; even counts average the middle pair."""
    if not ground_rows:
        raise ProfileError("surface summary needs at least one ground row")
    return SurfaceSummary(
        temperature=statistics.median(r.temperature for r in ground_rows),
        humidity=statistics.median(r.humidity for r in ground_rows),
        pressure_hpa=statistics.median(r.pressure_hpa for r in ground_rows),
    )


@dataclass(frozen=True)
class SoundingProfile:
    levels: tuple[LogRow, ...]  # the air-log rows that climb, height coordinate cal_altitude
    surface: SurfaceSummary
    collection_time: datetime
    skipped: tuple[int, ...] = ()  # 1-based numbers of the air-log rows left out of levels


@dataclass(frozen=True)
class FreezingLevel:
    """Freezing-level estimate with its provenance.

    status is one of "interpolated", "extrapolated", "below_surface",
    "indeterminate"; altitude_m is None only when indeterminate.
    """

    status: str
    altitude_m: float | None = None


@dataclass(frozen=True)
class WxReport:
    surface_temperature: float
    surface_humidity: float
    surface_pressure: float
    dew_point: float
    freezing_level: FreezingLevel
    discomfort_index: float
    heat_index: float
    fitted_lapse_rate: float | None  # degC/m, positive when cooling with height
    collection_time: datetime


def fit_temperature_gradient(levels: tuple[LogRow, ...]) -> tuple[float, float]:
    """Least-squares fit T = a + b*h over the profile; returns (a, b)."""
    n = len(levels)
    if n < 2:
        raise ProfileError("gradient fit needs at least 2 levels")
    sx = sum(l.cal_altitude for l in levels)
    sy = sum(l.temperature for l in levels)
    sxx = sum(l.cal_altitude * l.cal_altitude for l in levels)
    sxy = sum(l.cal_altitude * l.temperature for l in levels)
    denom = n * sxx - sx * sx
    if denom == 0.0:
        raise ProfileError("degenerate profile: all levels at one altitude")
    b = (n * sxy - sx * sy) / denom
    a = (sy - b * sx) / n
    return a, b


def freezing_level(profile: SoundingProfile) -> FreezingLevel:
    """Altitude where the temperature crosses 0 degC.

    Interpolates when the profile brackets 0 degC, a level measured at
    0 degC being its own freezing level; otherwise extrapolates the fitted
    linear lapse.  A non-positive fitted lapse (inversion or isothermal
    column) cannot freeze aloft and yields "indeterminate".
    """
    levels = profile.levels
    for lower, upper in zip(levels, levels[1:]):
        t0, t1 = lower.temperature, upper.temperature
        if t0 == 0.0:
            return FreezingLevel("interpolated", lower.cal_altitude)
        if t1 == 0.0:
            return FreezingLevel("interpolated", upper.cal_altitude)
        if (t0 > 0.0) != (t1 > 0.0):
            frac = t0 / (t0 - t1)
            return FreezingLevel(
                "interpolated",
                lower.cal_altitude + frac * (upper.cal_altitude - lower.cal_altitude))
    intercept, slope = fit_temperature_gradient(levels)
    if slope >= 0.0:
        return FreezingLevel("indeterminate")
    alt = -intercept / slope
    if alt < 0.0:
        return FreezingLevel("below_surface", alt)
    return FreezingLevel("extrapolated", alt)


def _parse_named(data: bytes, log: str) -> list[LogRow]:
    """parse_log, its LogParseError naming the log: ``ground-log row 3: ...``."""
    try:
        return parse_log(data)
    except LogParseError as exc:
        exc.args = (f"{log}-log {exc}",)
        raise


def build_profile(air_csv: bytes, ground_csv: bytes) -> SoundingProfile:
    """Assemble a vertical profile from the two logger files.

    The levels are the air-log rows that set a new running maximum of
    cal_altitude, the ascent envelope; the calibrated altitude is the height
    coordinate throughout.  The logger raises its threshold one step per row
    written, so while the drone holds a level below it, it writes a row per
    poll and pressure noise makes their altitudes jitter.  Those rows are
    the device's, not a fault: ``skipped`` names them by row number.  A
    LogParseError names the log its row is in, the air log's first.
    """
    air_rows, ground_rows = _parse_named(air_csv, "air"), _parse_named(ground_csv, "ground")
    surface = surface_summary(ground_rows)
    levels, skipped, top = [], [], -math.inf
    for number, row in enumerate(air_rows, start=1):
        if row.cal_altitude > top:
            levels.append(row)
            top = row.cal_altitude
        else:
            skipped.append(number)
    try:
        return SoundingProfile(levels=tuple(levels), surface=surface,
                               collection_time=(air_rows or ground_rows)[-1].timestamp,
                               skipped=tuple(skipped))
    except ValueError as exc:  # strptime refuses the last row's stamp
        raise ProfileError(f"last {'air' if air_rows else 'ground'}-log row: {exc}") from None


def build_report(profile: SoundingProfile) -> WxReport:
    """Compute the full index bundle; profile fits need >= 2 air levels."""
    s = profile.surface
    if len(profile.levels) >= 2:
        fl = freezing_level(profile)
        _, slope = fit_temperature_gradient(profile.levels)
        lapse = -slope
    else:
        fl = FreezingLevel("indeterminate")
        lapse = None
    try:
        return WxReport(
            surface_temperature=s.temperature,
            surface_humidity=s.humidity,
            surface_pressure=s.pressure_hpa,
            dew_point=dew_point(s.temperature, s.humidity),
            freezing_level=fl,
            discomfort_index=discomfort_index(s.temperature, s.humidity),
            heat_index=heat_index(s.temperature, s.humidity),
            fitted_lapse_rate=lapse,
            collection_time=profile.collection_time,
        )
    except ValueError as exc:  # an index refuses the ground-log medians
        raise ProfileError(f"ground-log medians: {exc}") from None
