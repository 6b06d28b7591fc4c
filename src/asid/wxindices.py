"""The logger's row record, meteorological indices and vertical-profile analysis.

Dew point uses the Magnus form (alpha=17.62, beta=243.12 degC), the heat
index replicates the hobbyist sensor-library port of the Rothfusz
regression (including its simple-formula branch below 79 degF), and the
discomfort index is Thom's formulation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from datetime import datetime

MAGNUS_A = 17.62
MAGNUS_B = 243.12  # degC


class LogParseError(ValueError):
    """Malformed log row; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


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


@dataclass(frozen=True)
class LogRow:
    """One logger CSV row: built and printed by the firmware, parsed back here."""

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
    LogParseError, like any other malformed field.
    """
    rows: list[LogRow] = []
    for number, line in enumerate(data.decode("ascii").split("\r\n"), start=1):
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
        raise ValueError("surface summary needs at least one ground row")
    return SurfaceSummary(
        temperature=statistics.median(r.temperature for r in ground_rows),
        humidity=statistics.median(r.humidity for r in ground_rows),
        pressure_hpa=statistics.median(r.pressure_hpa for r in ground_rows),
    )


@dataclass(frozen=True)
class SoundingProfile:
    levels: tuple[LogRow, ...]  # the air-log rows, height coordinate cal_altitude
    surface: SurfaceSummary
    collection_time: datetime


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

    Interpolates when the profile brackets 0 degC; otherwise extrapolates
    the fitted linear lapse.  A non-positive fitted lapse (inversion or
    isothermal column) cannot freeze aloft and yields "indeterminate".
    """
    levels = profile.levels
    if len(levels) < 2:
        raise ProfileError("freezing level needs at least 2 levels")
    for lower, upper in zip(levels, levels[1:]):
        t0, t1 = lower.temperature, upper.temperature
        if t0 == 0.0:
            return FreezingLevel("interpolated", lower.cal_altitude)
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


def build_profile(air_csv: bytes, ground_csv: bytes) -> SoundingProfile:
    """Assemble a vertical profile from the two logger files.

    Air-log altitudes must be strictly increasing; the calibrated altitude
    is the height coordinate throughout.
    """
    air_rows = parse_log(air_csv)
    ground_rows = parse_log(ground_csv)
    surface = surface_summary(ground_rows)
    for previous, current in zip(air_rows, air_rows[1:]):
        if current.cal_altitude <= previous.cal_altitude:
            raise ProfileError(
                f"air-log altitudes must increase: {previous.cal_altitude} then "
                f"{current.cal_altitude}")
    last_rows = air_rows if air_rows else ground_rows
    return SoundingProfile(levels=tuple(air_rows), surface=surface,
                           collection_time=last_rows[-1].timestamp)


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
