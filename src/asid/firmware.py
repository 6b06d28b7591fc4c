"""Cycle-faithful emulation of the on-board weather-station program.

The state machine reproduces the device loop: six buzzer-announced ground
log rows, altitude-interval air logging every 5 m of calibrated altitude,
and file-server activation (with a long buzz) once the interval counter
passes 35 m.  Rows are rendered byte-exactly, including the trailing comma
before CRLF produced by the device's print-call sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import TYPE_CHECKING

from .atmosphere import HYPSO_SCALE, LINEAR_ALTIMETER_SLOPE, linear_altitude, \
    mslp_from_station
from .wxindices import LogRow, heat_index

if TYPE_CHECKING:
    from collections.abc import Iterable

GROUND_LOG = "ground.csv"
AIR_LOG = "air.csv"
PHOTO_MANIFEST = "photos.json"

GROUND_BUZZ_MS = 500
SERVER_BUZZ_MS = 5000
GROUND_DELAY_MS = 3000   # blocking delay after each ground row
AIR_DELAY_MS = 3000      # blocking delay after each air row
INTERVAL_START_M = 5.0   # first air threshold

# the longest run the logger clock covers (one day past rtc_start), so that
# every row stamp stays inside the calendar
CLOCK_LIMIT_MS = 86_400_000
RTC_LATEST_START = datetime.max.replace(microsecond=0) - timedelta(milliseconds=CLOCK_LIMIT_MS)
DAY_US = 86_400_000_000  # microseconds in a calendar day
# a row's HH:MM:SS stamp, for s seconds past midnight, is
# MINUTE_STAMPS[s // 60] + SECOND_STAMPS[s % 60]
MINUTE_STAMPS = tuple("%02d:%02d:" % divmod(minute, 60) for minute in range(1440))
SECOND_STAMPS = tuple("%02d" % second for second in range(60))


class SimulationError(RuntimeError):
    """The simulated run cannot go on: the flight or the logger passed a limit of
    the device, the pack emptied, or sensor noise left the physical range."""

# Print::printFloat prints "ovf" beyond this magnitude
ARDUINO_FLOAT_LIMIT = 4294967040.0


@dataclass(frozen=True)
class FirmwareConfig:
    elevation: float = 0.0             # m, site elevation; 0 reads height above ground
    pressure_correction: float = 0.995
    interval_step: float = 5.0         # m between air log rows
    server_threshold: float = 35.0     # m, interval beyond which the server starts
    ground_samples: int = 6
    rtc_start: datetime = datetime(2021, 6, 1, 10, 15, 0)

    def __post_init__(self) -> None:
        if min(self.interval_step, self.server_threshold) <= 0.0:
            raise ValueError("interval fields must be positive")
        if self.ground_samples < 1:
            raise ValueError("ground_samples must be at least 1")
        if not 0.9 < self.pressure_correction <= 1.1:
            raise ValueError("pressure_correction must lie in (0.9, 1.1]")
        if not 0.0 <= self.elevation < HYPSO_SCALE:
            raise ValueError(f"elevation must lie in [0, {HYPSO_SCALE:.0f}) m")
        if self.rtc_start.replace(tzinfo=None) > RTC_LATEST_START:
            raise ValueError(f"rtc_start must not be later than {RTC_LATEST_START.isoformat()}")


class SdCardImage:
    """SD card: a name -> bytes mapping with atomic per-call ops.

    ``append`` grows a file's ``bytearray`` in place, so logging n rows
    costs linear, not quadratic, time; ``read`` returns a ``bytes`` copy.
    A card read with ``from_dir`` is that directory: ``remove`` deletes the
    file there too, as the device deletes it from its card.
    """

    def __init__(self, files: dict[str, bytes] | None = None):
        self.files: dict[str, bytes | bytearray] = dict(files or {})
        self.directory: Path | None = None  # set only by from_dir

    def append(self, name: str, data: bytes) -> None:
        if name in self.files:
            self.files[name] += data
        else:
            self.files[name] = bytearray(data)

    def read(self, name: str) -> bytes | None:
        data = self.files.get(name)
        return None if data is None else bytes(data)

    def remove(self, name: str) -> None:
        if self.directory is not None:  # the file first, so a failed unlink keeps both
            (self.directory / name).unlink(missing_ok=True)
        self.files.pop(name, None)

    def to_dir(self, path) -> None:
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (directory / name).write_bytes(data)

    @classmethod
    def from_dir(cls, path) -> "SdCardImage":
        """The card in ``path``: the files the device writes, whatever else lies
        there.  Its ``remove`` deletes the file in ``path`` too."""
        directory = Path(path)
        present = {entry.name for entry in directory.iterdir() if entry.is_file()}
        card = cls({name: (directory / name).read_bytes()
                    for name in (AIR_LOG, GROUND_LOG, PHOTO_MANIFEST) if name in present})
        card.directory = directory
        return card


@dataclass
class FirmwareState:
    cfg: FirmwareConfig
    mslp_hpa: float
    interval: float
    rtc_day_us: int  # us from the midnight before rtc_start to rtc_start
    dates: tuple[str, str]  # DD.MM.YYYY of rtc_start's day and the next, the last a row reaches

    @property
    def serving(self) -> bool:
        """The file server runs: the interval has passed ``cfg.server_threshold``.

        Means something only once log_ground has run.  It never turns back:
        the interval moves only in tick, after a row, and tick stops moving
        it once the server runs.
        """
        return self.interval > self.cfg.server_threshold


def setup(cfg: FirmwareConfig, first_pressure_pa: float) -> FirmwareState:
    """Power-on: reduce the first raw pressure to sea level and arm the logger."""
    mslp = mslp_from_station(first_pressure_pa, cfg.elevation, cfg.pressure_correction)
    start = cfg.rtc_start
    day_us = ((start.hour * 60 + start.minute) * 60 + start.second) * 1_000_000 \
        + start.microsecond
    dates = tuple("%02d.%02d.%04d" % (d.day, d.month, d.year)
                  for d in (start.date(), start.date() + timedelta(days=1)))
    return FirmwareState(cfg, mslp, INTERVAL_START_M, day_us, dates)


def arduino_print_float(value: float, decimals: int) -> str:
    """The device's Print::printFloat, step by step in double.

    "nan", "inf", "ovf" past 4294967040, a "-" only below 0.0, then the
    magnitude plus 0.5 divided by 10.0 per decimal: its integer part, then
    each digit by *= 10.0 and truncation.  format_row and log_ground print
    with it the rows their one tie test flags.
    """
    if not abs(value) <= ARDUINO_FLOAT_LIMIT:
        return "nan" if math.isnan(value) else "inf" if math.isinf(value) else "ovf"
    rounding = 0.5
    for _ in range(decimals):
        rounding /= 10.0
    number = abs(value) + rounding
    text = ("-" if value < 0.0 else "") + str(int(number)) + ("." if decimals > 0 else "")
    remainder = number - int(number)
    for _ in range(decimals):
        remainder *= 10.0
        text += str(int(remainder))
        remainder -= int(remainder)
    return text


def _checked_hpa(state: FirmwareState, humidity: float, pressure_pa: float,
                 clock_ms: int) -> float:
    """The checks of every poll, in the device's order; returns the corrected hPa."""
    if clock_ms > CLOCK_LIMIT_MS:
        raise SimulationError(f"the run outlasts the logger clock's {CLOCK_LIMIT_MS} ms limit")
    corrected_hpa = pressure_pa * state.cfg.pressure_correction / 100.0
    if corrected_hpa <= 0.0:
        raise ValueError("pressure must be positive")
    if not 0.0 <= humidity <= 100.0:  # heat_index's range
        raise ValueError("relative humidity must lie in [0, 100] %")
    return corrected_hpa


def make_sample(state: FirmwareState, temperature: float, humidity: float,
                pressure_pa: float, clock_ms: int) -> LogRow:
    """Process raw readings into the row the logger writes.

    Humidity outside [0, 100] % and a non-positive corrected pressure raise
    ValueError; a clock past CLOCK_LIMIT_MS raises SimulationError, since the
    run no longer fits the logger's calendar.  The stamps are rtc_start +
    clock_ms, the year in four digits.
    """
    corrected_hpa = _checked_hpa(state, humidity, pressure_pa, clock_ms)
    us = state.rtc_day_us + clock_ms * 1000
    seconds = us % DAY_US // 1_000_000
    return LogRow(state.dates[us // DAY_US],
                  MINUTE_STAMPS[seconds // 60] + SECOND_STAMPS[seconds % 60],
                  temperature, humidity, heat_index(temperature, humidity), corrected_hpa,
                  linear_altitude(corrected_hpa, state.mslp_hpa))


def _row_text(date: str, time: str, t: float, h: float, hi: float, p: float,
              a: float) -> str:
    """One log row's text: every field comma-terminated, then CRLF."""
    lim = ARDUINO_FLOAT_LIMIT
    # The one tie test.  "%" rounds the exact binary value; printFloat adds its
    # rounding in double and truncates, so the two differ only where that sum's
    # rounding error (below 2**-20 up to the limit) reaches across a tie
    # (m + 1/2) / 10**d.  A row goes to arduino_print_float when a field lies
    # past the limit (NaN too) or within 10**-(d + 3) of a tie, more than ten
    # such errors: x * 10**(d + 1) % 10 within 0.01 of 5, which the product's
    # own rounding moves by less than 1e-3.  + 0.0 turns only -0.0 into 0.0.
    if -lim <= t <= lim and -lim <= h <= lim and -lim <= hi <= lim and -lim <= p <= lim \
            and -lim <= a <= lim and not 4.99 < t * 100.0 % 10.0 < 5.01 \
            and not 4.99 < h * 100.0 % 10.0 < 5.01 and not 4.99 < hi * 100.0 % 10.0 < 5.01 \
            and not 4.99 < p * 1000.0 % 10.0 < 5.01 and not 4.99 < a * 1000.0 % 10.0 < 5.01:
        return "%s,%s,%.1f,%.1f,%.1f,%.2f,%.2f,\r\n" % (date, time, t + 0.0, h + 0.0,
                                                       hi + 0.0, p + 0.0, a + 0.0)
    parts = (date, time, arduino_print_float(t, 1), arduino_print_float(h, 1),
             arduino_print_float(hi, 1), arduino_print_float(p, 2), arduino_print_float(a, 2))
    return "".join(part + "," for part in parts) + "\r\n"


def format_row(row: LogRow) -> bytes:
    """Render one log row byte-exactly: every field comma-terminated, then CRLF."""
    return _row_text(*row).encode("ascii")


def log_ground(state: FirmwareState, readings: Iterable[tuple[float, float, float]],
               sd: SdCardImage) -> int:
    """The ground phase in one pass.

    Writes ``cfg.ground_samples`` rows, one per (temperature, humidity,
    pressure) reading taken from ``readings``, and takes no reading past the
    last row.  Each row is announced by a GROUND_BUZZ_MS buzz and followed by a
    GROUND_DELAY_MS delay, so the rows are stamped at clocks 0, 3500, ...  Every
    row makes make_sample's checks in its order and is the text format_row
    prints for make_sample's row, and all of them go to the card in one
    append; a check that fails writes none.  A threshold below the first
    interval starts the server here, with its long buzz.  Returns the logger
    clock at which the flight starts.
    """
    period = GROUND_BUZZ_MS + GROUND_DELAY_MS
    correction, mslp, dates, day_us = state.cfg.pressure_correction, state.mslp_hpa, \
        state.dates, state.rtc_day_us
    minutes, secs = MINUTE_STAMPS, SECOND_STAMPS
    rows = []
    # range first: zip stops at the range's end without drawing one more reading
    for clock, (temperature, humidity, pressure) in zip(
            range(0, state.cfg.ground_samples * period, period), readings):
        if clock > CLOCK_LIMIT_MS:
            raise SimulationError(f"the run outlasts the logger clock's {CLOCK_LIMIT_MS} ms limit")
        corrected_hpa = pressure * correction / 100.0
        if corrected_hpa <= 0.0:
            raise ValueError("pressure must be positive")
        if not 0.0 <= humidity <= 100.0:
            raise ValueError("relative humidity must lie in [0, 100] %")
        us = day_us + clock * 1000
        seconds = us % DAY_US // 1_000_000
        rows.append(_row_text(
            dates[us // DAY_US], minutes[seconds // 60] + secs[seconds % 60],
            temperature, humidity, heat_index(temperature, humidity), corrected_hpa,
            (mslp - corrected_hpa) / LINEAR_ALTIMETER_SLOPE))
    sd.append(GROUND_LOG, "".join(rows).encode("ascii"))
    return len(rows) * period + (SERVER_BUZZ_MS if state.serving else 0)


def tick(state: FirmwareState, reading: tuple[float, float, float], clock_ms: int,
         sd: SdCardImage) -> int:
    """One pass of the device loop after the ground phase: advances ``state`` in place.

    ``reading`` is one (temperature, humidity, pressure) tuple, as log_ground
    takes them.  Every poll makes make_sample's checks, but the row itself
    (stamps, heat index) is built only when it is written.  Returns the ms
    the device blocks before the next pass: AIR_DELAY_MS after a row, plus
    SERVER_BUZZ_MS when that row starts the server, else 0.
    """
    temperature, humidity, pressure = reading
    corrected_hpa = _checked_hpa(state, humidity, pressure, clock_ms)
    if not state.serving \
            and linear_altitude(corrected_hpa, state.mslp_hpa) > state.interval:
        row = make_sample(state, temperature, humidity, pressure, clock_ms)
        sd.append(AIR_LOG, format_row(row))
        state.interval += state.cfg.interval_step
        return AIR_DELAY_MS + (SERVER_BUZZ_MS if state.serving else 0)
    return 0
