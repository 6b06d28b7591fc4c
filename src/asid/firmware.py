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
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import TYPE_CHECKING

from .atmosphere import HYPSO_SCALE, linear_altitude, mslp_from_station
from .wxindices import LogRow, heat_index

if TYPE_CHECKING:
    from collections.abc import Callable

    from .flightsim import RawReading

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
    """In-memory SD card: a name -> bytes mapping with atomic per-call ops.

    ``append`` grows a file's ``bytearray`` in place, so logging n rows
    costs linear, not quadratic, time; ``read`` returns a ``bytes`` copy.
    """

    def __init__(self, files: dict[str, bytes] | None = None):
        self.files: dict[str, bytes | bytearray] = dict(files or {})

    def append(self, name: str, data: bytes) -> None:
        if name in self.files:
            self.files[name] += data
        else:
            self.files[name] = bytearray(data)

    def read(self, name: str) -> bytes | None:
        data = self.files.get(name)
        return None if data is None else bytes(data)

    def exists(self, name: str) -> bool:
        return name in self.files

    def remove(self, name: str) -> None:
        self.files.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self.files)

    def to_dir(self, path) -> None:
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (directory / name).write_bytes(data)

    @classmethod
    def from_dir(cls, path) -> "SdCardImage":
        """The card in ``path``: the files the device writes, whatever else lies there."""
        directory = Path(path)
        present = {entry.name for entry in directory.iterdir() if entry.is_file()}
        return cls({name: (directory / name).read_bytes()
                    for name in (AIR_LOG, GROUND_LOG, PHOTO_MANIFEST) if name in present})


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


def _printf_exact(value: float, decimals: int) -> bool:
    """True when "%.*f" surely prints ``value`` as the device does.

    "%.*f" rounds the exact binary value, the device rounds ``repr(value)``
    half up.  The two differ only when ``repr(value)`` is itself a tie
    (``decimals + 1`` fraction digits, the last one 5): a rounding boundary
    strictly between the value and its repr would be a shorter round-trip
    string.  The test is conservative: it may flag a value that is not a
    tie, never passes one.  It flags every value whose scaled remainder
    ``value * 10**(decimals + 1) % 10`` lies within 0.01 of 5.  A tie lies
    within half an ulp of its repr k / 10**(decimals + 1), k ending in 5;
    up to ARDUINO_FLOAT_LIMIT (ulp <= 2**-20) and at ``decimals`` <= 2 that
    half ulp scaled, plus the rounding of the product, keeps the remainder
    within 1e-3 of 5.  More decimals, non-finite values and "ovf" are
    flagged too.
    """
    if not -ARDUINO_FLOAT_LIMIT <= value <= ARDUINO_FLOAT_LIMIT or decimals > 2:  # NaN too
        return False
    return not 4.99 < value * 10.0 ** (decimals + 1) % 10.0 < 5.01


def arduino_print_float(value: float, decimals: int) -> str:
    """Fixed-decimal rendering, ties away from zero, as the device prints floats.

    Like Print::printFloat, non-finite values print as "nan"/"inf" and
    magnitudes above 4294967040 as "ovf", and only a value below 0.0 gets a "-".
    """
    value += 0.0  # turns only -0.0 into 0.0
    if _printf_exact(value, decimals):
        return "%.*f" % (decimals, value)
    if not abs(value) <= ARDUINO_FLOAT_LIMIT:
        return "nan" if math.isnan(value) else "inf" if math.isinf(value) else "ovf"
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


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
    day, us = divmod(state.rtc_day_us + clock_ms * 1000, DAY_US)
    seconds = us // 1_000_000
    return LogRow(state.dates[day],
                  "%02d:%02d:%02d" % (seconds // 3600, seconds // 60 % 60, seconds % 60),
                  temperature, humidity, heat_index(temperature, humidity), corrected_hpa,
                  linear_altitude(corrected_hpa, state.mslp_hpa))


def format_row(row: LogRow) -> bytes:
    """Render one log row byte-exactly: every field comma-terminated, then CRLF."""
    date, time, t, h, hi, p, a = row
    lim = ARDUINO_FLOAT_LIMIT
    # _printf_exact on each field, inlined; + 0.0 turns only -0.0 into 0.0
    if -lim <= t <= lim and -lim <= h <= lim and -lim <= hi <= lim and -lim <= p <= lim \
            and -lim <= a <= lim and not 4.99 < t * 100.0 % 10.0 < 5.01 \
            and not 4.99 < h * 100.0 % 10.0 < 5.01 and not 4.99 < hi * 100.0 % 10.0 < 5.01 \
            and not 4.99 < p * 1000.0 % 10.0 < 5.01 and not 4.99 < a * 1000.0 % 10.0 < 5.01:
        text = "%s,%s,%.1f,%.1f,%.1f,%.2f,%.2f,\r\n" % (date, time, t + 0.0, h + 0.0,
                                                        hi + 0.0, p + 0.0, a + 0.0)
    else:
        parts = (date, time, arduino_print_float(t, 1), arduino_print_float(h, 1),
                 arduino_print_float(hi, 1), arduino_print_float(p, 2),
                 arduino_print_float(a, 2))
        text = "".join(part + "," for part in parts) + "\r\n"
    return text.encode("ascii")


def log_ground(state: FirmwareState, read: Callable[[], RawReading], sd: SdCardImage) -> int:
    """The ground phase in one pass.

    Writes ``cfg.ground_samples`` rows, one per ``read()``, each announced by a
    GROUND_BUZZ_MS buzz and followed by a GROUND_DELAY_MS delay, so they are
    stamped at clocks 0, 3500, ...  A threshold below the first interval
    starts the server here, with its long buzz.  Returns the logger clock at
    which the flight starts.
    """
    period = GROUND_BUZZ_MS + GROUND_DELAY_MS
    rows = []
    for clock in range(0, state.cfg.ground_samples * period, period):
        temperature, humidity, pressure = read()
        rows.append(format_row(make_sample(state, temperature, humidity, pressure, clock)))
    sd.append(GROUND_LOG, b"".join(rows))
    return len(rows) * period + (SERVER_BUZZ_MS if state.serving else 0)


def tick(state: FirmwareState, reading: RawReading, clock_ms: int,
         sd: SdCardImage) -> int:
    """One pass of the device loop after the ground phase: advances ``state`` in place.

    Every poll makes make_sample's checks, but the row itself (stamps, heat
    index) is built only when it is written.  Returns the ms the device
    blocks before the next pass: AIR_DELAY_MS after a row, plus
    SERVER_BUZZ_MS when that row starts the server, else 0.
    """
    corrected_hpa = _checked_hpa(state, reading.humidity, reading.pressure, clock_ms)
    if not state.serving \
            and linear_altitude(corrected_hpa, state.mslp_hpa) > state.interval:
        row = make_sample(state, reading.temperature, reading.humidity, reading.pressure,
                          clock_ms)
        sd.append(AIR_LOG, format_row(row))
        state.interval += state.cfg.interval_step
        return AIR_DELAY_MS + (SERVER_BUZZ_MS if state.serving else 0)
    return 0
