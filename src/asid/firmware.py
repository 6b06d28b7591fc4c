"""Cycle-faithful emulation of the on-board weather-station program.

The state machine reproduces the device loop: six buzzer-announced ground
log rows, altitude-interval air logging every 5 m of calibrated altitude,
and file-server activation (with a long buzz) once the interval counter
passes 35 m.  Rows are rendered byte-exactly, including the trailing comma
before CRLF produced by the device's print-call sequence.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import TYPE_CHECKING

from .atmosphere import HYPSO_SCALE, linear_altitude, mslp_from_station
from .wxindices import LogRow, heat_index

if TYPE_CHECKING:
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


class Phase(enum.Enum):
    GROUND = "ground"
    AIR = "air"
    SERVING = "serving"


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
        directory = Path(path)
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}
        return cls(files)


@dataclass
class FirmwareState:
    cfg: FirmwareConfig
    phase: Phase
    mslp_hpa: float
    interval: float
    rtc_day_us: int  # us from the midnight before rtc_start to rtc_start
    ground_count: int = 0
    dates: dict[int, str] = field(default_factory=dict)  # DD.MM.YYYY by days past rtc_start


def setup(cfg: FirmwareConfig, first_pressure_pa: float) -> FirmwareState:
    """Power-on: reduce the first raw pressure to sea level and arm the logger."""
    mslp = mslp_from_station(first_pressure_pa, cfg.elevation, cfg.pressure_correction)
    start = cfg.rtc_start
    day_us = ((start.hour * 60 + start.minute) * 60 + start.second) * 1_000_000 \
        + start.microsecond
    return FirmwareState(cfg=cfg, phase=Phase.GROUND, mslp_hpa=mslp,
                         interval=INTERVAL_START_M, rtc_day_us=day_us)


def _printf_exact(value: float, decimals: int) -> bool:
    """True when "%.*f" prints ``value`` as the device does.

    "%.*f" rounds the exact binary value, the device rounds ``repr(value)``
    half up.  The two differ only when ``repr(value)`` is itself a tie
    (``decimals + 1`` fraction digits, the last one 5): a rounding boundary
    strictly between the value and its repr would be a shorter round-trip
    string.  Exponent forms, non-finite values and "ovf" are left out too.
    """
    if not abs(value) <= ARDUINO_FLOAT_LIMIT:  # NaN fails this too
        return False
    text = repr(value)
    return not ("e" in text or text[-1] == "5" and text[-decimals - 2:-decimals - 1] == ".")


def arduino_print_float(value: float, decimals: int) -> str:
    """Fixed-decimal rendering, ties away from zero, as the device prints floats.

    Like Print::printFloat, non-finite values print as "nan"/"inf" and
    magnitudes above 4294967040 as "ovf".
    """
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
    clock_ms, the year in four digits; the date is formatted once per day.
    """
    corrected_hpa = _checked_hpa(state, humidity, pressure_pa, clock_ms)
    day, us = divmod(state.rtc_day_us + clock_ms * 1000, DAY_US)
    date = state.dates.get(day)
    if date is None:
        stamp = state.cfg.rtc_start.date() + timedelta(days=day)
        date = state.dates[day] = "%02d.%02d.%04d" % (stamp.day, stamp.month, stamp.year)
    seconds = us // 1_000_000
    return LogRow(
        date=date,
        time="%02d:%02d:%02d" % (seconds // 3600, seconds // 60 % 60, seconds % 60),
        temperature=temperature,
        humidity=humidity,
        heat_index=heat_index(temperature, humidity),
        pressure_hpa=corrected_hpa,
        cal_altitude=linear_altitude(corrected_hpa, state.mslp_hpa),
    )


def format_row(row: LogRow) -> bytes:
    """Render one log row byte-exactly: every field comma-terminated, then CRLF."""
    t, h, hi, p, a = row.temperature, row.humidity, row.heat_index, row.pressure_hpa, \
        row.cal_altitude
    if _printf_exact(t, 1) and _printf_exact(h, 1) and _printf_exact(hi, 1) \
            and _printf_exact(p, 2) and _printf_exact(a, 2):
        text = "%s,%s,%.1f,%.1f,%.1f,%.2f,%.2f,\r\n" % (row.date, row.time, t, h, hi, p, a)
    else:
        parts = (row.date, row.time, arduino_print_float(t, 1), arduino_print_float(h, 1),
                 arduino_print_float(hi, 1), arduino_print_float(p, 2),
                 arduino_print_float(a, 2))
        text = "".join(part + "," for part in parts) + "\r\n"
    return text.encode("ascii")


def tick(state: FirmwareState, reading: RawReading, clock_ms: int,
         sd: SdCardImage) -> list[tuple]:
    """One pass of the device loop on one raw reading: advances ``state`` in place.

    Every poll makes make_sample's checks, but the row itself (stamps, heat
    index) is built only when it is written.  Returns the effect list;
    "wait" effects tell the caller how long the device blocks before the
    next pass.
    """
    cfg = state.cfg
    effects: list[tuple] = []
    if state.phase is Phase.GROUND:
        row = make_sample(state, reading.temperature, reading.humidity, reading.pressure,
                          clock_ms)
        effects.append(("buzzer", GROUND_BUZZ_MS))
        sd.append(GROUND_LOG, format_row(row))
        effects.append(("log", GROUND_LOG))
        effects.append(("wait", GROUND_DELAY_MS))
        state.ground_count += 1
        if state.ground_count >= cfg.ground_samples:
            state.phase = Phase.AIR
    else:
        corrected_hpa = _checked_hpa(state, reading.humidity, reading.pressure, clock_ms)
        if state.phase is Phase.AIR \
                and linear_altitude(corrected_hpa, state.mslp_hpa) > state.interval:
            row = make_sample(state, reading.temperature, reading.humidity, reading.pressure,
                              clock_ms)
            sd.append(AIR_LOG, format_row(row))
            effects.append(("log", AIR_LOG))
            effects.append(("wait", AIR_DELAY_MS))
            state.interval += cfg.interval_step
    if state.phase is Phase.AIR and state.interval > cfg.server_threshold:
        effects.append(("server_start",))
        effects.append(("buzzer", SERVER_BUZZ_MS))
        state.phase = Phase.SERVING
    return effects
