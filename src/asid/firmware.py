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
from dataclasses import dataclass
from datetime import datetime, timedelta
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .atmosphere import HYPSO_SCALE, linear_altitude, mslp_from_station
from .wxindices import LogRow, heat_index

GROUND_LOG = "ground.csv"
AIR_LOG = "air.csv"
PHOTO_MANIFEST = "photos.json"

GROUND_BUZZ_MS = 500
SERVER_BUZZ_MS = 5000

# the longest run the logger clock covers (one day past rtc_start), so that
# every row stamp stays inside the calendar
CLOCK_LIMIT_MS = 86_400_000
RTC_LATEST_START = datetime.max.replace(microsecond=0) - timedelta(milliseconds=CLOCK_LIMIT_MS)

# Print::printFloat prints "ovf" beyond this magnitude
ARDUINO_FLOAT_LIMIT = 4294967040.0


class Phase(enum.Enum):
    GROUND = "ground"
    AIR = "air"
    SERVING = "serving"


@dataclass(frozen=True)
class FirmwareConfig:
    elevation: float = 45.0            # m, site elevation for the MSLP reduction
    pressure_correction: float = 0.995
    interval_step: float = 5.0         # m between air log rows
    interval_start: float = 5.0        # m, first air threshold
    server_threshold: float = 35.0     # m, interval beyond which the server starts
    ground_samples: int = 6
    ground_delay_ms: int = 3000
    air_delay_ms: int = 3000
    rtc_start: datetime = datetime(2021, 6, 1, 10, 15, 0)

    def __post_init__(self) -> None:
        if min(self.interval_step, self.interval_start, self.server_threshold) <= 0.0:
            raise ValueError("interval fields must be positive")
        if self.ground_samples < 1:
            raise ValueError("ground_samples must be at least 1")
        if self.ground_delay_ms < 0 or self.air_delay_ms < 0:
            raise ValueError("delays must be non-negative")
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

    def __init__(self, files: dict[str, bytes] | None = None, *, write_protected: bool = False):
        self.files: dict[str, bytes | bytearray] = dict(files or {})
        self.write_protected = write_protected

    def append(self, name: str, data: bytes) -> bool:
        if self.write_protected:
            return False
        if name in self.files:
            self.files[name] += data
        else:
            self.files[name] = bytearray(data)
        return True

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
    ground_count: int = 0


def setup(cfg: FirmwareConfig, first_pressure_pa: float) -> FirmwareState:
    """Power-on: reduce the first raw pressure to sea level and arm the logger."""
    mslp = mslp_from_station(first_pressure_pa, cfg.elevation, cfg.pressure_correction)
    return FirmwareState(cfg=cfg, phase=Phase.GROUND, mslp_hpa=mslp,
                         interval=cfg.interval_start)


def arduino_print_float(value: float, decimals: int) -> str:
    """Fixed-decimal rendering, ties away from zero, as the device prints floats.

    Like Print::printFloat, non-finite values print as "nan"/"inf" and
    magnitudes above 4294967040 as "ovf".
    """
    if not abs(value) <= ARDUINO_FLOAT_LIMIT:  # NaN fails this too
        return "nan" if math.isnan(value) else "inf" if math.isinf(value) else "ovf"
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


def make_sample(state: FirmwareState, temperature: float, humidity: float,
                pressure_pa: float, clock_ms: int) -> LogRow:
    """Process raw readings into the row the logger writes.

    Humidity outside [0, 100] % (refused by heat_index) and a non-positive
    corrected pressure raise ValueError; a clock past CLOCK_LIMIT_MS raises
    RuntimeError, since the run no longer fits the logger's calendar.
    """
    cfg = state.cfg
    if clock_ms > CLOCK_LIMIT_MS:
        raise RuntimeError(f"the run outlasts the logger clock's {CLOCK_LIMIT_MS} ms limit")
    corrected_hpa = pressure_pa * cfg.pressure_correction / 100.0
    if corrected_hpa <= 0.0:
        raise ValueError("pressure must be positive")
    stamp = cfg.rtc_start + timedelta(milliseconds=clock_ms)
    return LogRow(
        date=stamp.strftime("%d.%m.%Y"),
        time=stamp.strftime("%H:%M:%S"),
        temperature=temperature,
        humidity=humidity,
        heat_index=heat_index(temperature, humidity),
        pressure_hpa=corrected_hpa,
        cal_altitude=linear_altitude(corrected_hpa, state.mslp_hpa),
    )


def format_row(row: LogRow) -> bytes:
    """Render one log row byte-exactly: every field comma-terminated, then CRLF."""
    parts = (
        row.date,
        row.time,
        arduino_print_float(row.temperature, 1),
        arduino_print_float(row.humidity, 1),
        arduino_print_float(row.heat_index, 1),
        arduino_print_float(row.pressure_hpa, 2),
        arduino_print_float(row.cal_altitude, 2),
    )
    return ("".join(p + "," for p in parts) + "\r\n").encode("ascii")


def tick(state: FirmwareState, row: LogRow, sd: SdCardImage) -> list[tuple]:
    """One pass of the device loop: advances ``state`` in place.

    Returns the effect list; "wait" effects tell the caller how long the
    device blocks before the next pass.  A failed SD write emits
    "write_failure" and leaves the state unchanged.
    """
    cfg = state.cfg
    effects: list[tuple] = []
    if state.phase is Phase.GROUND:
        effects.append(("buzzer", GROUND_BUZZ_MS))
        if sd.append(GROUND_LOG, format_row(row)):
            effects.append(("log", GROUND_LOG))
            effects.append(("wait", cfg.ground_delay_ms))
            state.ground_count += 1
            if state.ground_count >= cfg.ground_samples:
                state.phase = Phase.AIR
        else:
            effects.append(("write_failure", GROUND_LOG))
    elif state.phase is Phase.AIR:
        if row.cal_altitude > state.interval:
            if sd.append(AIR_LOG, format_row(row)):
                effects.append(("log", AIR_LOG))
                effects.append(("wait", cfg.air_delay_ms))
                state.interval += cfg.interval_step
            else:
                effects.append(("write_failure", AIR_LOG))
    if state.phase is Phase.AIR and state.interval > cfg.server_threshold:
        effects.append(("server_start",))
        effects.append(("buzzer", SERVER_BUZZ_MS))
        state.phase = Phase.SERVING
    return effects
