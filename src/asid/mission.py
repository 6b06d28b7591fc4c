"""Autopilot flight-profile language: command model, validation, file format,
and the generator for the photographic sounding pattern.

Mission files are UTF-8 text, one command per line under the header
``command,p1,p2,p3,p4,lat,lon,alt``.  The plan home position is carried by
the first (TAKEOFF) row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TAKEOFF = "TAKEOFF"
WAYPOINT = "WAYPOINT"
CONDITION_YAW = "CONDITION_YAW"
DELAY = "DELAY"
DO_DIGICAM_CONTROL = "DO_DIGICAM_CONTROL"
LAND = "LAND"

COMMAND_KINDS = (TAKEOFF, WAYPOINT, CONDITION_YAW, DELAY, DO_DIGICAM_CONTROL, LAND)

FILE_HEADER = "command,p1,p2,p3,p4,lat,lon,alt"

DEFAULT_HOME = (38.1825152, 21.7026906)
DEFAULT_HEADINGS = (90.0, 180.0, 270.0, 0.0)
MAX_LEVELS = 1000  # capture levels in one sounding; the shipped pack lasts about 38


class MissionParseError(ValueError):
    """Malformed mission file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissionValidationError(ValueError):
    """A plan failed validation; carries the violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class MissionCommand:
    kind: str
    p1: float = 0.0
    p2: float = 0.0
    p3: float = 0.0
    p4: float = 0.0
    lat: float = 0.0
    lon: float = 0.0
    alt: float = 0.0  # m AGL

    def __post_init__(self) -> None:
        if self.kind not in COMMAND_KINDS:
            raise ValueError(f"unknown command kind {self.kind!r}")
        for name in ("p1", "p2", "p3", "p4", "lat", "lon", "alt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alt < 0.0:
            raise ValueError("altitude must be non-negative")
        if self.kind == CONDITION_YAW and not 0.0 <= self.p1 < 360.0:
            raise ValueError("yaw heading must lie in [0, 360)")
        if self.kind == DELAY and self.p1 < 0.0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True)
class MissionPlan:
    commands: tuple[MissionCommand, ...]

    @property
    def max_altitude(self) -> float:
        return max((c.alt for c in self.commands), default=0.0)


@dataclass(frozen=True)
class MissionParams:
    """The generator's inputs; a ValueError names a parameter that is non-finite,
    negative, or leaves no levels the generator can build (or more than MAX_LEVELS)."""

    target_alt: float = 40.0
    start_alt: float = 10.0
    step: float = 10.0
    headings: tuple[float, ...] = DEFAULT_HEADINGS
    capture_dwell: float = 3.0

    def __post_init__(self) -> None:
        for name in ("target_alt", "start_alt", "step", "capture_dwell"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.start_alt < 0.0:
            raise ValueError("start_alt must be non-negative")
        if self.capture_dwell < 0.0:
            raise ValueError("capture_dwell must be non-negative")
        if self.start_alt > self.target_alt:
            raise ValueError("start_alt must not exceed target_alt")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.target_alt - self.start_alt > self.step * (MAX_LEVELS - 1):
            raise ValueError(f"step is too small: more than {MAX_LEVELS} levels from start_alt "
                             f"to target_alt")


def generate_sounding_profile(params: MissionParams) -> MissionPlan:
    """Build the stepped photographic sounding at DEFAULT_HOME.

    Take off to start_alt, then at every level (start, start+step, ...,
    clamped to target) rotate to each heading, pause 1 s, trigger the
    camera and dwell; climb to the next level; finally descend back to
    start_alt and land.
    """
    lat, lon = DEFAULT_HOME
    levels = [float(params.start_alt)]
    while levels[-1] < params.target_alt:
        levels.append(min(levels[-1] + params.step, float(params.target_alt)))

    commands = [MissionCommand(TAKEOFF, lat=lat, lon=lon, alt=levels[0])]
    for index, level in enumerate(levels):
        for heading in params.headings:
            commands.append(MissionCommand(CONDITION_YAW, p1=float(heading) % 360.0, p3=1.0))
            commands.append(MissionCommand(DELAY, p1=1.0))
            commands.append(MissionCommand(DO_DIGICAM_CONTROL, lat=lat, lon=lon, alt=level))
            commands.append(MissionCommand(DELAY, p1=float(params.capture_dwell)))
        if index + 1 < len(levels):
            commands.append(MissionCommand(WAYPOINT, p1=1.0, lat=lat, lon=lon,
                                           alt=levels[index + 1]))
    commands.append(MissionCommand(WAYPOINT, p1=1.0, lat=lat, lon=lon, alt=levels[0]))
    commands.append(MissionCommand(LAND, lat=lat, lon=lon))
    return MissionPlan(commands=tuple(commands))


def validate(plan: MissionPlan, ceiling: float) -> list[str]:
    """Return the list of rule violations; empty means the plan is flyable."""
    violations: list[str] = []
    if not plan.commands:
        violations.append("plan has no commands")
        return violations
    first, last = plan.commands[0], plan.commands[-1]
    if first.kind != TAKEOFF:
        violations.append(f"first command must be {TAKEOFF}, got {first.kind}")
    if last.kind != LAND:
        violations.append(f"last command must be {LAND}, got {last.kind}")
    for index, cmd in enumerate(plan.commands):
        if cmd.alt > ceiling:
            violations.append(
                f"command {index + 1} ({cmd.kind}) altitude {cmd.alt:g} m exceeds "
                f"the {ceiling:g} m ceiling")
    return violations


def serialize(plan: MissionPlan) -> str:
    """Render a plan in the mission file format."""
    lines = [FILE_HEADER]
    for c in plan.commands:
        lines.append(",".join([c.kind] + [repr(v) for v in
                                          (c.p1, c.p2, c.p3, c.p4, c.lat, c.lon, c.alt)]))
    return "\n".join(lines) + "\n"


def parse(text: str) -> MissionPlan:
    """Parse a mission file; raises MissionParseError with the line number."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != FILE_HEADER:
        raise MissionParseError(1, f"expected header {FILE_HEADER!r}")
    commands: list[MissionCommand] = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise MissionParseError(number, f"expected 8 fields, got {len(fields)}")
        kind = fields[0].strip()
        try:
            values = [float(f) for f in fields[1:]]
            commands.append(MissionCommand(kind, *values))
        except ValueError as exc:
            raise MissionParseError(number, str(exc)) from None
    return MissionPlan(commands=tuple(commands))
