"""Deterministic vertical flight dynamics executing a mission plan.

The sounding is a vertical column: the simulator integrates altitude only
(semi-implicit Euler), heading is tracked as a state variable, and
horizontal wind appears solely as the landing drift offset.  All physics
runs in plain double precision with no hidden randomness, so a fixed seed
yields bit-identical trajectories.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, TextIO

from . import mission
from .airframe import GF_TO_N, AirframeConfig, max_progressive_speed, service_ceiling, \
    thrust_to_weight, wind_drift
from .atmosphere import HYPSO_EXPONENT, HYPSO_SCALE, density_ratio
from .firmware import CLOCK_LIMIT_MS, SimulationError

# Altitude controller, run by step before every integrator update: proportional
# speed command (0.5 m/s per metre of error, clamped) tracked by a
# proportional throttle around the hover feed-forward (the sea-level hover
# throttle over the density ratio).  The cascade keeps the approach
# overdamped, so levels are reached without overshoot.
CLIMB_GAIN = 0.5          # (m/s) per m of altitude error
CLIMB_SPEED_LIMIT = 4.0   # m/s
THROTTLE_GAIN = 0.15      # throttle per m/s of speed error
DEADBAND_M = 0.2
DT = 0.01                 # s, integrator step of a mission
HOVER_CURRENT_A = 20.0    # A, battery draw at the hover throttle
COMMAND_TIMEOUT_S = 300.0
CSV_CHUNK_ROWS = 4096     # trajectory.csv rows formatted and written per write call
# km/h; above the 408 km/h surface-gust record (Barrow Island, 1996), so it refuses
# no real wind, and it keeps the landing drift finite
WIND_LIMIT_KMH = 500.0


class BatteryExhaustedError(SimulationError):
    """Battery ran out mid-flight; carries the truncated trajectory."""

    def __init__(self, trajectory: "Trajectory"):
        super().__init__("battery exhausted before the plan completed")
        self.trajectory = trajectory


@dataclass(frozen=True)
class SensorNoise:
    """Per-channel 1-sigma sensor noise."""

    temperature: float = 0.0  # degC
    humidity: float = 0.0     # %
    pressure: float = 0.0     # Pa

    def __post_init__(self) -> None:
        for name in ("temperature", "humidity", "pressure"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} sigma must be non-negative")


@dataclass(frozen=True)
class Environment:
    """Ground truth for the column the drone flies through."""

    surface_temperature: float = 15.0   # degC
    surface_pressure: float = 1013.25   # hPa
    surface_humidity: float = 50.0      # %
    temperature_lapse: float = 0.0065   # degC per m
    humidity_lapse: float = 0.05        # % per m
    wind: float = 0.0                   # km/h
    rng_seed: int = 0
    sensor_noise: SensorNoise = field(default_factory=SensorNoise)

    def __post_init__(self) -> None:
        if self.surface_pressure <= 0.0:
            raise ValueError("surface pressure must be positive")
        if not 0.0 <= self.surface_humidity <= 100.0:
            raise ValueError("surface humidity must lie in [0, 100] %")
        if self.wind < 0.0:
            raise ValueError("wind must be non-negative")
        if self.wind > WIND_LIMIT_KMH:
            raise ValueError(f"wind must not exceed {WIND_LIMIT_KMH:.0f} km/h")


class RawReading(NamedTuple):
    """One true (optionally noisy) sensor reading, before any logger math."""

    temperature: float  # degC
    humidity: float     # %
    pressure: float     # Pa


def true_sample(env: Environment, altitude: float, rng: random.Random) -> RawReading:
    """Sample the environment at an altitude; deterministic for a given rng state."""
    if altitude < 0.0:
        raise ValueError("altitude must be non-negative")
    temperature = env.surface_temperature - env.temperature_lapse * altitude \
        + rng.gauss(0.0, 1.0) * env.sensor_noise.temperature
    humidity = env.surface_humidity - env.humidity_lapse * altitude \
        + rng.gauss(0.0, 1.0) * env.sensor_noise.humidity
    humidity = min(100.0, max(0.0, humidity))
    pressure = env.surface_pressure * 100.0 \
        * (1.0 - altitude / HYPSO_SCALE) ** HYPSO_EXPONENT \
        + rng.gauss(0.0, 1.0) * env.sensor_noise.pressure
    if pressure <= 0.0:
        raise SimulationError(f"sensor noise drove the pressure to {pressure:g} Pa")
    return RawReading(temperature, humidity, pressure)


@dataclass
class CameraEvent:
    t: float         # s
    altitude: float  # m
    heading: float   # deg


@dataclass(slots=True)
class SimState:
    t: float = 0.0
    altitude: float = 0.0
    vertical_speed: float = 0.0
    heading: float = 0.0
    battery_remaining: float = 0.0  # mAh


def hover_throttle(cfg: AirframeConfig) -> float:
    """Throttle fraction that balances the weight at sea level."""
    return 1.0 / thrust_to_weight(cfg)


def step(state: SimState, cfg: AirframeConfig, target: float, end: float, band: float,
         stop: float, samples: list[float]) -> bool:
    """Fly one motion command and add one sample per DT to ``samples``; the
    one function that advances altitude, speed, battery and time.

    ``samples`` is flat: each sample is two floats, extended in the order
    (altitude, vertical_speed).  A sample's t is not kept: it is the previous
    sample's t plus DT, which ``Trajectory.to_csv`` adds up again.  The
    heading is not read: it changes only at a yaw command, and
    ``run_mission`` records it per run of samples.

    The command holds ``target`` until ``end`` or until the altitude is within
    ``band`` of it.  Each pass evaluates the density ratio, runs the
    controller on it and takes a semi-implicit Euler step: acceleration is
    (thrust - weight - quadratic frame drag) / mass, with the static thrust
    converted from gram-force to Newtons and de-rated by the density ratio,
    and the battery current scales as (throttle / hover throttle)^1.5.  The
    state and the airframe's figures are read into locals once per command,
    and the state is written back when the command ends.

    Returns True when the command is done, and False when the flight must
    stop: the pack is empty (checked first) or the time passed ``stop``.
    """
    t, altitude, v, battery = state.t, state.altitude, state.vertical_speed, \
        state.battery_remaining
    n_motors, max_thrust, hover = cfg.n_motors, cfg.motor.max_thrust_per_motor, \
        hover_throttle(cfg)
    weight_n, drag, mass_kg = cfg.weight_n, cfg.frame_drag_coefficient, cfg.total_mass / 1000.0
    gain, limit, throttle_gain, dt = CLIMB_GAIN, CLIMB_SPEED_LIMIT, THROTTLE_GAIN, DT
    extend = samples.extend
    done = True
    while t < end and abs(altitude - target) > band:
        # the controller; each clamp picks what min/max would, -0.0 included
        ratio = density_ratio(altitude)
        v_cmd = gain * (target - altitude)
        v_cmd = v_cmd if v_cmd < limit else limit
        v_cmd = v_cmd if v_cmd > -limit else -limit
        throttle = hover / ratio + throttle_gain * (v_cmd - v)
        throttle = throttle if throttle < 1.0 else 1.0
        throttle = throttle if throttle > 0.0 else 0.0
        thrust_n = throttle * n_motors * max_thrust * GF_TO_N * ratio
        v = v + (thrust_n - weight_n - drag * v * abs(v)) / mass_kg * dt
        altitude = altitude + v * dt
        if altitude <= 0.0:  # ground stop
            altitude = 0.0
            v = v if v > 0.0 else 0.0
        battery = battery - HOVER_CURRENT_A * (throttle / hover) ** 1.5 * dt / 3.6
        battery = battery if battery > 0.0 else 0.0
        t += dt
        extend((altitude, v))
        if battery <= 0.0 or t > stop:
            done = False
            break
    state.t, state.altitude, state.vertical_speed = t, altitude, v
    state.battery_remaining = battery
    return done


@dataclass
class Trajectory:
    """Record of a simulated flight, one sample per DT from the start sample on.

    A sample's t is not stored.  The start sample is at t = 0.0, each later
    sample is DT after the one before it, and each LAND stop (the ground
    sample added after a landing) repeats the t of the sample before it.
    """

    samples: list[float]  # flat: sample i is samples[2*i:2*i+2], (altitude, v)
    # (first sample index, heading) per yaw; a run lasts until the next entry's index
    headings: list[tuple[int, float]]
    stops: list[int]  # sample index of each LAND stop
    duration: float  # s, the last sample's t
    camera_events: list[CameraEvent]
    landing_offset: float  # m downwind

    @property
    def max_altitude(self) -> float:
        return max(self.samples[0::2])

    def altitude_at(self, t: float) -> float:
        index = min(int(round(t / DT)), len(self.samples) // 2 - 1)
        return self.samples[2 * max(0, index)]

    def to_csv(self, out: TextIO) -> None:
        """Write trajectory.csv to ``out``: the header, then CSV_CHUNK_ROWS rows per write.

        t is summed again as ``step`` summed it: DT per sample, 0.0 at the
        start sample and at each LAND stop (t + 0.0 == t, bit for bit).  Each
        chunk is one % over its rows, each heading formatted once per run
        into the rows' format, so no whole-table string or tuple is built.
        """
        samples, n = self.samples, len(self.samples) // 2
        runs = [(start, end, "%.2f,%.4f,%.4f," + "%.1f\n" % heading)
                for (start, heading), end in zip(
                    self.headings, [start for start, _ in self.headings[1:]] + [n])]
        zeros = [0] + self.stops  # the samples that add 0.0 to the t before them
        out.write("t,altitude,vertical_speed,heading\n")
        t = 0.0
        for first in range(0, n, CSV_CHUNK_ROWS):
            last = min(first + CSV_CHUNK_ROWS, n)
            steps = [DT] * (last - first)
            for index in zeros:
                if first <= index < last:
                    steps[index - first] = 0.0
            steps[0] += t  # the chunk's sums go on from the t before it
            row = [0.0] * (3 * (last - first))
            row[0::3] = accumulate(steps)
            t = row[-3]
            row[1::3] = samples[2 * first:2 * last:2]
            row[2::3] = samples[2 * first + 1:2 * last:2]
            out.write("".join(fmt * (min(end, last) - max(start, first))
                              for start, end, fmt in runs
                              if start < last and end > first) % tuple(row))

    def camera_manifest(self) -> str:
        events = [{"t": round(e.t, 2), "altitude": round(e.altitude, 3),
                   "heading": e.heading} for e in self.camera_events]
        return json.dumps(events, indent=2) + "\n"


def run_mission(plan: mission.MissionPlan, cfg: AirframeConfig, env: Environment) -> Trajectory:
    """Validate a plan against the service ceiling, fly it and return the
    sampled trajectory; this is the one place a plan is checked.

    Each motion command is one call of ``step``.

    Raises MissionValidationError for unflyable plans (a plan whose DELAY
    time alone passes the logger clock's limit among them),
    BatteryExhaustedError (carrying the partial trajectory) when the pack
    empties mid-flight, and SimulationError when a command passes its
    deadline or the flight outlasts the logger clock (CLOCK_LIMIT_MS).
    """
    limit_s = CLOCK_LIMIT_MS / 1000.0
    violations = mission.validate(plan, ceiling=service_ceiling(cfg))
    delay = sum(cmd.p1 for cmd in plan.commands if cmd.kind == mission.DELAY)
    if delay > limit_s:
        violations.append(f"DELAY commands total {delay:g} s, past the logger clock's "
                          f"{limit_s:g} s limit")
    if violations:
        raise mission.MissionValidationError(violations)

    state = SimState(battery_remaining=cfg.battery.capacity_mah)
    samples = [0.0, 0.0]  # flat, as in Trajectory.samples
    headings = [(0, 0.0)]
    stops: list[int] = []
    events: list[CameraEvent] = []

    def _drift(duration: float) -> float:
        return wind_drift(env.wind, max_progressive_speed(cfg), duration)

    target = 0.0
    for cmd in plan.commands:
        kind = cmd.kind
        if kind == mission.CONDITION_YAW:
            state.heading = cmd.p1 % 360.0
            headings.append((len(samples) // 2, state.heading))
            continue
        if kind == mission.DO_DIGICAM_CONTROL:
            events.append(CameraEvent(t=state.t, altitude=state.altitude,
                                      heading=state.heading))
            continue
        # A motion command holds `target` until `end` (DELAY, no deadline)
        # or until the altitude is within `band` of it (a climb or the
        # landing; altitude is never negative, so LAND's band is its
        # 0.05 m floor).  `stop` is the earlier of the command's deadline
        # and the logger clock's limit.
        if kind == mission.DELAY:
            end, band, stop, overdue = state.t + cmd.p1, -1.0, limit_s, ""
        elif kind == mission.LAND:
            target = 0.0
            end, band, stop = math.inf, 0.05, min(state.t + COMMAND_TIMEOUT_S, limit_s)
            overdue = "landing did not converge"
        else:  # TAKEOFF or WAYPOINT
            target = cmd.alt
            end, band, stop = math.inf, DEADBAND_M, min(state.t + COMMAND_TIMEOUT_S, limit_s)
            overdue = f"{kind} to {target:g} m did not converge"
        if not step(state, cfg, target, end, band, stop, samples):
            if state.battery_remaining <= 0.0:
                raise BatteryExhaustedError(
                    Trajectory(samples=samples, headings=headings, stops=stops,
                               duration=state.t, camera_events=events,
                               landing_offset=_drift(state.t)))
            if state.t > limit_s:
                raise SimulationError(f"flight passed {limit_s:g} s, the logger clock's limit")
            raise SimulationError(overdue)
        if kind == mission.LAND:
            state.altitude = 0.0
            state.vertical_speed = 0.0
            stops.append(len(samples) // 2)
            samples.extend((0.0, 0.0))

    return Trajectory(samples=samples, headings=headings, stops=stops, duration=state.t,
                      camera_events=events, landing_offset=_drift(state.t))
