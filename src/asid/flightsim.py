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
from itertools import accumulate, repeat
from typing import Callable, NamedTuple, TextIO

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
CSV_CHUNK_ROWS = 4096     # about the most samples run_mission hands over in one block
# km/h; above the 408 km/h surface-gust record (Barrow Island, 1996), so it refuses
# no real wind, and it keeps the landing drift finite
WIND_LIMIT_KMH = 500.0


class BatteryExhaustedError(SimulationError):
    """Battery ran out mid-flight; carries the summary of the flight so far."""

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
    (altitude, vertical_speed).  A sample's t is not kept: it is DT after the
    sample before, and ``run_mission`` counts those steps in ``Block.count``.  The
    heading is not read: it changes only at a yaw command, and
    ``run_mission`` hands it over with each block.

    The command holds ``target`` until ``end`` or until the altitude is within
    ``band`` of it.  Each pass evaluates the density ratio, runs the
    controller on it and takes a semi-implicit Euler step: acceleration is
    (thrust - weight - quadratic frame drag) / mass, with the static thrust
    converted from gram-force to Newtons and de-rated by the density ratio,
    and the battery current scales as (throttle / hover throttle)^1.5.  The
    state and the airframe's figures are read into locals once per command,
    and the state is written back when the call ends.

    Returns True when the command is done, and False when the flight must
    stop or pause: the pack is empty (checked first) or the time passed
    ``stop``.
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


class Block(NamedTuple):
    """Samples that ``run_mission`` hands over as the flight goes, all under one heading.

    ``samples`` is flat: each sample is two floats, (altitude, vertical_speed).
    Sample i is ``count + i`` DT steps after the start: the first sample is
    one step after the last sample of the block before, or, when it is the
    start sample or a LAND stop (the ground sample added after a landing),
    repeats that sample's count (0 for the start sample).
    """

    samples: list[float]
    heading: float  # deg
    count: int      # DT steps from the start to the first sample


CSV_HEADER = "t,altitude,vertical_speed,heading\n"


@dataclass
class Trajectory:
    """Running summary of a flight, kept as ``run_mission`` hands its blocks over."""

    duration: float = 0.0      # s, the t of the last sample handed over
    max_altitude: float = 0.0  # m, the peak of the samples handed over
    camera_events: list[CameraEvent] = field(default_factory=list)
    landing_offset: float = 0.0  # m downwind, set when the flight ends

    @staticmethod
    def to_csv(out: TextIO, block: Block) -> None:
        """Write a block's rows of trajectory.csv to ``out`` with one ``%``; the
        header (CSV_HEADER) is the caller's.

        The first row's t is the block's count times DT, and each later row
        adds DT (faster than a product per row): within 1e-4 s of the t ``step``
        sums, up to the logger clock's limit, so ``%.2f`` prints the same digits.
        """
        samples, n = block.samples, len(block.samples) // 2
        row = [0.0] * (3 * n)
        row[0::3] = accumulate(repeat(DT, n - 1), initial=block.count * DT)
        row[1::3] = samples[0::2]
        row[2::3] = samples[1::2]
        out.write(("%.2f,%.4f,%.4f," + "%.1f\n" % block.heading) * n % tuple(row))

    def camera_manifest(self) -> str:
        events = [{"t": round(e.t, 2), "altitude": round(e.altitude, 3),
                   "heading": e.heading} for e in self.camera_events]
        return json.dumps(events, indent=2) + "\n"


def run_mission(plan: mission.MissionPlan, cfg: AirframeConfig, env: Environment,
                consume: Callable[[Block], None]) -> Trajectory:
    """Validate a plan against the service ceiling, fly it, hand its samples to
    ``consume`` block by block and return the flight's summary; this is the one
    place a plan is checked.

    Each call of ``step`` flies at most CSV_CHUNK_ROWS * DT of one motion
    command (a longer command takes more calls), and its samples are handed
    over when it returns, so no sample list outlives its block.  The start
    sample and each LAND stop lead the next block, which a yaw or the end of
    the plan hands over on its own.

    Raises MissionValidationError for unflyable plans (a plan whose DELAY
    time alone passes the logger clock's limit among them),
    BatteryExhaustedError (carrying the summary so far) when the pack
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
    trajectory = Trajectory()
    samples, first = [0.0, 0.0], 0  # the block in hand, led by the start sample; its count

    def _drift(duration: float) -> float:
        return wind_drift(env.wind, max_progressive_speed(cfg), duration)

    def hand_over() -> None:
        nonlocal samples, first
        trajectory.duration = state.t
        peak = max(samples[0::2])
        if peak > trajectory.max_altitude:
            trajectory.max_altitude = peak
        consume(Block(samples, state.heading, first))
        first += len(samples) // 2
        samples = []

    target = 0.0
    for cmd in plan.commands:
        kind = cmd.kind
        if kind == mission.CONDITION_YAW:
            if samples:
                hand_over()
            state.heading = cmd.p1 % 360.0
            continue
        if kind == mission.DO_DIGICAM_CONTROL:
            trajectory.camera_events.append(CameraEvent(t=state.t, altitude=state.altitude,
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
        while True:
            done = step(state, cfg, target, end, band,
                        min(stop, state.t + CSV_CHUNK_ROWS * DT), samples)
            if samples:
                hand_over()
            if done or state.battery_remaining <= 0.0 or state.t > stop:
                break
        if not done:
            if state.battery_remaining <= 0.0:
                trajectory.landing_offset = _drift(state.t)
                raise BatteryExhaustedError(trajectory)
            if state.t > limit_s:
                raise SimulationError(f"flight passed {limit_s:g} s, the logger clock's limit")
            raise SimulationError(overdue)
        if kind == mission.LAND:
            state.altitude = 0.0
            state.vertical_speed = 0.0
            samples, first = [0.0, 0.0], first - 1

    if samples:
        hand_over()
    trajectory.landing_offset = _drift(state.t)
    return trajectory

