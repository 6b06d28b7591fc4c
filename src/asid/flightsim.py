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
from math import cos, log, sin, sqrt, tau
from typing import BinaryIO, Callable, Iterator, NamedTuple

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


def _noise_draws(rng: random.Random) -> tuple[float, float, float]:
    """The next three ``rng.gauss(0.0, 1.0)`` draws, with ``rng`` left as those
    three calls leave it.

    random.gauss (Box-Muller) draws in pairs: one pair of ``rng.random()``
    calls gives a cosine and a sine; it returns ``0.0 + cosine`` and keeps the
    sine in ``rng.gauss_next`` for the next call.  So three draws take the kept
    sine and one pair, or two pairs and keep the second one's sine.  This is
    the same arithmetic, in the same order, as CPython's random.gauss (3.10 to
    3.13; ``math.tau`` is its TWOPI, 2.0 * pi); the stdlib is its oracle in
    tests/test_flightsim.py.
    """
    random, spare = rng.random, rng.gauss_next
    x2pi = random() * tau
    g2rad = sqrt(-2.0 * log(1.0 - random()))
    if spare is not None:
        rng.gauss_next = None
        return 0.0 + spare, 0.0 + cos(x2pi) * g2rad, 0.0 + sin(x2pi) * g2rad
    first, second = 0.0 + cos(x2pi) * g2rad, 0.0 + sin(x2pi) * g2rad
    x2pi = random() * tau
    g2rad = sqrt(-2.0 * log(1.0 - random()))
    rng.gauss_next = sin(x2pi) * g2rad
    return first, second, 0.0 + cos(x2pi) * g2rad


def readings(env: Environment, altitude: float,
             rng: random.Random) -> Iterator[tuple[float, float, float]]:
    """The sensor's (temperature, humidity, pressure) readings at one altitude,
    without end; deterministic for a given rng state.

    Each reading adds one ``rng.gauss(0.0, 1.0)`` draw times its sigma to each
    channel's truth, in the order temperature, humidity, pressure (drawn with
    _noise_draws), then clamps the humidity to [0, 100] %.  A negative
    altitude raises ValueError before any draw, and a pressure at or below
    0 Pa raises SimulationError.  The altitude terms are worked out once.
    """
    if altitude < 0.0:
        raise ValueError("altitude must be non-negative")
    temperature = env.surface_temperature - env.temperature_lapse * altitude
    humidity = env.surface_humidity - env.humidity_lapse * altitude
    pressure = env.surface_pressure * 100.0 * (1.0 - altitude / HYPSO_SCALE) ** HYPSO_EXPONENT
    noise, draws = env.sensor_noise, _noise_draws
    t_sigma, h_sigma, p_sigma = noise.temperature, noise.humidity, noise.pressure
    while True:
        t_draw, h_draw, p_draw = draws(rng)
        h = humidity + h_draw * h_sigma
        h = h if h > 0.0 else 0.0  # -0.0 reads 0.0, as in max(0.0, h)
        p = pressure + p_draw * p_sigma
        if p <= 0.0:
            raise SimulationError(f"sensor noise drove the pressure to {p:g} Pa")
        yield temperature + t_draw * t_sigma, h if h < 100.0 else 100.0, p


def true_sample(env: Environment, altitude: float,
                rng: random.Random) -> tuple[float, float, float]:
    """The first of ``readings(env, altitude, rng)``: one poll's reading."""
    return next(readings(env, altitude, rng))


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
    state, the airframe's figures, the module's constants and density_ratio
    are read into locals once per call, and the state is written back when
    the call ends; the loop calls no builtin.

    Returns True when the command is done, and False when the flight must
    stop or pause: the pack is empty (checked first) or the time passed
    ``stop``.
    """
    t, altitude, v, battery = state.t, state.altitude, state.vertical_speed, \
        state.battery_remaining
    n_motors, max_thrust, hover = cfg.n_motors, cfg.motor.max_thrust_per_motor, \
        hover_throttle(cfg)
    weight_n, drag, mass_kg = cfg.weight_n, cfg.frame_drag_coefficient, cfg.total_mass / 1000.0
    gain, limit, floor, throttle_gain, dt = CLIMB_GAIN, CLIMB_SPEED_LIMIT, -CLIMB_SPEED_LIMIT, \
        THROTTLE_GAIN, DT
    gf_to_n, hover_current, ratio_at = GF_TO_N, HOVER_CURRENT_A, density_ratio
    extend = samples.extend
    done = True
    # abs(altitude - target) > band, NaN included: x - y is exactly -(y - x)
    while t < end and (altitude - target > band or target - altitude > band):
        # the controller; each clamp picks what min/max would, -0.0 included
        ratio = ratio_at(altitude)
        v_cmd = gain * (target - altitude)
        v_cmd = v_cmd if v_cmd < limit else limit
        v_cmd = v_cmd if v_cmd > floor else floor
        throttle = hover / ratio + throttle_gain * (v_cmd - v)
        throttle = throttle if throttle < 1.0 else 1.0
        throttle = throttle if throttle > 0.0 else 0.0
        thrust_n = throttle * n_motors * max_thrust * gf_to_n * ratio
        # abs(v), the sign of a zero included: 0.0 - v is 0.0 for either zero
        v = v + (thrust_n - weight_n - drag * v * (v if v > 0.0 else 0.0 - v)) / mass_kg * dt
        altitude = altitude + v * dt
        if altitude <= 0.0:  # ground stop
            altitude = 0.0
            v = v if v > 0.0 else 0.0
        battery = battery - hover_current * (throttle / hover) ** 1.5 * dt / 3.6
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
    Sample i is ``count + i`` DT steps after the start.  The start sample and
    each LAND stop (the ground sample added after a landing) are blocks of
    their own: the start sample's count is 0, and a LAND stop repeats the
    count of the sample before it.  Every other block's first sample is one
    step after the last sample of the block before.
    """

    samples: list[float]
    heading: float  # deg
    count: int      # DT steps from the start to the first sample


CSV_HEADER = b"t,altitude,vertical_speed,heading\n"
# The rows of one second of trajectory.csv, a row per DT (which is 0.01 s):
# S is the whole second and H the heading, both put in by Trajectory.to_csv
_CSV_ROWS = tuple(b"S.%02d,%%.4f,%%.4f,H\n" % hundredth for hundredth in range(100))


@dataclass
class Trajectory:
    """Running summary of a flight, kept as ``run_mission`` hands its blocks over."""

    duration: float = 0.0      # s, the t of the last sample handed over
    max_altitude: float = 0.0  # m, the peak of the samples handed over
    camera_events: list[CameraEvent] = field(default_factory=list)
    landing_offset: float = 0.0  # m downwind at the duration

    @staticmethod
    def to_csv(out: BinaryIO, block: Block) -> None:
        """Write a block's rows of trajectory.csv to the binary stream ``out``
        with one bytes ``%``; the header (CSV_HEADER) is the caller's.

        Row i's t is printed from its step count ``count + i``, with no float:
        each whole second the block covers takes its slice of _CSV_ROWS with
        the second's digits in place of ``S``, the heading goes in place of
        every ``H``, and the flat (altitude, speed) list fills the rest.  Up
        to the logger clock's limit the t ``step`` sums stays within 1e-5 s of
        ``(count + i) / 100``, so these are the digits ``%.2f`` prints of it.
        """
        samples, count = block.samples, block.count
        end = count + len(samples) // 2
        seconds = []
        for second in range(count // 100, (end - 1) // 100 + 1):
            base = 100 * second
            seconds.append(b"".join(_CSV_ROWS[max(count - base, 0):end - base])
                           .replace(b"S", b"%d" % second))
        out.write(b"".join(seconds).replace(b"H", b"%.1f" % block.heading) % tuple(samples))

    def camera_manifest(self) -> str:
        events = [{"t": round(e.t, 2), "altitude": round(e.altitude, 3),
                   "heading": e.heading} for e in self.camera_events]
        return json.dumps(events, indent=2) + "\n"


def plan_violations(plan: mission.MissionPlan, ceiling: float) -> list[str]:
    """``mission.validate`` against this flight's limits: the ceiling, the
    longest leg a command flies by its deadline (CLIMB_SPEED_LIMIT *
    COMMAND_TIMEOUT_S) and the logger clock's limit on the DELAY total."""
    return mission.validate(plan, ceiling, CLIMB_SPEED_LIMIT * COMMAND_TIMEOUT_S,
                            CLOCK_LIMIT_MS / 1000.0)


def run_mission(plan: mission.MissionPlan, cfg: AirframeConfig, env: Environment,
                consume: Callable[[Block], None]) -> Trajectory:
    """Validate a plan with plan_violations at the service ceiling, as ``asid
    mission validate`` does at its --ceiling, fly it, hand its samples to
    ``consume`` block by block and return the flight's summary.

    Each call of ``step`` flies at most CSV_CHUNK_ROWS * DT of one motion
    command (a longer command takes more calls), and its samples are handed
    over when it returns, so no sample list outlives its block.  The start
    sample and each LAND stop are handed over at once, as blocks of their own.

    Every refusal comes before the first ``step``: MissionValidationError for
    unflyable plans (among them a plan whose DELAY time alone passes the
    logger clock's limit, or with a leg longer than a command flies by its
    deadline), and NoCeilingError for a propeller that cannot hold a hover.
    In flight, raises BatteryExhaustedError (carrying the summary so far) when
    the pack empties, and SimulationError when a command passes its deadline,
    the flight outlasts the logger clock (CLOCK_LIMIT_MS) or climbs past
    TROPOPAUSE_M.
    """
    violations = plan_violations(plan, service_ceiling(cfg))
    if violations:
        raise mission.MissionValidationError(violations)

    speed = max_progressive_speed(cfg)  # km/h; a prop that cannot hover raises here
    limit_s = CLOCK_LIMIT_MS / 1000.0

    state = SimState(battery_remaining=cfg.battery.capacity_mah)
    trajectory = Trajectory()

    def hand_over(samples: list[float], first: int) -> None:
        trajectory.duration = state.t
        trajectory.landing_offset = wind_drift(env.wind, speed, state.t)
        peak = max(samples[0::2])
        if peak > trajectory.max_altitude:
            trajectory.max_altitude = peak
        consume(Block(samples, state.heading, first))

    hand_over([0.0, 0.0], 0)  # the start sample
    last = 0  # the count of the last sample handed over
    target = 0.0
    for cmd in plan.commands:
        kind = cmd.kind
        if kind == mission.CONDITION_YAW:
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
            samples = []
            try:
                done = step(state, cfg, target, end, band,
                            min(stop, state.t + CSV_CHUNK_ROWS * DT), samples)
            except ValueError as exc:  # density_ratio: an overshoot past the ceiling's cap
                raise SimulationError(f"the flight left the atmosphere model: {exc}") from None
            if samples:
                hand_over(samples, last + 1)
                last += len(samples) // 2
            if done or state.battery_remaining <= 0.0 or state.t > stop:
                break
        if not done:
            if state.battery_remaining <= 0.0:
                raise BatteryExhaustedError(trajectory)
            if state.t > limit_s:
                raise SimulationError(f"flight passed {limit_s:g} s, the logger clock's limit")
            raise SimulationError(overdue)
        if kind == mission.LAND:
            state.altitude = 0.0
            state.vertical_speed = 0.0
            hand_over([0.0, 0.0], last)  # the LAND stop
    return trajectory

