"""Deterministic vertical flight dynamics executing a mission plan.

The sounding is a vertical column: the simulator integrates altitude only
(semi-implicit Euler), heading is tracked as a state variable, and
horizontal wind appears solely as the landing drift offset.  All physics
runs in plain double precision with no hidden randomness, so a fixed seed
yields bit-identical trajectories.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import mission
from .airframe import GF_TO_N, AirframeConfig, max_progressive_speed, service_ceiling, \
    thrust_to_weight, wind_drift
from .atmosphere import G0, HYPSO_EXPONENT, HYPSO_SCALE, density_ratio
from .firmware import CLOCK_LIMIT_MS

# Altitude controller, run by run_mission before every step: proportional
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


class BatteryExhaustedError(RuntimeError):
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


@dataclass(frozen=True)
class RawReading:
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
    return RawReading(temperature=temperature, humidity=humidity, pressure=pressure)


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
    camera_events: list[CameraEvent] = field(default_factory=list)


def hover_throttle(cfg: AirframeConfig) -> float:
    """Throttle fraction that balances the weight at sea level."""
    return 1.0 / thrust_to_weight(cfg)


def step(state: SimState, cfg: AirframeConfig, throttle: float, dt: float,
         ratio: float) -> SimState:
    """Advance the vertical dynamics by dt (semi-implicit Euler).

    Acceleration is (thrust - weight - quadratic frame drag) / mass, with
    the static thrust converted from gram-force to Newtons and de-rated by
    ``ratio``, the density ratio at ``state.altitude`` (the caller has
    already evaluated it for its controller).  Battery current scales as
    (throttle / hover throttle)^1.5.
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError("dt must lie in (0, 0.1] s")
    if not 0.0 <= throttle <= 1.0:
        raise ValueError("throttle must lie in [0, 1]")
    mass_kg = cfg.total_mass / 1000.0
    thrust_n = throttle * cfg.n_motors * cfg.motor.max_thrust_per_motor * GF_TO_N * ratio
    v = state.vertical_speed
    accel = (thrust_n - mass_kg * G0 - cfg.frame_drag_coefficient * v * abs(v)) / mass_kg
    v_next = v + accel * dt
    altitude = state.altitude + v_next * dt
    if altitude <= 0.0:  # ground stop
        altitude = 0.0
        v_next = v_next if v_next > 0.0 else 0.0
    current = HOVER_CURRENT_A * (throttle / hover_throttle(cfg)) ** 1.5
    battery = state.battery_remaining - current * dt / 3.6
    state.battery_remaining = battery if battery > 0.0 else 0.0
    state.t += dt
    state.altitude = altitude
    state.vertical_speed = v_next
    return state


@dataclass
class Trajectory:
    """Record of a simulated flight, one sample per DT."""

    samples: list[tuple[float, float, float, float]]  # (t, altitude, v, heading)
    camera_events: list[CameraEvent]
    landing_offset: float  # m downwind

    @property
    def duration(self) -> float:
        return self.samples[-1][0] if self.samples else 0.0

    @property
    def max_altitude(self) -> float:
        return max(s[1] for s in self.samples) if self.samples else 0.0

    def altitude_at(self, t: float) -> float:
        if not self.samples:
            return 0.0
        index = min(int(round(t / DT)), len(self.samples) - 1)
        return self.samples[max(0, index)][1]

    def to_csv(self) -> str:
        return "t,altitude,vertical_speed,heading\n" \
            + "".join(map("%.2f,%.4f,%.4f,%.1f\n".__mod__, self.samples))

    def camera_manifest(self) -> str:
        events = [{"t": round(e.t, 2), "altitude": round(e.altitude, 3),
                   "heading": e.heading} for e in self.camera_events]
        return json.dumps(events, indent=2) + "\n"


def run_mission(plan: mission.MissionPlan, cfg: AirframeConfig, env: Environment) -> Trajectory:
    """Validate a plan against the service ceiling, fly it and return the
    sampled trajectory; this is the one place a plan is checked.

    Each integrator step evaluates the density ratio once, computes the
    controller's throttle from it and hands both to ``step``.

    Raises MissionValidationError for unflyable plans,
    BatteryExhaustedError (carrying the partial trajectory) when the pack
    empties mid-flight, and RuntimeError when the flight outlasts the
    logger clock (CLOCK_LIMIT_MS).
    """
    violations = mission.validate(plan, ceiling=service_ceiling(cfg))
    if violations:
        raise mission.MissionValidationError(violations)

    state = SimState(battery_remaining=cfg.battery.capacity_mah)
    hover = hover_throttle(cfg)
    samples: list[tuple[float, float, float, float]] = [(0.0, 0.0, 0.0, 0.0)]
    events = state.camera_events
    limit_s = CLOCK_LIMIT_MS / 1000.0

    def advance(target_alt: float) -> None:
        # the controller; each clamp picks what min/max would, -0.0 included
        ratio = density_ratio(state.altitude)
        v_cmd = CLIMB_GAIN * (target_alt - state.altitude)
        v_cmd = v_cmd if v_cmd < CLIMB_SPEED_LIMIT else CLIMB_SPEED_LIMIT
        v_cmd = v_cmd if v_cmd > -CLIMB_SPEED_LIMIT else -CLIMB_SPEED_LIMIT
        throttle = hover / ratio + THROTTLE_GAIN * (v_cmd - state.vertical_speed)
        throttle = throttle if throttle < 1.0 else 1.0
        throttle = throttle if throttle > 0.0 else 0.0
        step(state, cfg, throttle, DT, ratio)
        samples.append((state.t, state.altitude, state.vertical_speed, state.heading))
        if state.battery_remaining <= 0.0:
            raise BatteryExhaustedError(
                Trajectory(samples=samples, camera_events=events,
                           landing_offset=_drift(state.t)))
        if state.t > limit_s:
            raise RuntimeError(f"flight passed {limit_s:g} s, the logger clock's limit")

    def _drift(duration: float) -> float:
        return wind_drift(env.wind, max_progressive_speed(cfg), duration)

    target = 0.0
    for cmd in plan.commands:
        deadline = state.t + COMMAND_TIMEOUT_S
        if cmd.kind == mission.CONDITION_YAW:
            state.heading = cmd.p1 % 360.0
        elif cmd.kind == mission.DO_DIGICAM_CONTROL:
            events.append(CameraEvent(t=state.t, altitude=state.altitude,
                                      heading=state.heading))
        elif cmd.kind == mission.DELAY:
            end = state.t + cmd.p1
            while state.t < end:
                advance(target)
        elif cmd.kind in (mission.TAKEOFF, mission.WAYPOINT):
            target = cmd.alt
            while abs(state.altitude - target) > DEADBAND_M:
                advance(target)
                if state.t > deadline:
                    raise RuntimeError(f"{cmd.kind} to {target:g} m did not converge")
        elif cmd.kind == mission.LAND:
            target = 0.0
            while state.altitude > 0.05:
                advance(0.0)
                if state.t > deadline:
                    raise RuntimeError("landing did not converge")
            state.altitude = 0.0
            state.vertical_speed = 0.0
            samples.append((state.t, 0.0, 0.0, state.heading))

    return Trajectory(samples=samples, camera_events=events,
                      landing_offset=_drift(state.t))
