"""Airframe performance math: thrust/weight sizing, propeller thrust,
service ceiling, wind limits, drift, battery load and reliability arithmetic.

Thrust is carried in gram-force wherever it is a sizing quantity (matching
motor datasheets); conversion to Newtons happens only inside the propeller
thrust formula and the flight simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atmosphere import G0, TROPOPAUSE_M, density_ratio

IN_TO_M = 0.0254          # inches to metres
GF_TO_N = G0 / 1000.0     # gram-force to Newtons
USABLE_FRACTION = 0.8     # of the pack capacity a flight may draw

# Lower bounds of the Beaufort bands in km/h, index 0..12.
BEAUFORT_LOWER_KMH = (0.0, 1.0, 6.0, 12.0, 20.0, 29.0, 39.0, 50.0, 62.0, 75.0, 89.0, 103.0, 118.0)


class NoCeilingError(ValueError):
    """Raised when the airframe cannot reach thrust/weight = 1 aloft."""


@dataclass(frozen=True)
class MotorSpec:
    """Brushless motor; the math reads only its full-throttle static thrust."""

    max_thrust_per_motor: float  # gram-force at sea level, full throttle

    def __post_init__(self) -> None:
        if self.max_thrust_per_motor <= 0.0:
            raise ValueError("max_thrust_per_motor must be positive")


@dataclass(frozen=True)
class PropSpec:
    """Propeller geometry; diameter and pitch in inches."""

    diameter: float   # in
    pitch: float      # in
    max_rpm: float

    def __post_init__(self) -> None:
        if min(self.diameter, self.pitch, self.max_rpm) <= 0.0:
            raise ValueError("all propeller fields must be positive")


@dataclass(frozen=True)
class BatterySpec:
    """LiPo pack; capacity in mAh, discharge rating in C."""

    capacity_mah: float
    c_rate: float

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0.0 or self.c_rate <= 0.0:
            raise ValueError("capacity and c_rate must be positive")

    @property
    def capacity_ah(self) -> float:
        return self.capacity_mah / 1000.0


@dataclass(frozen=True)
class AirframeConfig:
    """Complete airframe description used by the sizing math and simulator."""

    motor: MotorSpec
    n_motors: int
    prop: PropSpec
    battery: BatterySpec
    total_mass: float               # g, all-up weight
    frame_drag_coefficient: float   # N s^2/m^2, vertical quadratic drag
    body_drag_area: float           # m^2, effective frontal area in forward flight
    mtbf_hours: float

    def __post_init__(self) -> None:
        if self.n_motors < 1:
            raise ValueError("n_motors must be at least 1")
        if self.total_mass <= 0.0:
            raise ValueError("total_mass must be positive")
        if self.frame_drag_coefficient < 0.0 or self.body_drag_area < 0.0:
            raise ValueError("drag parameters must be non-negative")

    @property
    def weight_n(self) -> float:
        return self.total_mass / 1000.0 * G0


def reference_config() -> AirframeConfig:
    """The shipped default airframe: a 2 kg quad with T/W = 2 at sea level.

    frame_drag_coefficient is calibrated so that the full-throttle
    sea-level terminal climb of this airframe is 120 ft/s (36.576 m/s).
    """
    return AirframeConfig(
        motor=MotorSpec(max_thrust_per_motor=1000.0),  # 2204, 2300 KV
        n_motors=4,
        prop=PropSpec(diameter=5.0, pitch=4.5, max_rpm=30000.0),
        battery=BatterySpec(capacity_mah=5000.0, c_rate=50.0),  # 4S, 3.7 V per cell
        total_mass=2000.0,
        frame_drag_coefficient=0.014661,
        body_drag_area=0.03,
        mtbf_hours=160.0,
    )


def thrust_to_weight(cfg: AirframeConfig) -> float:
    """Sea-level thrust/weight ratio; 1.0 means hover at full throttle."""
    return cfg.motor.max_thrust_per_motor * cfg.n_motors / cfg.total_mass


def pitch_speed(prop: PropSpec, rpm: float) -> float:
    """Theoretical axial speed of the propeller in m/s at the given rpm."""
    return rpm * IN_TO_M * prop.pitch / 60.0


def prop_thrust(prop: PropSpec, rpm: float, v0: float = 0.0) -> float:
    """Propeller thrust in Newtons at the given rpm and inflow speed v0 (m/s).

    F = 1.225 * pi*(0.0254*d)^2/4 * (Vp^2 - Vp*v0) * (d / (3.29546*pitch))^1.5
    with Vp the pitch speed.  Negative results signal inflow faster than
    the pitch speed and are returned as-is.
    """
    if not 0.0 <= rpm <= prop.max_rpm:
        raise ValueError(f"rpm {rpm!r} outside [0, {prop.max_rpm}]")
    if v0 < 0.0:
        raise ValueError("inflow speed must be non-negative")
    vp = pitch_speed(prop, rpm)
    disk = IN_TO_M * prop.diameter
    area = math.pi * disk * disk / 4.0
    correction = (prop.diameter / (3.29546 * prop.pitch)) ** 1.5
    return 1.225 * area * (vp * vp - vp * v0) * correction


def thrust_at_altitude(static_thrust_sl: float, h: float) -> float:
    """De-rate a sea-level static thrust (gram-force) to altitude h by density ratio."""
    return static_thrust_sl * density_ratio(h)


def required_static_thrust(target_thrust_at_alt: float, h: float) -> float:
    """Sea-level static thrust (gram-force) needed to deliver the target thrust at h."""
    return target_thrust_at_alt / density_ratio(h)


def service_ceiling(cfg: AirframeConfig) -> float:
    """Altitude (m) where the density-scaled thrust/weight ratio crosses 1.

    Bisection, resolved far below 1 m so that T/W at the returned altitude
    is 1 within 1e-6.
    """
    tw0 = thrust_to_weight(cfg)
    if tw0 <= 1.0:
        raise NoCeilingError(f"sea-level thrust/weight {tw0:.3f} <= 1; cannot climb")

    def tw(h: float) -> float:
        return tw0 * density_ratio(h)

    if tw(TROPOPAUSE_M) > 1.0:
        raise NoCeilingError("ceiling lies above the troposphere model range")
    lo, hi = 0.0, TROPOPAUSE_M
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if tw(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def max_progressive_speed(cfg: AirframeConfig) -> float:
    """Largest sustainable forward speed in km/h.

    Solves the full-throttle tilt equilibrium: thrust (with the free-stream
    speed as propeller inflow) tilted by theta must carry the weight
    vertically and balance the body drag horizontally.  Bisection over
    theta in (0, 80] degrees, converged to 0.1 km/h on the speed.
    """
    weight = cfg.weight_n
    prop = cfg.prop
    vp = pitch_speed(prop, prop.max_rpm)
    static = prop_thrust(prop, prop.max_rpm)
    if cfg.n_motors * static <= weight:
        raise NoCeilingError("propeller static thrust cannot hold a hover")
    rho0 = 1.225

    def airspeed(tilt: float) -> float:
        # vertical balance n*F(v)*cos(t) = W; F is linear in v, so solve exactly
        required = weight / (cfg.n_motors * math.cos(tilt))
        return vp * (1.0 - required / static)

    def residual(tilt: float) -> float:
        v = airspeed(tilt)
        if v <= 0.0:
            return math.inf  # cannot hold altitude at this tilt
        drag = 0.5 * rho0 * v * v * cfg.body_drag_area
        return weight * math.tan(tilt) - drag

    lo, hi = 1e-9, math.radians(80.0)
    if residual(lo) >= 0.0:
        # drag-free limit: bounded only by the pitch speed
        return min(airspeed(lo), vp) * 3.6
    if residual(hi) < 0.0:
        # drag exceeds horizontal thrust over the whole tilt range
        return min(max(airspeed(hi), 0.0), vp) * 3.6
    while (airspeed(lo) - airspeed(hi)) * 3.6 > 0.1:
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return min(0.5 * (airspeed(lo) + airspeed(hi)), vp) * 3.6


def beaufort_to_kmh(bft: int) -> float:
    """Lower bound of a Beaufort band in km/h."""
    if not isinstance(bft, int) or isinstance(bft, bool) or not 0 <= bft <= 12:
        raise ValueError("Beaufort number must be an integer in 0..12")
    return BEAUFORT_LOWER_KMH[bft]


def wind_drift(wind_kmh: float, vmax_kmh: float, duration_s: float) -> float:
    """Downwind landing displacement (m) when the wind outruns the airframe."""
    if duration_s < 0.0:
        raise ValueError("duration must be non-negative")
    return max(0.0, wind_kmh - vmax_kmh) / 3.6 * duration_s


def battery_max_load(battery: BatterySpec) -> float:
    """Maximum continuous discharge current in A: capacity (Ah) x C-rate."""
    return battery.capacity_ah * battery.c_rate


def endurance(battery: BatterySpec, avg_current: float) -> float:
    """Flight time in seconds at a steady average current draw."""
    if avg_current <= 0.0:
        raise ValueError("average current must be positive")
    if avg_current > battery_max_load(battery):
        raise ValueError(f"current {avg_current} A exceeds the pack limit "
                         f"{battery_max_load(battery)} A")
    return battery.capacity_ah / avg_current * 3600.0 * USABLE_FRACTION


def expected_flights(mtbf_h: float, flight_minutes: float) -> int:
    """Failure-free flights implied by the MTBF at a given flight duration."""
    if mtbf_h <= 0.0 or flight_minutes <= 0.0:
        raise ValueError("mtbf and flight duration must be positive")
    return math.floor(mtbf_h * 60.0 / flight_minutes)
