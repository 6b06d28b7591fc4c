"""Standard-atmosphere model and the barometric conversions used on board.

Two families of conversions live here and are deliberately kept apart,
each with its own fixed constants:

* the ISA troposphere closure (``isa_temperature`` / ``isa_pressure`` /
  ``isa_density`` / ``density_ratio``), used by the airframe performance
  math and the flight dynamics: p0, T0, L, R and the exponent g/(R*L), and
* the altimeter arithmetic of the on-board logger (``mslp_from_station``,
  ``pressure_to_altitude``, ``linear_altitude``), which uses the logger's
  own constants (44330 m, 5.255, 0.12 hPa/m) so that emulated log files
  reproduce the device arithmetic exactly.  The site elevation and the
  sensor pressure correction are the only calibration inputs.
"""

from __future__ import annotations

G0 = 9.80665  # m/s^2, standard gravity

TROPOPAUSE_M = 11000.0  # model validity limit

# ISA troposphere
SEA_LEVEL_PRESSURE = 101325.0   # Pa
SEA_LEVEL_TEMPERATURE = 288.15  # K
LAPSE_RATE = 0.0065             # K/m
GAS_CONSTANT = 287.053          # J/(kg K)
PRESSURE_EXPONENT = G0 / (GAS_CONSTANT * LAPSE_RATE)  # g/(R*L)

# the logger's altimeter
HYPSO_SCALE = 44330.0           # m
HYPSO_EXPONENT = 5.255
LINEAR_ALTIMETER_SLOPE = 0.12   # hPa per metre


def isa_temperature(h: float) -> float:
    """Air temperature in K at altitude h (m), linear lapse; every ISA function checks h here."""
    if not 0.0 <= h <= TROPOPAUSE_M:
        raise ValueError(f"altitude {h!r} m outside troposphere model [0, {TROPOPAUSE_M:.0f}]")
    return SEA_LEVEL_TEMPERATURE - LAPSE_RATE * h


def isa_pressure(h: float) -> float:
    """Static pressure in Pa at altitude h (m): p0 * (T/T0)^(g/(R*L))."""
    return SEA_LEVEL_PRESSURE * (isa_temperature(h) / SEA_LEVEL_TEMPERATURE) ** PRESSURE_EXPONENT


def isa_density(h: float) -> float:
    """Air density in kg/m^3 at altitude h (m) from the ideal gas law."""
    return isa_pressure(h) / (GAS_CONSTANT * isa_temperature(h))


def density_ratio(h: float) -> float:
    """rho(h) / rho(0) = (T/T0)^(g/(R*L) - 1); the thrust de-rating factor with altitude."""
    return (isa_temperature(h) / SEA_LEVEL_TEMPERATURE) ** (PRESSURE_EXPONENT - 1.0)


def mslp_from_station(p_raw: float, elevation: float, pressure_correction: float) -> float:
    """Reduce a raw station pressure (Pa) to mean sea level, in hPa.

    Applies the sensor correction first, then the hypsometric reduction
    with the logger's constants: (p * c) / (1 - elev/44330)^5.255.
    """
    if p_raw <= 0.0:
        raise ValueError("station pressure must be positive")
    reduction = (1.0 - elevation / HYPSO_SCALE) ** HYPSO_EXPONENT
    return p_raw * pressure_correction / reduction / 100.0


def pressure_to_altitude(p: float, mslp: float) -> float:
    """Hypsometric altitude (m) of pressure p (Pa) against a sea-level reference (hPa)."""
    if p <= 0.0:
        raise ValueError("pressure must be positive")
    return HYPSO_SCALE * (1.0 - (p / (mslp * 100.0)) ** (1.0 / HYPSO_EXPONENT))


def linear_altitude(p_hpa: float, mslp_hpa: float) -> float:
    """Linear differential altimeter: (MSLP - p) / 0.12 hPa/m, both in hPa.

    May be negative when the station pressure exceeds the reference.
    """
    return (mslp_hpa - p_hpa) / LINEAR_ALTIMETER_SLOPE
