import math

import pytest

from asid.atmosphere import (
    GAS_CONSTANT,
    SEA_LEVEL_PRESSURE,
    SEA_LEVEL_TEMPERATURE,
    density_ratio,
    isa_density,
    isa_pressure,
    isa_temperature,
    linear_altitude,
    mslp_from_station,
    pressure_to_altitude,
)


def test_sea_level_density_definition():
    assert isa_density(0.0) == pytest.approx(1.225, abs=1e-3)
    assert isa_density(0.0) == pytest.approx(
        SEA_LEVEL_PRESSURE / (GAS_CONSTANT * SEA_LEVEL_TEMPERATURE), rel=1e-12)


def test_density_at_20000_ft_near_published_value():
    # 20,000 ft = 6096 m; the quoted round number is 0.660 kg/m^3
    rho = isa_density(6096.0)
    assert abs(rho - 0.660) / 0.660 < 0.02


def test_density_at_2000_m_closed_form():
    # independent evaluation: T = 288.15 - 13, p = p0*(T/T0)^(g/RL), rho = p/(R T)
    t = 288.15 - 0.0065 * 2000.0
    p = 101325.0 * (t / 288.15) ** (9.80665 / (287.053 * 0.0065))
    assert isa_density(2000.0) == pytest.approx(p / (287.053 * t), rel=1e-12)


def test_temperature_and_pressure_examples():
    assert isa_pressure(0.0) == 101325.0
    assert isa_temperature(6096.0) == pytest.approx(248.526, abs=1e-3)
    assert isa_pressure(6096.0) == pytest.approx(46563.3, abs=1.0)  # ~46.6 kPa


@pytest.mark.parametrize("h", [-1.0, -100.0, 11000.1, 20000.0])
def test_troposphere_domain_errors(h):
    with pytest.raises(ValueError):
        isa_pressure(h)
    with pytest.raises(ValueError):
        isa_density(h)
    with pytest.raises(ValueError):
        isa_temperature(h)
    with pytest.raises(ValueError):
        density_ratio(h)


def test_pressure_and_density_strictly_decreasing_on_grid():
    grid = [i * 11000.0 / 99 for i in range(100)]
    pressures = [isa_pressure(h) for h in grid]
    densities = [isa_density(h) for h in grid]
    assert all(a > b for a, b in zip(pressures, pressures[1:]))
    assert all(a > b for a, b in zip(densities, densities[1:]))


def test_mslp_elevation_zero_is_corrected_pressure():
    assert mslp_from_station(101000.0, 0.0, 0.995) == pytest.approx(1004.95, rel=1e-12)
    # exact identity, not just approximate
    assert mslp_from_station(101000.0, 0.0, 0.995) == 101000.0 * 0.995 / 100.0


def test_mslp_examples():
    assert mslp_from_station(101000.0, 45.0, 0.995) == pytest.approx(1010.328, abs=1e-3)
    assert mslp_from_station(100000.0, 100.0, 1.0) == pytest.approx(1011.939, abs=1e-3)


def test_mslp_rejects_nonpositive_pressure():
    with pytest.raises(ValueError):
        mslp_from_station(0.0, 45.0, 0.995)


def test_pressure_to_altitude_examples():
    assert pressure_to_altitude(101325.0, 1013.25) == 0.0
    assert pressure_to_altitude(95000.0, 1013.25) == pytest.approx(540.4, abs=0.1)
    with pytest.raises(ValueError):
        pressure_to_altitude(0.0, 1013.25)
    with pytest.raises(ValueError):
        pressure_to_altitude(-5.0, 1013.25)


def test_pressure_to_altitude_zero_iff_reference():
    for mslp in (980.0, 1013.25, 1035.0):
        assert pressure_to_altitude(mslp * 100.0, mslp) == pytest.approx(0.0, abs=1e-9)
        assert abs(pressure_to_altitude(mslp * 100.0 - 10.0, mslp)) > 1e-9


def test_round_trip_isa_vs_logger_constants():
    # the logger's 44330/5.255 pair tracks the ISA inverse within 5 m below 3 km
    for h in range(0, 3001, 250):
        recovered = pressure_to_altitude(isa_pressure(float(h)), 1013.25)
        assert abs(recovered - h) < 5.0


def test_linear_altitude_examples():
    assert linear_altitude(1013.25, 1013.25) == 0.0
    assert linear_altitude(1008.25, 1013.25) == pytest.approx(41.6667, abs=1e-4)
    assert linear_altitude(1012.65, 1013.25) == pytest.approx(5.0, rel=1e-9)
    # negative when the station pressure exceeds the reference
    assert linear_altitude(1014.0, 1013.25) < 0.0


def test_linear_altitude_affine_in_pressure():
    for p in (990.0, 1005.5, 1013.25):
        for delta in (0.01, 0.6, 5.0, 17.3):
            diff = linear_altitude(p - delta, 1013.25) - linear_altitude(p, 1013.25)
            assert diff == pytest.approx(delta / 0.12, rel=1e-9)

