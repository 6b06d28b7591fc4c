import math

import pytest

from asid.airframe import (
    AirframeConfig,
    BatterySpec,
    MotorSpec,
    NoCeilingError,
    PropSpec,
    battery_max_load,
    beaufort_to_kmh,
    endurance,
    expected_flights,
    max_progressive_speed,
    pitch_speed,
    prop_thrust,
    reference_config,
    required_static_thrust,
    service_ceiling,
    thrust_at_altitude,
    thrust_to_weight,
    wind_drift,
)


def _config(thrust_per_motor=1000.0, n_motors=4, mass=2000.0, **overrides):
    base = reference_config()
    kwargs = dict(motor=MotorSpec(max_thrust_per_motor=thrust_per_motor), n_motors=n_motors,
                  prop=base.prop, battery=base.battery, total_mass=mass,
                  frame_drag_coefficient=base.frame_drag_coefficient,
                  body_drag_area=base.body_drag_area, mtbf_hours=base.mtbf_hours)
    kwargs.update(overrides)
    return AirframeConfig(**kwargs)


class TestThrustToWeight:
    def test_hover_at_full_throttle(self):
        assert thrust_to_weight(_config(500.0, 4, 2000.0)) == 1.0

    def test_per_motor_sizing_case(self):
        # 5600/4 = 1400 g per motor on a 2 kg quad gives T/W 2.8
        assert thrust_to_weight(_config(1400.0, 4, 2000.0)) == pytest.approx(2.8)

    def test_hexa(self):
        assert thrust_to_weight(_config(1000.0, 6, 3000.0)) == pytest.approx(2.0)

    def test_mass_scaling_exact(self):
        assert thrust_to_weight(_config(mass=2000.0)) == 2.0 * thrust_to_weight(
            _config(mass=4000.0))


class TestPropThrust:
    PROP = PropSpec(diameter=10.0, pitch=4.5, max_rpm=20000.0)

    def test_zero_at_pitch_speed(self):
        vp = pitch_speed(self.PROP, 8000.0)
        assert prop_thrust(self.PROP, 8000.0, vp) == pytest.approx(0.0, abs=1e-12)

    def test_static_value(self):
        # 1.225 * pi*(0.254)^2/4 * 15.24^2 * (10/14.82957)^1.5 = 7.983 N
        assert prop_thrust(self.PROP, 8000.0) == pytest.approx(7.983, abs=2e-3)

    def test_half_pitch_speed_halves_static(self):
        vp = pitch_speed(self.PROP, 8000.0)
        static = prop_thrust(self.PROP, 8000.0)
        assert prop_thrust(self.PROP, 8000.0, vp / 2.0) == pytest.approx(static / 2.0, rel=1e-12)

    def test_quadratic_in_rpm(self):
        ratio = prop_thrust(self.PROP, 16000.0) / prop_thrust(self.PROP, 8000.0)
        assert ratio == pytest.approx(4.0, rel=1e-9)

    def test_strictly_decreasing_in_inflow(self):
        vp = pitch_speed(self.PROP, 8000.0)
        speeds = [i * vp / 40.0 for i in range(41)]
        values = [prop_thrust(self.PROP, 8000.0, v) for v in speeds]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_past_pitch_speed(self):
        vp = pitch_speed(self.PROP, 8000.0)
        assert prop_thrust(self.PROP, 8000.0, vp * 1.2) < 0.0

    def test_rpm_bounds(self):
        with pytest.raises(ValueError):
            prop_thrust(self.PROP, 30000.0)
        with pytest.raises(ValueError):
            prop_thrust(self.PROP, -1.0)


class TestAltitudeScaling:
    def test_identity_at_sea_level(self):
        assert thrust_at_altitude(5586.0, 0.0) == pytest.approx(5586.0, rel=1e-12)
        assert required_static_thrust(4321.0, 0.0) == pytest.approx(4321.0, rel=1e-12)

    def test_worked_sizing_case(self):
        # thrust available at 20,000 ft from the 5586 g static sizing: ~3 kg
        assert thrust_at_altitude(5586.0, 6096.0) == pytest.approx(2976.3, abs=1.0)
        # and the inverse: 3 kg needed at altitude requires ~5630 g static
        required = required_static_thrust(3000.0, 6096.0)
        assert required == pytest.approx(5630.5, abs=1.0)
        assert abs(required - 5586.0) / 5586.0 < 0.015

    def test_isa_ratio_at_3000(self):
        from asid.atmosphere import isa_density
        expected = 2000.0 * isa_density(0.0) / isa_density(3000.0)
        assert required_static_thrust(2000.0, 3000.0) == pytest.approx(expected, rel=1e-12)

    def test_round_trip_identity(self):
        for h in (0.0, 1234.5, 6096.0, 9000.0):
            back = required_static_thrust(thrust_at_altitude(1777.0, h), h)
            assert back == pytest.approx(1777.0, rel=1e-9)


class TestServiceCeiling:
    def test_tw2_ceiling(self):
        # density ratio 0.5 sits at ~6663 m in the ISA troposphere
        ceiling = service_ceiling(_config(1000.0, 4, 2000.0))
        assert ceiling == pytest.approx(6662.8, abs=1.0)

    def test_reference_matches_design_altitude_band(self):
        ceiling = service_ceiling(reference_config())
        assert abs(ceiling - 6096.0) / 6096.0 < 0.15

    def test_tw_at_ceiling_is_one(self):
        from asid.atmosphere import density_ratio
        cfg = reference_config()
        ceiling = service_ceiling(cfg)
        assert thrust_to_weight(cfg) * density_ratio(ceiling) == pytest.approx(1.0, abs=1e-6)

    def test_barely_hovering_has_low_ceiling(self):
        ceiling = service_ceiling(_config(500.5, 4, 2000.0))
        assert 0.0 < ceiling < 120.0

    def test_no_ceiling_when_overweight(self):
        with pytest.raises(NoCeilingError):
            service_ceiling(_config(500.0, 4, 2000.0))

    def test_strictly_increasing_in_tw(self):
        ceilings = [service_ceiling(_config(t, 4, 2000.0)) for t in (700.0, 1000.0, 1300.0)]
        assert ceilings[0] < ceilings[1] < ceilings[2]


class TestMaxProgressiveSpeed:
    def test_reference_exceeds_wind_limit(self):
        assert max_progressive_speed(reference_config()) >= 75.0

    def test_zero_drag_area_bounded_by_pitch_speed(self):
        cfg = _config(body_drag_area=0.0)
        vp_kmh = pitch_speed(cfg.prop, cfg.prop.max_rpm) * 3.6
        v = max_progressive_speed(cfg)
        assert v <= vp_kmh
        # drag-free equilibrium: v = Vp * (1 - W / (n * static));
        # independent evaluation for the reference propeller
        static = prop_thrust(cfg.prop, cfg.prop.max_rpm)
        expected = pitch_speed(cfg.prop, cfg.prop.max_rpm) * (
            1.0 - cfg.weight_n / (cfg.n_motors * static)) * 3.6
        assert v == pytest.approx(expected, abs=0.2)

    def test_doubled_mass_is_strictly_slower(self):
        assert max_progressive_speed(_config(mass=4000.0)) < \
            max_progressive_speed(_config(mass=2000.0))

    def test_cannot_hover_raises(self):
        with pytest.raises(NoCeilingError):
            max_progressive_speed(_config(mass=6000.0))


class TestBeaufortAndDrift:
    def test_table_anchors(self):
        assert beaufort_to_kmh(9) == 75.0
        assert beaufort_to_kmh(0) == 0.0
        assert beaufort_to_kmh(12) == 118.0

    def test_out_of_range(self):
        for bad in (-1, 13, 2.5, True):
            with pytest.raises(ValueError):
                beaufort_to_kmh(bad)

    def test_drift_zero_when_wind_below_limit(self):
        assert wind_drift(60.0, 75.0, 600.0) == 0.0
        assert wind_drift(75.0, 75.0, 600.0) == 0.0

    def test_drift_worked_case(self):
        # 12 Bft for 3 minutes against a 75 km/h airframe: ~2 km downwind
        drift = wind_drift(118.0, 75.0, 180.0)
        assert drift == pytest.approx(2150.0, rel=1e-12)
        assert abs(drift - 2000.0) / 2000.0 < 0.10

    def test_drift_arithmetic(self):
        assert wind_drift(93.0, 75.0, 60.0) == pytest.approx(300.0, rel=1e-12)

    def test_drift_piecewise_linear_and_continuous(self):
        vmax, duration = 75.0, 120.0
        winds = [vmax + i * 0.5 for i in range(-10, 40)]
        values = [wind_drift(w, vmax, duration) for w in winds]
        for w, v in zip(winds, values):
            expected = max(0.0, w - vmax) / 3.6 * duration
            assert v == pytest.approx(expected, rel=1e-12)
        assert wind_drift(vmax + 1e-9, vmax, duration) < 1e-4


class TestBatteryAndReliability:
    def test_max_load_cases(self):
        assert battery_max_load(BatterySpec(5000.0, 50.0)) == pytest.approx(250.0)
        assert battery_max_load(BatterySpec(1000.0, 1.0)) == pytest.approx(1.0)
        assert battery_max_load(BatterySpec(2200.0, 30.0)) == pytest.approx(66.0)

    def test_endurance(self):
        pack = BatterySpec(5000.0, 50.0)
        assert endurance(pack, 30.0) == pytest.approx(480.0)
        limit = battery_max_load(pack)
        assert endurance(pack, limit) == pytest.approx(
            pack.capacity_ah / limit * 3600.0 * 0.8)
        with pytest.raises(ValueError):
            endurance(pack, limit + 1.0)
        with pytest.raises(ValueError):
            endurance(pack, 0.0)

    def test_expected_flights(self):
        assert expected_flights(160.0, 10.0) == 960
        assert expected_flights(1.0, 60.0) == 1
        assert expected_flights(160.0, 8.0) == 1200


def test_spec_validation():
    with pytest.raises(ValueError):
        PropSpec(diameter=0.0, pitch=4.5, max_rpm=10000.0)
    with pytest.raises(ValueError):
        BatterySpec(capacity_mah=-1.0, c_rate=50.0)
    with pytest.raises(ValueError):
        _config(n_motors=0)
    with pytest.raises(ValueError):
        _config(mass=0.0)
