import math
import random
import statistics
from datetime import datetime

import pytest

from asid.firmware import format_row
from asid.wxindices import (
    FreezingLevel,
    LogParseError,
    LogRow,
    ProfileError,
    SoundingProfile,
    SurfaceSummary,
    build_profile,
    build_report,
    dew_point,
    discomfort_index,
    fit_temperature_gradient,
    freezing_level,
    heat_index,
    parse_log,
    surface_summary,
)


def rothfusz_oracle(t_f: float, rh: float) -> float:
    """Independent evaluation of the published regression, in degF.

    Same branch rule as the sensor-library port: the simple average
    formula below 79 degF, the full regression with both humidity
    adjustments above it.
    """
    simple = 0.5 * (t_f + 61.0 + (t_f - 68.0) * 1.2 + rh * 0.094)
    if simple <= 79.0:
        return simple
    hi = (-42.379 + 2.04901523 * t_f + 10.14333127 * rh
          - 0.22475541 * t_f * rh - 6.83783e-3 * t_f ** 2
          - 5.481717e-2 * rh ** 2 + 1.22874e-3 * t_f ** 2 * rh
          + 8.5282e-4 * t_f * rh ** 2 - 1.99e-6 * t_f ** 2 * rh ** 2)
    if rh < 13.0 and 80.0 <= t_f <= 112.0:
        hi -= ((13.0 - rh) / 4.0) * math.sqrt((17.0 - abs(t_f - 95.0)) / 17.0)
    elif rh > 85.0 and 80.0 <= t_f <= 87.0:
        hi += ((rh - 85.0) / 10.0) * ((87.0 - t_f) / 5.0)
    return hi


class TestDewPoint:
    def test_saturation_returns_temperature(self):
        for t in (-10.0, 0.0, 15.0, 35.0):
            assert dew_point(t, 100.0) == pytest.approx(t, abs=1e-12)

    def test_magnus_worked_case(self):
        assert dew_point(20.0, 50.0) == pytest.approx(9.26, abs=0.05)

    def test_monotone_in_humidity(self):
        for t in (-10.0, 0.0, 20.0, 40.0):
            values = [dew_point(t, rh) for rh in range(5, 101, 5)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_never_above_temperature(self):
        for t in range(-10, 41, 5):
            for rh in range(5, 101, 5):
                dp = dew_point(float(t), float(rh))
                assert dp <= t + 1e-9
                if rh < 100:
                    assert dp < t

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dew_point(20.0, 0.0)
        with pytest.raises(ValueError):
            dew_point(20.0, -5.0)
        with pytest.raises(ValueError):
            dew_point(99.0, 50.0)


class TestHeatIndex:
    def test_simple_branch_worked_case(self):
        # 25 C / 40 %: simple formula gives 76.28 F = 24.6 C
        assert heat_index(25.0, 40.0) == pytest.approx(24.6, abs=0.05)

    def test_cold_input_stays_on_simple_branch(self):
        for rh in (0.0, 30.0, 60.0, 100.0):
            t_f = 10.0 * 1.8 + 32.0
            expected = 0.5 * (t_f + 61.0 + (t_f - 68.0) * 1.2 + rh * 0.094)
            assert heat_index(10.0, rh) == pytest.approx((expected - 32.0) / 1.8, abs=1e-9)

    def test_matches_independent_regression_on_grid(self):
        # 20x20 grid spanning both branches; tolerance 0.1 degF
        for i in range(20):
            for j in range(20):
                t_c = 10.0 + i * (40.0 - 10.0) / 19.0
                rh = 5.0 + j * (100.0 - 5.0) / 19.0
                ours_f = heat_index(t_c, rh) * 1.8 + 32.0
                assert ours_f == pytest.approx(rothfusz_oracle(t_c * 1.8 + 32.0, rh),
                                               abs=0.1)

    def test_full_branch_worked_case(self):
        t_f = 30.0 * 1.8 + 32.0
        expected_f = rothfusz_oracle(t_f, 70.0)
        assert heat_index(30.0, 70.0) * 1.8 + 32.0 == pytest.approx(expected_f, abs=0.1)

    def test_branch_threshold_behaviour(self):
        # The reference algorithm is discontinuous at 79 degF; the measured
        # jump reaches ~1.7 degF near saturation, so assert the branch rule
        # itself plus a documented bound on the jump size.
        max_jump = 0.0
        for rh in range(20, 101, 10):
            # temperature where the simple formula hits exactly 79 degF
            t_f = (79.0 + 0.5 * (81.6 - 61.0) - 0.5 * rh * 0.094) / (0.5 * 2.2)
            below = heat_index((t_f - 1e-6 - 32.0) / 1.8, float(rh)) * 1.8 + 32.0
            above = heat_index((t_f + 1e-6 - 32.0) / 1.8, float(rh)) * 1.8 + 32.0
            assert below == pytest.approx(79.0, abs=1e-4)
            max_jump = max(max_jump, abs(above - below))
        assert max_jump < 2.0


class TestDiscomfortIndex:
    def test_pivot_temperature(self):
        for rh in (0.0, 25.0, 50.0, 100.0):
            assert discomfort_index(14.5, rh) == pytest.approx(14.5, rel=1e-12)

    def test_saturation_returns_temperature(self):
        for t in (0.0, 14.5, 30.0):
            assert discomfort_index(t, 100.0) == pytest.approx(t, rel=1e-12)

    def test_worked_case(self):
        assert discomfort_index(30.0, 60.0) == pytest.approx(26.59, abs=1e-9)


def _profile(levels, surface=None, when=None):
    return SoundingProfile(
        levels=tuple(levels),
        surface=surface or SurfaceSummary(15.0, 50.0, 1013.25),
        collection_time=when or datetime(2021, 6, 1, 10, 18, 0),
    )


def _level(alt, temp, rh=50.0, p=1000.0):
    return LogRow("01.06.2021", "10:16:00", temp, rh, 13.9, p, alt)


class TestFreezingLevel:
    def test_bracketed_midpoint(self):
        result = freezing_level(_profile([_level(0.0, 2.0), _level(100.0, -2.0)]))
        assert result.status == "interpolated"
        assert result.altitude_m == pytest.approx(50.0, rel=1e-12)

    def test_extrapolated_linear_profile(self):
        levels = [_level(h, 15.0 - 0.0065 * h) for h in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)]
        result = freezing_level(_profile(levels))
        assert result.status == "extrapolated"
        assert result.altitude_m == pytest.approx(15.0 / 0.0065, abs=1e-6)

    def test_isothermal_is_indeterminate(self):
        result = freezing_level(_profile([_level(h, 10.0) for h in (5.0, 15.0, 25.0)]))
        assert result.status == "indeterminate"
        assert result.altitude_m is None

    def test_inversion_is_indeterminate(self):
        result = freezing_level(_profile([_level(h, 10.0 + 0.01 * h) for h in (5.0, 15.0, 25.0)]))
        assert result.status == "indeterminate"

    def test_below_surface_flagged(self):
        levels = [_level(h, -5.0 - 0.0065 * h) for h in (5.0, 15.0, 25.0)]
        result = freezing_level(_profile(levels))
        assert result.status == "below_surface"
        assert result.altitude_m < 0.0

    @pytest.mark.parametrize("temps, altitude", [
        ([-1.0, 0.0], 20.0), ([-2.0, -1.0, 0.0], 30.0), ([0.0, -1.0], 10.0)],
        ids=["top_of_two", "top_of_three", "bottom"])
    def test_a_level_measured_at_zero_is_the_freezing_level(self, temps, altitude):
        levels = [_level(10.0 * (i + 1), t) for i, t in enumerate(temps)]
        result = freezing_level(_profile(levels))
        assert (result.status, result.altitude_m) == ("interpolated", altitude)

    def test_needs_two_levels(self):
        with pytest.raises(ProfileError):
            freezing_level(_profile([_level(5.0, 10.0)]))


class TestSurfaceSummary:
    def _row(self, t, rh=50.0, hi=13.9, p=1013.25, alt=0.0):
        return LogRow("01.06.2021", "10:15:00", t, rh, hi, p, alt)

    def test_single_row(self):
        summary = surface_summary([self._row(20.1)])
        assert summary.temperature == 20.1

    def test_even_count_median(self):
        rows = [self._row(t) for t in (20.1, 20.2, 20.2, 20.3, 20.4, 20.5)]
        assert surface_summary(rows).temperature == pytest.approx(20.25)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        rows = [self._row(15.0 + i * 0.1, rh=40.0 + i, p=1000.0 + i) for i in range(6)]
        reference = surface_summary(rows)
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert surface_summary(shuffled) == reference

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            surface_summary([])


class TestLogParsing:
    def test_round_trip_through_row_format(self):
        samples = [
            LogRow("01.06.2021", "10:15:30", 25.3, 45.2, 25.1, 1005.25, 41.67),
            LogRow("01.06.2021", "10:15:33", 14.97, 49.3, 13.86, 1007.58, 5.04),
        ]
        blob = b"".join(format_row(s) for s in samples)
        rows = parse_log(blob)
        assert len(rows) == 2
        for row, sample in zip(rows, samples):
            assert row.temperature == pytest.approx(sample.temperature, abs=0.05)
            assert row.humidity == pytest.approx(sample.humidity, abs=0.05)
            assert row.pressure_hpa == pytest.approx(sample.pressure_hpa, abs=0.005)
            assert row.cal_altitude == pytest.approx(sample.cal_altitude, abs=0.005)
        # every value of the first row prints exactly, so it parses back equal
        assert parse_log(format_row(samples[0])) == [samples[0]]

    def test_a_row_refuses_field_assignment(self):
        row = LogRow("01.06.2021", "10:15:30", 25.3, 45.2, 25.1, 1005.25, 41.67)
        with pytest.raises(AttributeError):
            row.temperature = 0.0
        assert row.temperature == 25.3

    def test_parse_error_carries_row_number(self):
        blob = b"01.06.2021,10:15:30,25.3,45.2,25.1,1005.25,41.67,\r\nnot,a,row\r\n"
        with pytest.raises(LogParseError) as err:
            parse_log(blob)
        assert err.value.row == 2

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "ovf"])
    def test_out_of_range_field_is_parse_error(self, field):
        good = b"01.06.2021,10:15:30,25.3,45.2,25.1,1005.25,41.67,\r\n"
        bad = f"01.06.2021,10:15:33,25.3,45.2,{field},1005.25,41.67,\r\n".encode()
        with pytest.raises(LogParseError) as err:
            parse_log(good + bad)
        assert err.value.row == 2

    def test_timestamp_parsing(self):
        row = parse_log(b"01.06.2021,10:15:30,25.3,45.2,25.1,1005.25,41.67,\r\n")[0]
        assert row.timestamp == datetime(2021, 6, 1, 10, 15, 30)


GROUND_BLOB = b"".join(
    f"01.06.2021,10:15:{i:02d},15.0,50.0,13.9,1008.18,0.00,\r\n".encode()
    for i in (0, 3, 7, 10, 14, 17))


def _air_blob(levels):
    rows = []
    for i, (alt, temp) in enumerate(levels):
        rows.append(f"01.06.2021,10:16:{i:02d},{temp:.1f},49.0,13.7,1007.00,{alt:.2f},\r\n")
    return "".join(rows).encode()


class TestBuildProfileAndReport:
    def test_profile_uses_cal_altitude(self):
        air = _air_blob([(5.04, 15.0), (10.06, 14.9), (17.88, 14.9)])
        profile = build_profile(air, GROUND_BLOB)
        assert [l.cal_altitude for l in profile.levels] == [5.04, 10.06, 17.88]
        assert profile.surface.temperature == 15.0
        assert profile.collection_time == datetime(2021, 6, 1, 10, 16, 2)

    def test_shuffled_air_rows_rejected(self):
        air = _air_blob([(10.06, 14.9), (5.04, 15.0)])
        with pytest.raises(ProfileError):
            build_profile(air, GROUND_BLOB)

    def test_empty_air_gives_surface_only_report(self):
        profile = build_profile(b"", GROUND_BLOB)
        report = build_report(profile)
        assert report.freezing_level.status == "indeterminate"
        assert report.fitted_lapse_rate is None
        assert report.surface_temperature == 15.0
        assert report.dew_point < 15.0

    def test_full_report_fields(self):
        levels = [(h * 0.996, 15.0 - 0.0065 * h) for h in (5.0, 10.0, 15.0, 20.0, 25.0,
                                                           30.0, 35.0)]
        air = _air_blob(levels)
        profile = build_profile(air, GROUND_BLOB)
        report = build_report(profile)
        assert report.surface_temperature == 15.0
        assert report.surface_humidity == 50.0
        assert report.surface_pressure == 1008.18
        assert report.dew_point == pytest.approx(dew_point(15.0, 50.0), rel=1e-12)
        assert report.discomfort_index == pytest.approx(discomfort_index(15.0, 50.0),
                                                        rel=1e-12)
        assert report.heat_index == pytest.approx(heat_index(15.0, 50.0), rel=1e-12)
        assert report.freezing_level.status == "extrapolated"
        assert report.fitted_lapse_rate is not None
        assert report.collection_time == profile.collection_time


def test_gradient_fit_recovers_exact_line():
    levels = tuple(_level(h, 12.0 - 0.007 * h) for h in (3.0, 9.0, 21.0, 30.0))
    intercept, slope = fit_temperature_gradient(levels)
    assert intercept == pytest.approx(12.0, abs=1e-9)
    assert slope == pytest.approx(-0.007, abs=1e-12)
