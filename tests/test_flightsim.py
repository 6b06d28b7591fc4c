import math
import random

import pytest

from asid.airframe import GF_TO_N, reference_config, service_ceiling, wind_drift, \
    max_progressive_speed
from asid import flightsim
from asid.atmosphere import density_ratio
from asid.flightsim import (
    DEADBAND_M,
    DT,
    BatteryExhaustedError,
    Environment,
    SensorNoise,
    SimState,
    SimulationError,
    run_mission,
    step,
    true_sample,
)
from asid.mission import MissionCommand, MissionParams, MissionPlan, MissionValidationError, \
    TAKEOFF, WAYPOINT, DELAY, LAND, DO_DIGICAM_CONTROL, generate_sounding_profile

CFG = reference_config()
CALM = Environment()

FT = 0.3048


def _terminal_speed_at(altitude: float) -> float:
    """Full-throttle climb speed at which thrust less weight equals the frame drag."""
    thrust_n = CFG.n_motors * CFG.motor.max_thrust_per_motor * GF_TO_N * density_ratio(altitude)
    return math.sqrt((thrust_n - CFG.weight_n) / CFG.frame_drag_coefficient)


def full_throttle_climb(monkeypatch, top: float) -> tuple[SimState, list]:
    """Fly ``step`` from the ground to ``top`` with the throttle held at 1.0.

    With no speed limit the controller asks for far more than full throttle
    toward a target at 2 * top, so the clamp holds it at exactly 1.0; the
    band ends the command at the first sample at or above ``top``.
    """
    monkeypatch.setattr(flightsim, "CLIMB_SPEED_LIMIT", math.inf)
    state = SimState(battery_remaining=1e9)
    samples = []
    assert step(state, CFG, 2.0 * top, math.inf, top, math.inf, samples)
    return state, samples


class TestStep:
    def test_hover_balance_keeps_speed_zero(self):
        # a 2 s DELAY on the ground from rest: the controller asks for the hover throttle
        state = SimState(altitude=0.0, battery_remaining=5000.0)
        samples = []
        assert step(state, CFG, 0.0, 2.0, -1.0, math.inf, samples)
        assert len(samples) == 200
        assert state.vertical_speed == pytest.approx(0.0, abs=1e-12)
        assert state.altitude == pytest.approx(0.0, abs=1e-12)

    def test_sea_level_terminal_climb_is_120_ft_per_s(self):
        terminal = _terminal_speed_at(0.0)
        assert terminal / FT == pytest.approx(120.0, rel=0.15)
        # the drag default is calibrated to land almost exactly on the claim
        assert terminal / FT == pytest.approx(120.0, abs=0.5)
        assert round(terminal / FT, 3) == 119.999

    def test_near_ceiling_terminal_climb_is_55_ft_per_s(self):
        near_ceiling = 0.75 * service_ceiling(CFG)
        terminal = _terminal_speed_at(near_ceiling)
        assert terminal / FT == pytest.approx(55.0, rel=0.20)
        assert round(terminal / FT, 2) == 53.96

    def test_terminal_speed_monotone_decreasing_in_altitude(self):
        altitudes = [i * 1000.0 for i in range(7)]
        speeds = [_terminal_speed_at(h) for h in altitudes]
        assert all(a > b for a, b in zip(speeds, speeds[1:]))

    def test_battery_drains_with_throttle(self):
        state = SimState(battery_remaining=5000.0)
        assert step(state, CFG, 10.0, math.inf, DEADBAND_M, math.inf, [])
        assert state.battery_remaining < 5000.0

    def test_full_throttle_climb_approaches_the_terminal_speed(self, monkeypatch):
        _, samples = full_throttle_climb(monkeypatch, 300.0)
        peak = max(v for _, _, v, _ in samples)
        assert peak < _terminal_speed_at(0.0)
        assert peak == pytest.approx(_terminal_speed_at(300.0), rel=0.01)

    @pytest.mark.parametrize("capacity, stop, stopped_at", [
        (0.5, math.inf, 4), (1e9, 0.5, 50)], ids=["battery", "stop"])
    def test_an_empty_pack_or_the_stop_time_ends_the_command_early(self, capacity, stop,
                                                                   stopped_at):
        state = SimState(battery_remaining=capacity)
        samples = []
        assert not step(state, CFG, 10.0, math.inf, DEADBAND_M, stop, samples)
        assert len(samples) == stopped_at
        assert samples[-1] == (state.t, state.altitude, state.vertical_speed, state.heading)


class TestTrueSample:
    def test_surface_values_exact_with_zero_noise(self):
        rng = random.Random(0)
        reading = true_sample(CALM, 0.0, rng)
        assert reading.temperature == 15.0
        assert reading.humidity == 50.0
        assert reading.pressure == 1013.25 * 100.0

    def test_linear_lapse(self):
        rng = random.Random(0)
        reading = true_sample(CALM, 1000.0, rng)
        assert reading.temperature == pytest.approx(15.0 - 6.5, rel=1e-12)

    def test_humidity_clamped(self):
        env = Environment(surface_humidity=3.0, humidity_lapse=0.5)
        reading = true_sample(env, 1000.0, random.Random(0))
        assert reading.humidity == 0.0

    def test_equal_seeds_equal_samples(self):
        env = Environment(sensor_noise=SensorNoise(0.2, 0.5, 8.0))
        a = [true_sample(env, h, random.Random(9)) for h in (0.0, 10.0)]
        b = [true_sample(env, h, random.Random(9)) for h in (0.0, 10.0)]
        assert a == b

    def test_negative_altitude_rejected(self):
        with pytest.raises(ValueError):
            true_sample(CALM, -1.0, random.Random(0))


class TestRunMission:
    def test_simple_up_and_down(self):
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=10.0),
            MissionCommand(LAND),
        ))
        traj = run_mission(plan, CFG, CALM)
        assert traj.max_altitude == pytest.approx(10.0, abs=0.2)
        assert traj.samples[0][1] == 0.0
        assert traj.samples[-1][1] == 0.0

    def test_generator_plan_camera_events(self):
        plan = generate_sounding_profile(MissionParams(target_alt=35.0))
        traj = run_mission(plan, CFG, CALM)
        assert len(traj.camera_events) == 16
        # events cluster at the four capture levels
        levels = sorted(set(round(e.altitude) for e in traj.camera_events))
        assert levels == [10, 20, 30, 35]

    def test_altitude_never_exceeds_plan_max(self):
        plan = generate_sounding_profile(MissionParams(target_alt=40.0))
        traj = run_mission(plan, CFG, CALM)
        assert traj.max_altitude <= plan.max_altitude + 0.5

    def test_battery_monotone_nonincreasing(self):
        # a climb to 10 m flown as 500 one-step DELAYs, to read the pack after each step
        state = SimState(battery_remaining=5000.0)
        readings = []
        for _ in range(500):
            assert step(state, CFG, 10.0, state.t + DT, -1.0, math.inf, [])
            readings.append(state.battery_remaining)
        assert state.altitude > 1.0
        assert all(a >= b for a, b in zip(readings, readings[1:]))

    def test_landing_offset_matches_wind_drift(self):
        env = Environment(wind=118.0)
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=10.0),
            MissionCommand(LAND),
        ))
        traj = run_mission(plan, CFG, env)
        expected = wind_drift(118.0, max_progressive_speed(CFG), traj.duration)
        assert traj.landing_offset == expected

    def test_bit_identical_across_runs(self):
        plan = generate_sounding_profile(MissionParams(target_alt=30.0))
        a = run_mission(plan, CFG, CALM)
        b = run_mission(plan, CFG, CALM)
        assert a.samples == b.samples
        assert a.camera_events == b.camera_events
        assert a.landing_offset == b.landing_offset

    def test_invalid_plan_rejected(self):
        from asid.mission import MissionValidationError
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=7000.0),
            MissionCommand(LAND),
        ))
        with pytest.raises(MissionValidationError):
            run_mission(plan, CFG, CALM)

    def test_battery_exhaustion_flags_truncated_trajectory(self):
        import dataclasses
        from asid.airframe import BatterySpec
        tiny = dataclasses.replace(CFG, battery=BatterySpec(capacity_mah=20.0, c_rate=50.0))
        plan = generate_sounding_profile(MissionParams(target_alt=40.0))
        with pytest.raises(BatteryExhaustedError) as err:
            run_mission(plan, tiny, CALM)
        trajectory = err.value.trajectory
        assert trajectory.samples
        assert trajectory.samples[-1][1] > 0.0  # stopped mid-air

    def test_battery_exhaustion_between_capture_levels_keeps_the_camera_events(self):
        # a 150 mAh pack empties on the climb from the 10 m to the 20 m level:
        # the partial trajectory carries the four events taken at 10 m
        import dataclasses
        from asid.airframe import BatterySpec
        small = dataclasses.replace(CFG, battery=BatterySpec(capacity_mah=150.0, c_rate=50.0))
        plan = generate_sounding_profile(MissionParams())
        with pytest.raises(BatteryExhaustedError) as err:
            run_mission(plan, small, CALM)
        trajectory = err.value.trajectory
        last_t, last_altitude = trajectory.samples[-1][:2]
        assert 10.0 + DEADBAND_M < last_altitude < 20.0 - DEADBAND_M
        climb = next(i for i, cmd in enumerate(plan.commands)
                     if cmd.kind == WAYPOINT and cmd.alt == 20.0)
        flown = [cmd for cmd in plan.commands[:climb] if cmd.kind == DO_DIGICAM_CONTROL]
        assert len(trajectory.camera_events) == len(flown) == 4
        for event in trajectory.camera_events:
            assert event.t <= last_t
            assert event.altitude == pytest.approx(10.0, abs=DEADBAND_M)

    def test_battery_exhaustion_partial_trajectory_is_pinned(self):
        # the partial flight up to the step that empties a 20 mAh pack: a
        # moved exhaustion check (one step early or late) changes all three
        import dataclasses
        import hashlib
        from asid.airframe import BatterySpec
        tiny = dataclasses.replace(CFG, battery=BatterySpec(capacity_mah=20.0, c_rate=50.0))
        windy = Environment(wind=118.0)  # above max_progressive_speed: the drone drifts
        with pytest.raises(BatteryExhaustedError) as err:
            run_mission(generate_sounding_profile(MissionParams()), tiny, windy)
        trajectory = err.value.trajectory
        assert len(trajectory.samples) == 332
        assert hashlib.sha256(repr(trajectory.samples).encode("ascii")).hexdigest() \
            == "b603ce0e2d89296dfcfc1979ed81a221231bf792d0e38d81c9ea017c9a752e85"
        assert trajectory.landing_offset == 26.8874374019806

    def test_a_landed_flight_calls_step_once_per_motion_command(self, monkeypatch):
        # the benchmark reads both counts through these module attributes:
        # flightsim.steps (step calls) and atmosphere.density_ratio_calls,
        # one per integrator step, i.e. every sample but the initial one
        # and the LAND ground-stop sample
        calls = {"step": 0, "density_ratio": 0}

        def counted(name):
            original = getattr(flightsim, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(flightsim, name, wrapper)

        counted("step")
        counted("density_ratio")
        plan = generate_sounding_profile(MissionParams())
        traj = run_mission(plan, CFG, CALM)
        assert traj.samples[-1][1] == 0.0
        motion = (TAKEOFF, WAYPOINT, DELAY, LAND)
        assert calls["step"] == sum(cmd.kind in motion for cmd in plan.commands) == 38
        assert calls["density_ratio"] == len(traj.samples) - 2

    def test_flight_stops_at_the_logger_clock_limit(self, monkeypatch):
        # a day of simulated flight is 8.6M steps; a 60 s limit shows the same stop.
        # The DELAY fits the limit, so the plan validates, but not after the climb.
        monkeypatch.setattr(flightsim, "CLOCK_LIMIT_MS", 60_000)
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=10.0),
            MissionCommand(DELAY, p1=59.0),
            MissionCommand(LAND),
        ))
        with pytest.raises(SimulationError, match="logger clock"):
            run_mission(plan, CFG, CALM)

    # a DELAY longer than the timeout has no deadline; none may pass the clock limit
    @pytest.mark.parametrize("takeoff_alt, timeout_s, limit_ms, delay_s, message", [
        (10.0, 1.0, 60_000, 5.0, "TAKEOFF to 10 m did not converge"),
        (0.5, 3.0, 60_000, 5.0, "landing did not converge"),
        (10.0, 1.0, 1_000, 1.0, "logger clock"),  # both passed: the clock limit is named
    ], ids=["takeoff", "land", "clock_limit_first"])
    def test_a_command_past_its_deadline_stops_the_flight(self, monkeypatch, takeoff_alt,
                                                           timeout_s, limit_ms, delay_s,
                                                           message):
        monkeypatch.setattr(flightsim, "COMMAND_TIMEOUT_S", timeout_s)
        monkeypatch.setattr(flightsim, "CLOCK_LIMIT_MS", limit_ms)
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=takeoff_alt),
            MissionCommand(DELAY, p1=delay_s),
            MissionCommand(LAND),
        ))
        with pytest.raises(SimulationError, match=message):
            run_mission(plan, CFG, CALM)

    def test_delay_time_past_the_logger_clock_limit_is_refused_before_flight(self, monkeypatch):
        monkeypatch.setattr(flightsim, "CLOCK_LIMIT_MS", 60_000)
        monkeypatch.setattr(flightsim, "step", None)  # a refused plan never integrates
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=10.0),
            MissionCommand(DELAY, p1=30.0),
            MissionCommand(DELAY, p1=30.5),
            MissionCommand(LAND),
        ))
        with pytest.raises(MissionValidationError,
                           match="DELAY commands total 60.5 s, past the logger clock's 60 s"):
            run_mission(plan, CFG, CALM)

    def test_time_to_design_altitude_in_expected_band(self, monkeypatch):
        # full-throttle climb to 20,000 ft takes 4-8 minutes; the pinned floats
        # are those of an open-loop full-throttle loop of 0.01 s steps
        state, samples = full_throttle_climb(monkeypatch, 6096.0)
        assert 4.0 * 60.0 <= state.t <= 8.0 * 60.0
        assert len(samples) == 27_616
        assert state.t == 276.15999999989384
        assert state.altitude == 6096.056994198126


class TestTrajectoryExports:
    def test_csv_shape(self):
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=10.0),
            MissionCommand(LAND),
        ))
        traj = run_mission(plan, CFG, CALM)
        lines = traj.to_csv().splitlines()
        assert lines[0] == "t,altitude,vertical_speed,heading"
        assert len(lines) == len(traj.samples) + 1

    def test_camera_manifest_is_json(self):
        import json
        plan = generate_sounding_profile(MissionParams(target_alt=10.0))
        traj = run_mission(plan, CFG, CALM)
        events = json.loads(traj.camera_manifest())
        assert len(events) == 4
        assert set(events[0]) == {"t", "altitude", "heading"}
        headings = [e["heading"] for e in events]
        assert headings == [90.0, 180.0, 270.0, 0.0]

    @pytest.mark.parametrize("document, csv_sha256, samples_sha256", [
        ({}, "4c5f7b58565606c0b7dbc967d2932eec2df121f610194bca46cda015ddfc4b9a",
         "0d0ebe7c958cd513a890d65c0e0cf92dc298a623e00d5c38360aec5ed5d00da3"),
        ({"mission": {"target_alt": 300, "headings": [90]},
          "firmware": {"server_threshold": 290}},
         "dd895e8f4bf4a3091b6405e54018d12c09033c44675ec69aa70849d4dc4481e2",
         "be0c0044bd47468f0f92368419cda8d27e15b74b94b4c0b37dfdcef86029c32b"),
    ], ids=["default", "300m_column"])
    def test_csv_bytes_and_sample_bits_are_pinned(self, document, csv_sha256, samples_sha256):
        # No golden file holds trajectory.csv.  Its four decimals hide a
        # last-bit change, so the exact floats (their repr) are pinned too:
        # reordering any float operation of the integrator shows there.
        import hashlib
        from asid import config
        cfg = config.from_dict(document)
        plan = generate_sounding_profile(cfg.mission)
        traj = run_mission(plan, cfg.airframe, cfg.environment)
        assert hashlib.sha256(traj.to_csv().encode("ascii")).hexdigest() == csv_sha256
        assert hashlib.sha256(repr(traj.samples).encode("ascii")).hexdigest() == samples_sha256

    @pytest.mark.parametrize("document, air_sha256, ground_sha256", [
        ({"firmware": {"ground_samples": 2000},
          "environment": {"rng_seed": 7, "sensor_noise": {"temperature": 0.1, "humidity": 0.5,
                                                          "pressure": 2.0}}},
         "98598c899c9107c22d1791e893c350b903b476356ea28cb406a26f79efb64d8d",
         "e211286e3ab6e1e81444aa04fc8244aa753859e517fb9da4a23d9f55c669b3d4"),
        ({"mission": {"target_alt": 300, "headings": [90]},
          "firmware": {"server_threshold": 290}},
         "4d5a61bb864e1841eaf136bc1d52051d88261f03fe930703de7abfc97ff43b67",
         "19dd583778e09f9d58f14b436f21e5c684f512a473bce9db2010a2902216cd42"),
    ], ids=["2000_ground_rows", "300m_column"])
    def test_card_log_bytes_are_pinned(self, document, air_sha256, ground_sha256):
        # The golden card holds 6 ground rows and 7 air rows; these pin the
        # logger's rows (stamps, rounding, which polls are written) at scale.
        import hashlib
        from asid import config, pipeline
        sd = pipeline.run_simulation(config.from_dict(document)).sd
        assert hashlib.sha256(sd.read("air.csv")).hexdigest() == air_sha256
        assert hashlib.sha256(sd.read("ground.csv")).hexdigest() == ground_sha256
