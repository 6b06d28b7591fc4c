import contextlib
import dataclasses
import importlib.util
import io
import math
import random
import sys
from itertools import accumulate
from pathlib import Path

import pytest

from asid.airframe import GF_TO_N, BatterySpec, reference_config, service_ceiling, \
    wind_drift, max_progressive_speed
from asid import config, firmware, flightsim, mission
from asid.atmosphere import density_ratio
from asid.flightsim import (
    DEADBAND_M,
    DT,
    BatteryExhaustedError,
    Block,
    Environment,
    SensorNoise,
    SimState,
    SimulationError,
    Trajectory,
    run_mission,
    step,
    true_sample,
)
from asid.mission import MissionCommand, MissionParams, MissionPlan, MissionValidationError, \
    TAKEOFF, WAYPOINT, DELAY, LAND, CONDITION_YAW, DO_DIGICAM_CONTROL, generate_sounding_profile

CFG = reference_config()
CALM = Environment()
# a 150 mAh pack empties on the climb from the 10 m to the 20 m level of the default plan
SMALL_PACK = dataclasses.replace(CFG, battery=BatterySpec(capacity_mah=150.0, c_rate=50.0))

FT = 0.3048


def _terminal_speed_at(altitude: float) -> float:
    """Full-throttle climb speed at which thrust less weight equals the frame drag."""
    thrust_n = CFG.n_motors * CFG.motor.max_thrust_per_motor * GF_TO_N * density_ratio(altitude)
    return math.sqrt((thrust_n - CFG.weight_n) / CFG.frame_drag_coefficient)


def rows(samples: list[float], headings: list[tuple[int, float]], stops=()) \
        -> list[tuple[float, float, float, float]]:
    """The flat sample list regrouped into (t, altitude, vertical_speed, heading)
    tuples, each sample given the heading of the run it falls in.  t is summed
    here as the integrator sums it: 0.0 at the start sample, DT per sample
    after it, and the same t again at each index in ``stops``."""
    t, triples = 0.0, []
    for index, pair in enumerate(zip(*[iter(samples)] * 2)):
        if index and index not in stops:
            t += DT
        triples.append((t,) + pair)
    ends = [start for start, _ in headings[1:]] + [len(triples)]
    return [triple + (heading,) for (start, heading), end in zip(headings, ends)
            for triple in triples[start:end]]


def discard(block: Block) -> None:
    """A consumer for flights whose samples a test does not read."""


def fly(plan: MissionPlan, cfg=CFG, env=CALM) -> tuple[Trajectory, list[Block]]:
    """Fly ``plan`` and return its summary with the blocks it handed over."""
    blocks = []
    return run_mission(plan, cfg, env, blocks.append), blocks


def block_rows(blocks: list[Block]) -> list[tuple[float, float, float, float]]:
    """The blocks' samples as (t, altitude, vertical_speed, heading) tuples, with
    t summed as ``step`` sums it: DT for each count from 0.0."""
    table, t, count = [], 0.0, 0
    for block in blocks:
        for index, (altitude, v) in enumerate(zip(*[iter(block.samples)] * 2)):
            for _ in range(block.count + index - count):
                t += DT
            count = block.count + index
            table.append((t, altitude, v, block.heading))
    return table


def csv_text(blocks: list[Block]) -> str:
    """trajectory.csv as to_csv writes it, block by block."""
    out = io.StringIO()
    out.write(flightsim.CSV_HEADER)
    for block in blocks:
        Trajectory.to_csv(out, block)
    return out.getvalue()


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
        assert len(samples) == 2 * 200
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
        state, samples = full_throttle_climb(monkeypatch, 300.0)
        peak = max(v for _, _, v, _ in rows(samples, [(0, state.heading)]))
        assert peak < _terminal_speed_at(0.0)
        assert peak == pytest.approx(_terminal_speed_at(300.0), rel=0.01)

    @pytest.mark.parametrize("capacity, stop, stopped_at", [
        (0.5, math.inf, 4), (1e9, 0.5, 50)], ids=["battery", "stop"])
    def test_an_empty_pack_or_the_stop_time_ends_the_command_early(self, capacity, stop,
                                                                   stopped_at):
        state = SimState(battery_remaining=capacity)
        samples = [0.0, 0.0]  # the start sample, as run_mission adds it
        assert not step(state, CFG, 10.0, math.inf, DEADBAND_M, stop, samples)
        assert len(samples) == 2 * (1 + stopped_at)
        assert rows(samples, [(0, state.heading)])[-1] == (state.t, state.altitude,
                                                           state.vertical_speed, state.heading)


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

    def test_a_reading_refuses_field_assignment(self):
        reading = true_sample(CALM, 0.0, random.Random(0))
        with pytest.raises(AttributeError):
            reading.pressure = 0.0
        assert reading.pressure == 1013.25 * 100.0


class TestRunMission:
    def test_simple_up_and_down(self):
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=10.0),
            MissionCommand(LAND),
        ))
        traj, blocks = fly(plan)
        assert traj.max_altitude == pytest.approx(10.0, abs=0.2)
        assert traj.max_altitude == max(altitude for _, altitude, _, _ in block_rows(blocks))
        assert block_rows(blocks)[0][1] == 0.0
        assert block_rows(blocks)[-1][1] == 0.0

    def test_generator_plan_camera_events(self):
        plan = generate_sounding_profile(MissionParams(target_alt=35.0))
        traj = run_mission(plan, CFG, CALM, discard)
        assert len(traj.camera_events) == 16
        # events cluster at the four capture levels
        levels = sorted(set(round(e.altitude) for e in traj.camera_events))
        assert levels == [10, 20, 30, 35]

    def test_altitude_never_exceeds_plan_max(self):
        plan = generate_sounding_profile(MissionParams(target_alt=40.0))
        traj = run_mission(plan, CFG, CALM, discard)
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
        traj = run_mission(plan, CFG, env, discard)
        expected = wind_drift(118.0, max_progressive_speed(CFG), traj.duration)
        assert traj.landing_offset == expected

    def test_bit_identical_across_runs(self):
        plan = generate_sounding_profile(MissionParams(target_alt=30.0))
        a, a_blocks = fly(plan)
        b, b_blocks = fly(plan)
        assert a_blocks == b_blocks
        assert a == b

    def test_invalid_plan_rejected(self):
        from asid.mission import MissionValidationError
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=7000.0),
            MissionCommand(LAND),
        ))
        with pytest.raises(MissionValidationError):
            run_mission(plan, CFG, CALM, discard)

    def test_battery_exhaustion_flags_truncated_trajectory(self):
        import dataclasses
        from asid.airframe import BatterySpec
        tiny = dataclasses.replace(CFG, battery=BatterySpec(capacity_mah=20.0, c_rate=50.0))
        plan = generate_sounding_profile(MissionParams(target_alt=40.0))
        blocks = []
        with pytest.raises(BatteryExhaustedError) as err:
            run_mission(plan, tiny, CALM, blocks.append)
        assert err.value.trajectory.duration == block_rows(blocks)[-1][0]
        assert block_rows(blocks)[-1][1] > 0.0  # stopped mid-air

    def test_battery_exhaustion_between_capture_levels_keeps_the_camera_events(self):
        # a 150 mAh pack empties on the climb from the 10 m to the 20 m level:
        # the partial trajectory carries the four events taken at 10 m
        plan = generate_sounding_profile(MissionParams())
        blocks = []
        with pytest.raises(BatteryExhaustedError) as err:
            run_mission(plan, SMALL_PACK, CALM, blocks.append)
        trajectory = err.value.trajectory
        last_t, last_altitude = block_rows(blocks)[-1][:2]
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
        blocks = []
        with pytest.raises(BatteryExhaustedError) as err:
            run_mission(generate_sounding_profile(MissionParams()), tiny, windy, blocks.append)
        assert len(block_rows(blocks)) == 332
        assert hashlib.sha256(repr(block_rows(blocks)).encode("ascii")).hexdigest() \
            == "b603ce0e2d89296dfcfc1979ed81a221231bf792d0e38d81c9ea017c9a752e85"
        assert err.value.trajectory.landing_offset == 26.8874374019806

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
        _, blocks = fly(plan)
        assert block_rows(blocks)[-1][1] == 0.0
        motion = (TAKEOFF, WAYPOINT, DELAY, LAND)
        assert calls["step"] == sum(cmd.kind in motion for cmd in plan.commands) == 38
        assert calls["density_ratio"] == len(block_rows(blocks)) - 2

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
            run_mission(plan, CFG, CALM, discard)

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
            run_mission(plan, CFG, CALM, discard)

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
            run_mission(plan, CFG, CALM, discard)

    def test_time_to_design_altitude_in_expected_band(self, monkeypatch):
        # full-throttle climb to 20,000 ft takes 4-8 minutes; the pinned floats
        # are those of an open-loop full-throttle loop of 0.01 s steps
        state, samples = full_throttle_climb(monkeypatch, 6096.0)
        assert 4.0 * 60.0 <= state.t <= 8.0 * 60.0
        assert len(samples) == 2 * 27_616
        assert state.t == 276.15999999989384
        assert state.altitude == 6096.056994198126


class StepRecorder:
    """A consumer that keeps a flight's blocks, and a wrapper of ``flightsim.step``
    that gives the reference rows of the flight flown next.

    Each sample gets the heading the state held when the ``step`` call that
    flew it began, the start sample 0.0.  A sample no ``step`` call added,
    after the start sample, is a LAND stop and repeats the t before it.  The
    reference reads the samples' floats only: never a block's count or
    heading."""

    def __init__(self, monkeypatch):
        self.blocks: list[Block] = []
        self.handed = 0  # samples handed over so far
        self.starts = [(0, 0.0)]  # (first sample index, state.heading) per step call
        self.spans = []  # (first, end) sample index per step call
        original = flightsim.step

        def recording(state, *args):
            first = self.handed + len(args[-1]) // 2
            self.starts.append((first, state.heading))
            try:
                return original(state, *args)
            finally:
                self.spans.append((first, self.handed + len(args[-1]) // 2))

        monkeypatch.setattr(flightsim, "step", recording)

    def __call__(self, block: Block) -> None:
        self.blocks.append(block)
        self.handed += len(block.samples) // 2

    def tee(self, monkeypatch) -> None:
        """Also receive the blocks of every ``flightsim.run_mission`` called
        through the module, as ``pipeline`` calls it."""
        original = flightsim.run_mission

        def teeing(plan, cfg, env, consume):
            def both(block):
                self(block)
                consume(block)
            return original(plan, cfg, env, both)

        monkeypatch.setattr(flightsim, "run_mission", teeing)

    def reference(self) -> list[tuple[float, float, float, float]]:
        samples = [value for block in self.blocks for value in block.samples]
        stops, covered = [], 1  # samples before `covered` are the start sample or stepped
        for first, end in self.spans:
            stops.extend(range(covered, first))
            covered = end
        stops.extend(range(covered, len(samples) // 2))
        return rows(samples, self.starts, stops)


def fly_with_step_headings(monkeypatch, plan: MissionPlan, cfg=CFG, env=CALM) \
        -> tuple[list[Block], list[tuple[float, float, float, float]]]:
    """Fly ``plan`` and return its blocks (up to the empty pack, if it empties)
    with the reference rows of ``StepRecorder``."""
    recorder = StepRecorder(monkeypatch)
    with contextlib.suppress(BatteryExhaustedError):
        run_mission(plan, cfg, env, recorder)
    return recorder.blocks, recorder.reference()


def yaw_plan(monkeypatch) -> MissionPlan:
    """Two flights with a yaw at every kind of run boundary: empty runs, a yaw
    before TAKEOFF, between a LAND and a TAKEOFF and after the last LAND."""
    # validate wants TAKEOFF first and LAND last; run_mission flies any
    # order, so the plan can start and end with a yaw
    monkeypatch.setattr(mission, "validate", lambda plan, ceiling: [])
    return MissionPlan(commands=(
        MissionCommand(CONDITION_YAW, p1=45.0),    # before TAKEOFF
        MissionCommand(TAKEOFF, alt=3.0),
        MissionCommand(CONDITION_YAW, p1=90.0),
        MissionCommand(CONDITION_YAW, p1=90.0),    # two in a row: an empty run
        MissionCommand(DELAY, p1=0.5),
        MissionCommand(LAND),
        MissionCommand(CONDITION_YAW, p1=359.9),   # between LAND and a second TAKEOFF
        MissionCommand(TAKEOFF, alt=2.0),
        MissionCommand(CONDITION_YAW, p1=-0.0),
        MissionCommand(DELAY, p1=0.2),
        MissionCommand(LAND),
        MissionCommand(CONDITION_YAW, p1=0.0),     # after the last LAND: an empty run
    ))


def reference_csv(table: list[tuple[float, float, float, float]]) -> str:
    """trajectory.csv with every field of every sample formatted on its own."""
    return "t,altitude,vertical_speed,heading\n" \
        + "".join("%.2f,%.4f,%.4f,%.1f\n" % row for row in table)


def assert_rows_match(text: str, table: list[tuple[float, float, float, float]]) -> None:
    """``text`` equals ``reference_csv(table)``, compared line by line: a failure
    names the first row that differs, where a diff of two whole texts takes
    minutes on a long flight."""
    assert text.split("\n") == reference_csv(table).split("\n")


def _workloads():
    """The benchmark's sounding generator, loaded from its file without changing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_workloads"] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["perfbench_workloads"]
    return module


class TestHeadingRuns:
    """to_csv formats each block's heading once; the text must equal formatting
    every sample's heading on its own."""

    def test_yaws_at_every_run_boundary(self, monkeypatch):
        blocks, table = fly_with_step_headings(monkeypatch, yaw_plan(monkeypatch))
        # the yaw before TAKEOFF hands the start sample over alone, and the
        # end of the plan the last LAND stop
        assert [len(blocks[0].samples), len(blocks[-1].samples)] == [2, 2]
        assert {heading for *_, heading in table} == {0.0, 45.0, 90.0, 359.9}
        assert_rows_match(csv_text(blocks), table)

    def test_a_battery_exhausted_partial_trajectory(self, monkeypatch):
        blocks, table = fly_with_step_headings(
            monkeypatch, generate_sounding_profile(MissionParams()), cfg=SMALL_PACK)
        assert len({block.heading for block in blocks}) > 1  # it yawed before the pack emptied
        assert_rows_match(csv_text(blocks), table)

    @pytest.mark.parametrize("workload", ["paper_sounding", "tall_column", "surface_watch"])
    def test_the_first_soundings_of_each_workload(self, monkeypatch, workload):
        for document in _workloads().schedule(workload, seed=1, count=3):
            cfg = config.from_dict(document)
            with monkeypatch.context() as patch:
                blocks, table = fly_with_step_headings(
                    patch, generate_sounding_profile(cfg.mission), cfg.airframe,
                    cfg.environment)
            assert_rows_match(csv_text(blocks), table)


def two_landings() -> MissionPlan:
    """A plan that lands in mid-flight: its LAND stops are samples 1165 and 2496."""
    return MissionPlan(commands=(
        MissionCommand(TAKEOFF, alt=3.0),
        MissionCommand(LAND),
        MissionCommand(TAKEOFF, alt=5.0),
        MissionCommand(LAND),
    ))


def block_seams(blocks: list[Block]) -> list[int]:
    """The sample index at which each block begins, then the flight's sample count."""
    return list(accumulate([0] + [len(block.samples) // 2 for block in blocks]))


class _Writes(list):
    """A text stream that keeps each write."""

    write = list.append


class TestCsvChunks:
    """run_mission hands a motion command over in blocks of about CSV_CHUNK_ROWS
    samples, and to_csv writes a block with one write.  With a small chunk, the
    seams fall inside heading runs and next to LAND stops; the text must still
    equal the per-sample reference."""

    @pytest.mark.parametrize("partial", [False, True], ids=["yaw_plan", "battery_exhausted"])
    def test_chunks_of_7_rows(self, monkeypatch, partial):
        plan = generate_sounding_profile(MissionParams()) if partial else yaw_plan(monkeypatch)
        monkeypatch.setattr(flightsim, "CSV_CHUNK_ROWS", 7)
        blocks, table = fly_with_step_headings(monkeypatch, plan,
                                               cfg=SMALL_PACK if partial else CFG)
        assert not partial or table[-1][1] > 0.0  # stopped mid-air
        writes = _Writes()
        for block in blocks:
            Trajectory.to_csv(writes, block)
        assert_rows_match(flightsim.CSV_HEADER + "".join(writes), table)
        # a step call passes 7 DT by one step at most, after a start sample or LAND stop
        rows_per_write = [text.count("\n") for text in writes]
        assert len(writes) == len(blocks) > len(table) // 9
        assert max(rows_per_write) <= 9

    def test_a_seam_on_each_side_of_each_land_stop(self, monkeypatch):
        # A LAND stop leads the block after its landing.  The yaw after each
        # landing of yaw_plan hands it over alone; in two_landings the first
        # stop leads the second TAKEOFF, cut into blocks of 1, 7 or 4096 DT.
        for plan, alone in ((yaw_plan(monkeypatch), [True, True]),
                            (two_landings(), [False, True])):
            for chunk in (1, 7, flightsim.CSV_CHUNK_ROWS):
                with monkeypatch.context() as patch:
                    patch.setattr(flightsim, "CSV_CHUNK_ROWS", chunk)
                    blocks, table = fly_with_step_headings(patch, plan)
                stops = [i for i in range(1, len(table)) if table[i][0] == table[i - 1][0]]
                seams = block_seams(blocks)
                assert len(stops) == 2 and set(stops) <= set(seams)
                assert [stop + 1 in seams for stop in stops] == alone
                assert_rows_match(csv_text(blocks), table)

    def test_a_long_command_takes_blocks_of_chunk_rows(self, monkeypatch):
        # the 300 m column lands from 300 m, about 2.5 blocks of flight
        cfg = config.from_dict({"mission": {"target_alt": 300, "headings": [90]}})
        plan = generate_sounding_profile(cfg.mission)
        calls = []
        step = flightsim.step
        monkeypatch.setattr(flightsim, "step", lambda *args: calls.append(1) or step(*args))
        _, blocks = fly(plan, cfg.airframe, cfg.environment)
        sizes = [len(block.samples) // 2 for block in blocks]
        assert max(sizes) == flightsim.CSV_CHUNK_ROWS + 1
        assert sum(sizes) == 41_084
        motion = sum(cmd.kind in (TAKEOFF, WAYPOINT, DELAY, LAND) for cmd in plan.commands)
        assert len(calls) > motion

    def test_simulate_writes_the_reference_to_trajectory_csv(self, monkeypatch, tmp_path):
        from asid import pipeline
        recorder = StepRecorder(monkeypatch)
        recorder.tee(monkeypatch)
        pipeline.simulate(config.default_run_config(), tmp_path)
        assert len(recorder.blocks) > 3
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "air.csv", "ground.csv", "photos.json", "trajectory.csv"]
        assert_rows_match((tmp_path / "trajectory.csv").read_bytes().decode("ascii"),
                          recorder.reference())


def record_polls(monkeypatch) -> list[tuple[int, float]]:
    """(logger clock in ms, altitude read) of each air poll of the next run."""
    polls, read = [], []
    true_sample, tick = flightsim.true_sample, firmware.tick

    def reading(env, altitude, rng):
        read.append(altitude)
        return true_sample(env, altitude, rng)

    def ticking(state, reading, clock, sd):
        polls.append((clock, read[-1]))
        return tick(state, reading, clock, sd)

    monkeypatch.setattr(flightsim, "true_sample", reading)
    monkeypatch.setattr(firmware, "tick", ticking)
    return polls


class TestAltitudeAt:
    """The altitude an air poll reads: at t after the flight began, the first
    sample whose count of DT steps (a LAND stop repeats the count before it)
    is round(t / DT)."""

    @staticmethod
    def polled(monkeypatch, document=None, plan=None):
        """Polls every 10 ms (ms since the flight began, altitude read) of a
        run, with the reference altitude of each DT count of its flight."""
        from asid import pipeline
        monkeypatch.setattr(pipeline, "LOOP_POLL_MS", 10)
        if plan is not None:
            monkeypatch.setattr(mission, "generate_sounding_profile", lambda params: plan)
        recorder = StepRecorder(monkeypatch)
        recorder.tee(monkeypatch)
        polls = record_polls(monkeypatch)
        result = pipeline.run_simulation(config.from_dict(document or {}))
        table = recorder.reference()
        first = {}
        for t, altitude, _, _ in table:
            first.setdefault(round(t / DT), altitude)
        start = polls[0][0]
        return [(clock - start, altitude) for clock, altitude in polls], table, first, result

    def test_time_zero_is_the_start_sample(self, monkeypatch):
        polls, table, _, _ = self.polled(monkeypatch)
        assert polls[0] == (0, table[0][1]) == (0, 0.0)

    def test_a_mid_flight_time_is_its_own_sample(self, monkeypatch):
        polls, _, first, _ = self.polled(monkeypatch)
        assert len(polls) > 1000
        for ms, altitude in polls:
            assert altitude == first[round(ms / 1000.0 / DT)], ms

    def test_no_poll_passes_the_duration(self, monkeypatch):
        # a logger that never serves polls to the end of the flight
        polls, _, first, result = self.polled(
            monkeypatch, {"firmware": {"server_threshold": 1000}})
        end = int(result.trajectory.duration * 1000.0)
        assert not result.server_started
        assert end - 10 < polls[-1][0] <= end
        assert polls[-1][1] == first[round(polls[-1][0] / 1000.0 / DT)]

    def test_a_poll_at_the_last_sample_s_own_time_reads_it(self, monkeypatch):
        # the summed duration falls 8e-11 s short of count 25,200; the poll
        # at 252,000 ms still reads the last flown sample, whose count the
        # LAND stop after it repeats
        polls, table, first, result = self.polled(monkeypatch, {
            "mission": {"target_alt": 40.49255549501995, "start_alt": 2.613149932291292,
                        "step": 3.3487957617931423, "capture_dwell": 2.240865919101601},
            "firmware": {"server_threshold": 1000}})
        assert not result.server_started
        assert result.trajectory.duration == 251.9999999999158
        assert round(table[-1][0] / DT) == 25_200
        assert polls[-1] == (252_000, first[25_200]) == (252_000, table[-2][1])

    def test_a_poll_after_a_land_stop_reads_its_own_sample(self, monkeypatch):
        polls, table, first, _ = self.polled(monkeypatch, plan=two_landings())
        stops = [i for i in range(1, len(table)) if table[i][0] == table[i - 1][0]]
        assert stops == [1165, 2496]
        # 12.14 s is sample 1215's t: one DT step fewer than its index, for the stop
        assert round(table[1215][0], 2) == 12.14
        assert dict(polls)[12140] == table[1215][1] == pytest.approx(0.5928, abs=1e-4)
        assert table[1214][1] == pytest.approx(0.5746, abs=1e-4)
        for ms, altitude in polls:
            assert altitude == first[round(ms / 1000.0 / DT)], ms


class TestTrajectoryExports:
    def test_csv_shape(self):
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=10.0),
            MissionCommand(LAND),
        ))
        _, blocks = fly(plan)
        lines = csv_text(blocks).splitlines()
        assert lines[0] == "t,altitude,vertical_speed,heading"
        assert len(lines) == len(block_rows(blocks)) + 1

    def test_camera_manifest_is_json(self):
        import json
        plan = generate_sounding_profile(MissionParams(target_alt=10.0))
        traj = run_mission(plan, CFG, CALM, discard)
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
        _, blocks = fly(plan, cfg.airframe, cfg.environment)
        assert hashlib.sha256(csv_text(blocks).encode("ascii")).hexdigest() == csv_sha256
        assert hashlib.sha256(repr(block_rows(blocks)).encode("ascii")).hexdigest() \
            == samples_sha256

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
