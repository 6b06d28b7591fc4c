import pickle
import random

import pytest

from asid.mission import (
    CONDITION_YAW,
    DELAY,
    DO_DIGICAM_CONTROL,
    LAND,
    TAKEOFF,
    WAYPOINT,
    MissionCommand,
    MissionParams,
    MissionParseError,
    MissionPlan,
    MissionValidationError,
    generate_sounding_profile,
    parse,
    serialize,
    validate,
)


def _captures(plan):
    return [c for c in plan.commands if c.kind == DO_DIGICAM_CONTROL]


class TestGenerator:
    def test_single_level(self):
        plan = generate_sounding_profile(MissionParams(target_alt=10.0, start_alt=10.0))
        assert len(_captures(plan)) == 4
        assert plan.commands[0].kind == TAKEOFF
        assert plan.commands[-1].kind == LAND

    def test_three_levels_with_delay_pattern(self):
        plan = generate_sounding_profile(
            MissionParams(target_alt=30.0, start_alt=10.0, step=10.0))
        captures = _captures(plan)
        assert len(captures) == 12
        # every capture is preceded by DELAY 1 and followed by DELAY 3
        commands = plan.commands
        for index, cmd in enumerate(commands):
            if cmd.kind == DO_DIGICAM_CONTROL:
                assert commands[index - 1].kind == DELAY and commands[index - 1].p1 == 1.0
                assert commands[index + 1].kind == DELAY and commands[index + 1].p1 == 3.0

    def test_clamped_last_level(self):
        plan = generate_sounding_profile(
            MissionParams(target_alt=35.0, start_alt=10.0, step=10.0))
        captures = _captures(plan)
        assert len(captures) == 16
        assert sorted(set(c.alt for c in captures)) == [10.0, 20.0, 30.0, 35.0]

    def test_heading_sequence_normalised(self):
        plan = generate_sounding_profile(
            MissionParams(target_alt=10.0, headings=(90.0, 180.0, 270.0, 360.0, -1e-14)))
        yaws = [c.p1 for c in plan.commands if c.kind == CONDITION_YAW]
        # -1e-14 % 360.0 rounds to 360.0, which a yaw command refuses
        assert yaws == [90.0, 180.0, 270.0, 0.0, 0.0]

    def test_descends_to_start_before_landing(self):
        plan = generate_sounding_profile(MissionParams(target_alt=40.0, start_alt=10.0))
        assert plan.commands[-2].kind == WAYPOINT
        assert plan.commands[-2].alt == 10.0

    def test_capture_count_rule(self):
        for target, start, step, headings in ((50.0, 10.0, 10.0, 4), (25.0, 5.0, 7.0, 3)):
            plan = generate_sounding_profile(MissionParams(
                target, start, step, headings=tuple(range(0, headings * 10, 10))))
            levels = 1
            level = start
            while level < target:
                level = min(level + step, target)
                levels += 1
            assert len(_captures(plan)) == headings * levels

    def test_start_above_target_rejected(self):
        with pytest.raises(ValueError):
            generate_sounding_profile(MissionParams(target_alt=10.0, start_alt=20.0))


class TestValidation:
    def test_generated_plans_validate(self):
        plan = generate_sounding_profile(MissionParams(target_alt=40.0))
        assert validate(plan, ceiling=6096.0) == []

    def test_wrong_first_command(self):
        plan = MissionPlan(commands=(
            MissionCommand(WAYPOINT, alt=10.0),
            MissionCommand(LAND),
        ))
        violations = validate(plan, ceiling=100.0)
        assert len(violations) == 1
        assert TAKEOFF in violations[0]

    def test_ceiling_violation(self):
        plan = MissionPlan(commands=(
            MissionCommand(TAKEOFF, alt=10.0),
            MissionCommand(WAYPOINT, alt=7000.0),
            MissionCommand(LAND),
        ))
        violations = validate(plan, ceiling=6096.0)
        assert len(violations) == 1
        assert "7000" in violations[0]

    def test_legs_and_delays_are_checked_against_the_given_limits(self):
        plan = generate_sounding_profile(MissionParams(target_alt=1500.0, step=100.0,
                                                       capture_dwell=1.0))
        assert validate(plan, ceiling=5000.0) == []  # no limit given, none checked
        assert validate(plan, ceiling=5000.0, longest_leg=1200.0, delay_limit=100.0) == [
            "command 273 (WAYPOINT) to 10 m is a 1490 m leg, past the 1200 m a command "
            "flies by its deadline",
            "DELAY commands total 128 s, past the logger clock's 100 s limit"]
        assert validate(plan, ceiling=5000.0, longest_leg=1490.0, delay_limit=128.0) == []

    def test_command_invariants(self):
        with pytest.raises(ValueError):
            MissionCommand(CONDITION_YAW, p1=360.0)
        with pytest.raises(ValueError):
            MissionCommand(DELAY, p1=-1.0)
        with pytest.raises(ValueError):
            MissionCommand(WAYPOINT, alt=-5.0)
        with pytest.raises(ValueError):
            MissionCommand("FLY_TO_THE_MOON")


class TestSerialization:
    def test_empty_plan_round_trips(self):
        plan = MissionPlan(commands=())
        assert parse(serialize(plan)) == plan

    def test_generated_plan_round_trips(self):
        plan = generate_sounding_profile(MissionParams(target_alt=40.0))
        assert parse(serialize(plan)) == plan

    def test_serialize_is_identity_on_canonical_text(self):
        text = serialize(generate_sounding_profile(MissionParams(target_alt=40.0)))
        assert serialize(parse(text)) == text

    def test_random_plans_round_trip(self):
        rng = random.Random(42)
        kinds = (TAKEOFF, WAYPOINT, CONDITION_YAW, DELAY, DO_DIGICAM_CONTROL, LAND)
        for _ in range(50):
            commands = [MissionCommand(TAKEOFF, lat=rng.uniform(-90, 90),
                                       lon=rng.uniform(-180, 180),
                                       alt=rng.uniform(0, 100))]
            for _ in range(rng.randrange(0, 12)):
                kind = rng.choice(kinds)
                commands.append(MissionCommand(
                    kind,
                    p1=rng.uniform(0, 359.9) if kind == CONDITION_YAW else rng.uniform(0, 10),
                    p2=rng.uniform(-5, 5),
                    lat=rng.uniform(-90, 90),
                    lon=rng.uniform(-180, 180),
                    alt=rng.uniform(0, 500),
                ))
            plan = MissionPlan(commands=tuple(commands))
            assert parse(serialize(plan)) == plan

    def test_nineteen_row_reference_table_parses(self):
        # the 19-command photographic profile as a mission file
        lines = ["command,p1,p2,p3,p4,lat,lon,alt",
                 "TAKEOFF,0,0,0,0,38.1825152,21.7026906,40",
                 "WAYPOINT,1,0,0,0,38.1825114,21.7026906,40"]
        for heading in (270, 180, 270, 0):
            lines.append(f"CONDITION_YAW,{heading},0,1,0,0,0,0")
            lines.append("DELAY,1,0,0,0,0,0,0")
            lines.append("DO_DIGICAM_CONTROL,0,0,0,0,38.1824907,21.7018039,40")
            lines.append("DELAY,3,0,0,0,0,0,0")
        lines.append("WAYPOINT,1,0,0,0,38.1825114,21.7026906,50")
        plan = parse("\n".join(lines) + "\n")
        assert len(plan.commands) == 19
        assert plan.commands[0].kind == TAKEOFF
        assert plan.commands[-1].alt == 50.0

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(MissionParseError) as err:
            parse("command,p1,p2,p3,p4,lat,lon,alt\nTAKEOFF,0,0,0\n")
        assert err.value.line == 2
        with pytest.raises(MissionParseError) as err:
            parse("wrong header\n")
        assert err.value.line == 1
        with pytest.raises(MissionParseError) as err:
            parse("command,p1,p2,p3,p4,lat,lon,alt\nTAKEOFF,0,0,0,0,0,0,0\nNOPE,0,0,0,0,0,0,0\n")
        assert err.value.line == 3

    def test_parse_refuses_non_finite_fields(self):
        for row in ("DELAY,nan,0,0,0,0,0,0", "WAYPOINT,1,0,0,0,inf,0,10",
                    "TAKEOFF,0,0,0,0,0,0,nan"):
            with pytest.raises(MissionParseError, match="must be finite") as err:
                parse(f"command,p1,p2,p3,p4,lat,lon,alt\n{row}\n")
            assert err.value.line == 2


class TestErrorsPickle:
    """Mission errors survive pickle, as a process pool sends a worker's error
    back: type, text, args and the carried line or violations."""

    @staticmethod
    def assert_round_trips(error: ValueError) -> None:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(error, protocol))
            assert type(back) is type(error)
            assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))

    def test_a_parse_error(self):
        error = MissionParseError(2, "y")
        assert error.line == 2
        self.assert_round_trips(error)

    def test_a_parse_error_from_a_file(self):
        with pytest.raises(MissionParseError) as raised:
            parse(serialize(generate_sounding_profile(MissionParams())) + "LAND,0\n")
        self.assert_round_trips(raised.value)

    @pytest.mark.parametrize("violations", [["a b", "c"], ["plan has no commands"], []])
    def test_a_validation_error(self, violations):
        error = MissionValidationError(violations)
        assert error.violations == violations
        self.assert_round_trips(error)
