import dataclasses
import io
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import asid
from asid import cli, config, firmware, flightsim, pipeline, synclink
from asid.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_SIMULATION,
    EXIT_TRANSPORT,
    build_parser,
    main,
)
from asid.firmware import SdCardImage

GOLDEN = Path(__file__).parent / "golden"


def _write_config(path, document):
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


class TestConfigLoading:
    def test_empty_document_uses_defaults(self, tmp_path):
        cfg = config.load(_write_config(tmp_path / "c.json", {}))
        assert cfg == config.default_run_config()

    def test_partial_overrides(self, tmp_path):
        doc = {"environment": {"surface_temperature": 25.0, "rng_seed": 7},
               "mission": {"target_alt": 30.0}}
        cfg = config.load(_write_config(tmp_path / "c.json", doc))
        assert cfg.environment.surface_temperature == 25.0
        assert cfg.environment.rng_seed == 7
        assert cfg.mission.target_alt == 30.0
        assert cfg.airframe == config.default_run_config().airframe

    def test_unknown_keys_rejected(self, tmp_path):
        for doc in ({"legs": 4},
                    {"environment": {"surface_temp": 25.0}},
                    {"airframe": {"color": "red"}},
                    {"firmware": {"wifi_password": "x"}},
                    {"mission": {"speed": 9}},
                    # fixed on the device, so not keys
                    {"mission": {"home": [38.0, 21.0]}},
                    {"firmware": {"interval_start": 5.0}},
                    {"firmware": {"ground_delay_ms": 3000}},
                    {"firmware": {"air_delay_ms": 3000}}):
            with pytest.raises(config.ConfigError):
                config.load(_write_config(tmp_path / "c.json", doc))

    def test_nested_sections(self, tmp_path):
        doc = {"airframe": {"motor": {"max_thrust_per_motor": 1200.0},
                            "total_mass": 2400.0},
               "environment": {"sensor_noise": {"temperature": 0.1}},
               "firmware": {"rtc_start": "2021-06-02T09:00:00", "elevation": 45.0}}
        cfg = config.load(_write_config(tmp_path / "c.json", doc))
        assert cfg.airframe.motor.max_thrust_per_motor == 1200.0
        assert cfg.airframe.total_mass == 2400.0
        assert cfg.environment.sensor_noise.temperature == 0.1
        assert cfg.firmware.rtc_start.year == 2021
        assert cfg.firmware.elevation == 45.0

    def test_nested_partial_override_merges_into_default(self, tmp_path):
        doc = {"airframe": {"motor": {"max_thrust_per_motor": 1200.0}}}
        cfg = config.load(_write_config(tmp_path / "c.json", doc))
        default = config.default_run_config()
        assert cfg.airframe == dataclasses.replace(
            default.airframe, motor=dataclasses.replace(default.airframe.motor,
                                                        max_thrust_per_motor=1200.0))
        assert cfg.environment == default.environment

    def test_integer_accepted_for_float_field(self, tmp_path):
        doc = {"environment": {"surface_temperature": 25}}
        cfg = config.load(_write_config(tmp_path / "c.json", doc))
        assert cfg.environment.surface_temperature == 25.0
        assert type(cfg.environment.surface_temperature) is float

    @pytest.mark.parametrize("doc, key", [
        ({"environment": 5}, "environment"),
        ({"firmware": 5}, "firmware"),
        ({"airframe": 5}, "airframe"),
        ({"mission": {"headings": 5}}, "mission.headings"),
        ({"mission": {"home": [1]}}, "mission.home"),
        ({"mission": {"target_alt": "40"}}, "mission.target_alt"),
        ({"environment": {"rng_seed": "x"}}, "environment.rng_seed"),
        ({"firmware": {"ground_samples": 2.5}}, "firmware.ground_samples"),
        ({"firmware": {"ground_samples": True}}, "firmware.ground_samples"),
        ({"environment": {"wind": None}}, "environment.wind"),
        ([], "configuration root"),
        ({"environment": {"surface_temperature": float("nan")}}, "environment.surface_temperature"),
        ({"environment": {"wind": float("inf")}}, "environment.wind"),
    ])
    def test_bad_type_exits_config_error(self, doc, key, tmp_path, capsys):
        path = _write_config(tmp_path / "c.json", doc)
        out = tmp_path / "sd"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: {key} " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("firmware, field", [
        ({"pressure_correction": 0.5}, "pressure_correction"),
        ({"elevation": 50000.0}, "elevation"),
        ({"rtc_start": "9999-12-31T23:59:58"}, "rtc_start"),
    ])
    def test_firmware_out_of_range_exits_config_error(self, firmware, field, tmp_path, capsys):
        path = _write_config(tmp_path / "c.json", {"firmware": firmware})
        out = tmp_path / "sd"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: firmware: {field} " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mission, field", [
        ({"step": 0.0}, "step"),
        ({"start_alt": 50.0}, "start_alt"),
        ({"step": 0.01, "target_alt": 100.0}, "step"),
        ({"start_alt": -5.0}, "start_alt"),
        ({"capture_dwell": -1.0}, "capture_dwell"),
    ])
    def test_mission_out_of_range_exits_config_error(self, mission, field, tmp_path, capsys):
        path = _write_config(tmp_path / "c.json", {"mission": mission})
        out = tmp_path / "sd"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: mission: {field} " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("environment, message", [
        ({"wind": -20.0}, "environment: wind must be non-negative"),
        ({"wind": 500.5}, "environment: wind must not exceed 500 km/h"),
        ({"wind": 1e308}, "environment: wind must not exceed 500 km/h"),
        ({"sensor_noise": {"pressure": -5.0}},
         "environment.sensor_noise: pressure sigma must be non-negative"),
        ({"sensor_noise": {"temperature": -0.1}},
         "environment.sensor_noise: temperature sigma must be non-negative"),
        ({"sensor_noise": {"humidity": -1e-9}},
         "environment.sensor_noise: humidity sigma must be non-negative"),
    ], ids=["wind", "wind_500.5", "wind_1e308", "pressure_sigma", "temperature_sigma",
            "humidity_sigma"])
    def test_negative_wind_or_noise_exits_config_error(self, environment, message, tmp_path,
                                                        capsys):
        path = _write_config(tmp_path / "c.json", {"environment": environment})
        out = tmp_path / "sd"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_config_error_is_written_once(self, tmp_path):
        # a separate process, so the CLI's own logging setup is the one in force
        path = _write_config(tmp_path / "c.json", {"mission": {"step": 0.0}})
        env = dict(os.environ, PYTHONPATH=str(Path(asid.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "asid.cli", "simulate", "--config", path,
             "--out", str(tmp_path / "sd")],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == EXIT_CONFIG
        assert done.stderr.count("configuration error") == 1
        assert "mission: step must be positive" in done.stderr

    def test_round_trip_through_dict(self):
        cfg = config.default_run_config()
        assert config.from_dict(config.to_dict(cfg)) == cfg

    def test_knob_inventory(self):
        # every settable leaf; a new knob shows up here as a reviewed diff
        def leaves(document, prefix=""):
            for key, value in document.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert sorted(leaves(config.to_dict(config.default_run_config()))) == [
            "airframe.battery.c_rate", "airframe.battery.capacity_mah",
            "airframe.body_drag_area", "airframe.frame_drag_coefficient",
            "airframe.motor.max_thrust_per_motor", "airframe.mtbf_hours", "airframe.n_motors",
            "airframe.prop.diameter", "airframe.prop.max_rpm", "airframe.prop.pitch",
            "airframe.total_mass",
            "environment.humidity_lapse", "environment.rng_seed",
            "environment.sensor_noise.humidity", "environment.sensor_noise.pressure",
            "environment.sensor_noise.temperature", "environment.surface_humidity",
            "environment.surface_pressure", "environment.surface_temperature",
            "environment.temperature_lapse", "environment.wind",
            "firmware.elevation", "firmware.ground_samples", "firmware.interval_step",
            "firmware.pressure_correction", "firmware.rtc_start", "firmware.server_threshold",
            "mission.capture_dwell", "mission.headings", "mission.start_alt", "mission.step",
            "mission.target_alt",
        ]

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(config.ConfigError):
            config.load(path)
        with pytest.raises(config.ConfigError):
            config.load(tmp_path / "missing.json")


class TestHelpAndUsage:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["simulate", "--help"], ["serve", "--help"], ["sync", "--help"],
        ["report", "--help"], ["sizing", "--help"], ["mission", "--help"],
        ["mission", "gen", "--help"], ["mission", "validate", "--help"],
    ])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["simulate"]) == 1
        assert main(["nonsense"]) == 1

    def test_log_level_env_var(self, tmp_path, monkeypatch, caplog):
        import logging
        monkeypatch.setenv("ASID_LOG", "info")
        with caplog.at_level(logging.INFO):
            assert main(["simulate", "--out", str(tmp_path / "sd")]) == EXIT_OK
        assert any("ground rows" in r.message for r in caplog.records)


class TestSimulate:
    def test_default_pipeline_writes_sd_image(self, tmp_path, capsys):
        out = tmp_path / "sd"
        assert main(["simulate", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "6 ground rows, 7 air rows" in stdout
        for name in ("ground.csv", "air.csv", "photos.json", "trajectory.csv"):
            assert (out / name).is_file()
        assert (out / "ground.csv").read_bytes() == (GOLDEN / "ground.csv").read_bytes()
        assert (out / "air.csv").read_bytes() == (GOLDEN / "air.csv").read_bytes()

    def test_seed_changes_noisy_values_not_row_counts(self, tmp_path):
        doc = {"environment": {"sensor_noise": {"temperature": 0.08, "humidity": 0.3,
                                                "pressure": 4.0}}}
        cfg_path = _write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "a"),
                     "--seed", "1"]) == EXIT_OK
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "b"),
                     "--seed", "2"]) == EXIT_OK
        a_air = (tmp_path / "a" / "air.csv").read_bytes()
        b_air = (tmp_path / "b" / "air.csv").read_bytes()
        assert a_air.count(b"\r\n") == b_air.count(b"\r\n") == 7
        assert a_air != b_air

    def test_ceiling_violating_mission_refused(self, tmp_path):
        cfg_path = _write_config(tmp_path / "c.json", {"mission": {"target_alt": 7000.0}})
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "sd")]) == EXIT_SIMULATION

    @pytest.mark.parametrize("thrust", [1700.0, 5000.0])
    def test_an_airframe_past_the_model_s_ceiling_flies(self, thrust, tmp_path, capsys):
        # sea-level T/W 3.4 and 10: the ceiling is capped at the model's 11000 m top
        doc = {"airframe": {"motor": {"max_thrust_per_motor": thrust}}}
        cfg_path = _write_config(tmp_path / "c.json", doc)
        code, _ = _exit_code(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sd")],
                             capsys)
        assert code == EXIT_OK

    @pytest.mark.parametrize("mission, message", [
        ({"target_alt": 12000.0, "step": 100.0},
         "simulation error: command 1871 (WAYPOINT) altitude 11010 m exceeds the 11000 m "
         "ceiling; "),
        # a plan to the top itself has a descent leg no command flies by its
        # deadline (tests/test_flightsim.py flies its climb, which overshoots)
        ({"target_alt": 11000.0, "step": 1000.0, "capture_dwell": 1.0},
         "simulation error: command 205 (WAYPOINT) to 10 m is a 10990 m leg, past the "
         "1200 m a command flies by its deadline\n"),
    ], ids=["above", "at_the_top"])
    def test_a_plan_past_the_model_s_top_exits_simulation_error(self, mission, message,
                                                                 tmp_path, capsys):
        doc = {"airframe": {"motor": {"max_thrust_per_motor": 1700.0},
                            "battery": {"capacity_mah": 1e6}}, "mission": mission}
        cfg_path = _write_config(tmp_path / "c.json", doc)
        code, err = _exit_code(["simulate", "--config", cfg_path,
                                "--out", str(tmp_path / "sd")], capsys)
        assert code == EXIT_SIMULATION
        assert err.startswith(message)

    def test_run_past_the_logger_clock_exits_simulation_error(self, tmp_path, capsys,
                                                              monkeypatch):
        # the second ground row would be stamped after the end of the calendar
        monkeypatch.setattr(firmware, "GROUND_DELAY_MS", 90_000_000)
        doc = {"firmware": {"rtc_start": "9999-12-30T23:59:59"}}
        cfg_path = _write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "sd")]) == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert "logger clock" in err
        assert "Traceback" not in err

    def test_delay_time_past_the_logger_clock_exits_before_flight(self, tmp_path, capsys):
        # a pack that never empties would otherwise fly to the clock's limit
        doc = {"mission": {"capture_dwell": 1e300},
               "airframe": {"battery": {"capacity_mah": 1e300}}}
        cfg_path = _write_config(tmp_path / "c.json", doc)
        code, err = _exit_code(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sd")],
                               capsys)
        assert code == EXIT_SIMULATION
        assert err.startswith("simulation error: DELAY commands total 1.6e+301 s, past the "
                              "logger clock's 86400 s limit")

    @pytest.mark.parametrize("document, message", [
        # the noise also fails the logger's first reading: the flight's error wins
        ({"airframe": {"battery": {"capacity_mah": 150}},
          "environment": {"sensor_noise": {"pressure": 1e7}}},
         "simulation error: battery exhausted before the plan completed\n"),
        ({"environment": {"sensor_noise": {"pressure": 1e7}}},
         "simulation error: sensor noise drove the pressure to "),
    ], ids=["battery_and_noise", "noise"])
    def test_a_failed_run_leaves_no_out_directory(self, document, message, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "c.json", document)
        out = tmp_path / "new" / "sd"
        code, err = _exit_code(["simulate", "--config", cfg_path, "--out", str(out)], capsys)
        assert code == EXIT_SIMULATION
        assert err.startswith(message)
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("document, message", [
        ({"airframe": {"battery": {"capacity_mah": 1e6}},
          "mission": {"target_alt": 1500, "step": 100, "capture_dwell": 1}},
         "command 273 (WAYPOINT) to 10 m is a 1490 m leg, past the 1200 m a command flies "
         "by its deadline"),
        ({"airframe": {"prop": {"diameter": 2.0}}},
         "propeller static thrust cannot hold a hover"),
    ], ids=["leg_1500m", "prop_cannot_hover"])
    def test_a_run_refused_before_the_flight_flies_no_step(self, document, message,
                                                            tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(flightsim, "step", None)  # a refused run never integrates
        cfg_path = _write_config(tmp_path / "c.json", document)
        out = tmp_path / "sd"
        code, err = _exit_code(["simulate", "--config", cfg_path, "--out", str(out)], capsys)
        assert (code, err) == (EXIT_SIMULATION, f"simulation error: {message}\n")
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("document, code, message", [
        ({"airframe": {"battery": {"capacity_mah": 150}}}, EXIT_SIMULATION,
         "simulation error: battery exhausted before the plan completed\n"),
        ({"environment": {"sensor_noise": {"pressure": 1e7}}}, EXIT_SIMULATION,
         "simulation error: sensor noise drove the pressure to "),
        ({}, EXIT_CONFIG, "configuration error: [Errno 28] No space left on device\n"),
    ], ids=["battery", "noise", "default"])
    def test_a_full_disk_at_the_csv_close_loses_to_the_run_error(self, document, code,
                                                                  message, tmp_path, capsys):
        # closing trajectory.csv flushes its last rows, and /dev/full refuses them
        cfg_path = _write_config(tmp_path / "c.json", document)
        out = tmp_path / "sd"
        out.mkdir()
        (out / "trajectory.csv.partial").symlink_to("/dev/full")
        got, err = _exit_code(["simulate", "--config", cfg_path, "--out", str(out)], capsys)
        assert got == code
        assert err.startswith(message)
        assert list(out.iterdir()) == []

    def test_a_failed_run_leaves_an_existing_out_directory_as_it_was(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "c.json",
                                 {"environment": {"sensor_noise": {"pressure": 1e7}}})
        out = tmp_path / "sd"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        code, _ = _exit_code(["simulate", "--config", cfg_path, "--out", str(out)], capsys)
        assert code == EXIT_SIMULATION
        assert [path.name for path in out.iterdir()] == ["notes.txt"]

    def test_a_run_error_wins_over_an_out_path_that_is_a_file(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "c.json", {"mission": {"target_alt": 7000.0}})
        out = tmp_path / "sd"
        out.write_text("not a directory\n")
        code, err = _exit_code(["simulate", "--config", cfg_path, "--out", str(out)], capsys)
        assert (code, err.split(":")[0]) == (EXIT_SIMULATION, "simulation error")
        code, err = _exit_code(["simulate", "--out", str(out)], capsys)
        assert (code, err.split(":")[0]) == (EXIT_CONFIG, "configuration error")
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("environment", [
        {"surface_temperature": 1e308},
        {"surface_pressure": 1e308},
    ])
    def test_out_of_range_readings_log_then_fail_report(self, environment, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "c.json", {"environment": environment})
        sd_dir, out = tmp_path / "sd", tmp_path / "report"
        assert main(["simulate", "--config", cfg_path, "--out", str(sd_dir)]) == EXIT_OK
        assert main(["report", "--in", str(sd_dir), "--out", str(out)]) == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_air_rows_below_the_dew_point_range_still_report(self, tmp_path):
        # air rows reach -105 C, outside Magnus's [-45, 60] C; only the surface
        # dew point is reported, so the report must not need theirs
        cfg_path = _write_config(tmp_path / "c.json", {"environment": {"temperature_lapse": 3.0}})
        sd_dir, out = tmp_path / "sd", tmp_path / "report"
        assert main(["simulate", "--config", cfg_path, "--out", str(sd_dir)]) == EXIT_OK
        assert main(["report", "--in", str(sd_dir), "--out", str(out)]) == EXIT_OK
        assert (out / "report.json").is_file()

    def test_year_before_1000_simulates_and_reports(self, tmp_path):
        # the card prints the year in four digits whatever the C library's %Y does
        cfg_path = _write_config(tmp_path / "c.json",
                                 {"firmware": {"rtc_start": "0999-06-01T10:15:00"}})
        sd_dir, out = tmp_path / "sd", tmp_path / "report"
        assert main(["simulate", "--config", cfg_path, "--out", str(sd_dir)]) == EXIT_OK
        assert (sd_dir / "ground.csv").read_bytes().startswith(b"01.06.0999,10:15:00,")
        assert main(["report", "--in", str(sd_dir), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["collection_time"] \
            .startswith("0999-06-01T")
        assert "Collected: 01.06.0999 " in (out / "report.txt").read_text()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg_path = _write_config(tmp_path / "c.json", {"environment": {"oops": 1}})
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "sd")]) == EXIT_CONFIG


class TestSizing:
    def test_prints_required_static_thrust_near_sizing_claim(self, capsys):
        assert main(["sizing"]) == EXIT_OK
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "Required static thrust" in l)
        total = float(line.split(":")[1].split("g total")[0].strip())
        assert abs(total - 5586.0) / 5586.0 < 0.015
        per_motor = float(line.split("(")[1].split("g per motor")[0].strip())
        assert abs(per_motor - 1400.0) / 1400.0 < 0.015
        assert "Thrust/weight (sea level)     : 2.00" in out
        assert "Bft 12" in out
        assert "Service ceiling               : 6663 m (21859 ft)\n" in out

    def test_a_ceiling_past_the_model_prints_as_its_top(self, tmp_path, capsys):
        doc = {"airframe": {"motor": {"max_thrust_per_motor": 1700.0}}}
        assert main(["sizing", "--config", _write_config(tmp_path / "c.json", doc)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Service ceiling               : 11000 m (36089 ft), the atmosphere model's " \
            "top: the airframe's own ceiling lies at or above it\n" in out


class TestMissionCommands:
    def test_gen_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        assert main(["mission", "gen", "--target", "40", "--out", str(out)]) == EXIT_OK
        from asid.mission import parse
        plan = parse(out.read_text())
        assert plan.commands[0].kind == "TAKEOFF"

    def test_gen_writes_newlines_where_text_mode_writes_crlf(self, crlf_text_mode, tmp_path,
                                                             capsys):
        from asid.mission import MissionParams, generate_sounding_profile, serialize
        out = tmp_path / "plan.csv"
        assert main(["mission", "gen", "--target", "40", "--out", str(out)]) == EXIT_OK
        plan = generate_sounding_profile(MissionParams(target_alt=40.0))
        assert out.read_bytes() == serialize(plan).encode("utf-8")
        assert b"\r" not in out.read_bytes()

    def test_validate_good_and_bad(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        main(["mission", "gen", "--target", "40", "--out", str(out)])
        assert main(["mission", "validate", "--file", str(out)]) == EXIT_OK
        assert main(["mission", "validate", "--file", str(out),
                     "--ceiling", "30"]) == EXIT_DATA
        assert "violation" in capsys.readouterr().out

    @pytest.mark.parametrize("body, violation", [
        ("", "plan has no commands"),
        ("TAKEOFF,0,0,0,0,0,0,10\nDELAY,1,0,0,0,0,0,0\n", "last command must be LAND, got DELAY"),
    ], ids=["empty", "no_land"])
    def test_validate_an_unflyable_plan_is_data_error(self, body, violation, tmp_path, capsys):
        plan = tmp_path / "plan.csv"
        plan.write_text("command,p1,p2,p3,p4,lat,lon,alt\n" + body)
        assert main(["mission", "validate", "--file", str(plan)]) == EXIT_DATA
        assert capsys.readouterr().out == f"violation: {violation}\n"

    def test_validate_refuses_a_leg_no_command_flies_by_its_deadline(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        assert main(["mission", "gen", "--target", "1500", "--step", "100", "--dwell", "1",
                     "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["mission", "validate", "--file", str(out), "--ceiling", "5000"]) == EXIT_DATA
        assert capsys.readouterr().out == (
            "violation: command 273 (WAYPOINT) to 10 m is a 1490 m leg, past the 1200 m a "
            "command flies by its deadline\n")

    def test_validate_refuses_delays_past_the_logger_clock(self, tmp_path, capsys):
        plan = tmp_path / "plan.csv"
        plan.write_text("command,p1,p2,p3,p4,lat,lon,alt\nTAKEOFF,0,0,0,0,0,0,10\n"
                        "DELAY,50000,0,0,0,0,0,0\nDELAY,36400.5,0,0,0,0,0,0\n"
                        "LAND,0,0,0,0,0,0,0\n")
        assert main(["mission", "validate", "--file", str(plan)]) == EXIT_DATA
        assert capsys.readouterr().out == (
            "violation: DELAY commands total 86400.5 s, past the logger clock's 86400 s limit\n")

    def test_validate_passes_exactly_the_plans_the_flight_starts(self, tmp_path, capsys,
                                                                  monkeypatch):
        import random

        from asid import mission

        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(flightsim, "step", started)
        rng = random.Random(12)
        lines = mission.serialize(mission.generate_sounding_profile(
            mission.MissionParams(target_alt=60.0, headings=(90.0,)))).splitlines()
        kinds = ("TAKEOFF", "WAYPOINT", "DELAY", "LAND")
        for case in range(24):
            body = lines[1:]
            for _ in range(rng.randint(0, 3)):  # replace, delete or insert a command
                at = rng.randrange(len(body))
                value = rng.choice((0.0, 5.0, 1250.0, 1300.0, 50000.0))
                row = f"{rng.choice(kinds)},{value},0,0,0,0,0,{value}"
                action = rng.random()
                if action < 0.4:
                    body[at] = row
                elif action < 0.6 and len(body) > 1:
                    del body[at]
                else:
                    body.insert(at, row)
            plan = tmp_path / f"plan{case}.csv"
            plan.write_text("\n".join([lines[0], *body]) + "\n")
            ceiling = rng.choice((40.0, 1300.0, 60000.0))
            code = main(["mission", "validate", "--file", str(plan), "--ceiling", str(ceiling)])
            monkeypatch.setattr(flightsim, "service_ceiling", lambda cfg: ceiling)
            with pytest.raises((Started, mission.MissionValidationError)) as raised:
                flightsim.run_mission(mission.parse(plan.read_text()),
                                      config.default_run_config().airframe,
                                      flightsim.Environment(), lambda block: None)
            assert (code == EXIT_OK) == (raised.type is Started), case
        capsys.readouterr()

    @pytest.mark.parametrize("option, value, named", [
        ("--dwell", "-1", "capture_dwell"),
        ("--step", "0", "step"),
        ("--start", "-5", "start_alt"),
        ("--headings", "x", "'x'"),
        ("--target", "nan", "target_alt"),
        ("--step", "nan", "step"),
        ("--start", "nan", "start_alt"),
        ("--dwell", "nan", "capture_dwell"),
    ])
    def test_gen_bad_value_exits_config_error(self, option, value, named, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        assert main(["mission", "gen", "--target", "40", option, value,
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: mission gen: ")
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["mission", "validate", "--ceiling", "nan"], "mission validate: --ceiling must be finite"),
        (["mission", "validate", "--ceiling", "-1"],
         "mission validate: --ceiling must be non-negative"),
        (["sizing", "--margin", "nan"], "sizing: --margin must be finite"),
        (["sizing", "--margin", "inf"], "sizing: --margin must be finite"),
        (["sizing", "--margin", "-1"], "sizing: --margin must be positive"),
        (["sizing", "--avg-current", "nan"], "sizing: --avg-current must be finite"),
        (["sizing", "--design-altitude", "1e9"], "sizing: altitude 1000000000.0 m outside"),
        (["sizing", "--avg-current", "1e9"], "sizing: current 1000000000.0 A exceeds"),
        (["sizing", "--flight-minutes", "0"], "sizing: mtbf and flight duration must be"),
        (["sizing", "--drift-duration", "-1"], "sizing: duration must be non-negative"),
        # finite options whose results overflow: each would print "inf"
        (["sizing", "--margin", "1e308"],
         "sizing: the thrust target is too large to print (from --margin)"),
        (["sizing", "--margin", "8e304"], "sizing: the required thrust is too large to print "
                                          "(from --margin and --design-altitude)"),
        (["sizing", "--avg-current", "1e-320"],
         "sizing: the endurance is too large to print (from --avg-current)"),
        (["sizing", "--drift-duration", "1e308"],
         "sizing: the drift is too large to print (from --drift-duration)"),
    ], ids=["ceiling_nan", "ceiling_negative", "margin_nan", "margin_inf", "margin_negative",
            "current_nan", "altitude_1e9", "current_1e9", "minutes_0", "drift_negative",
            "margin_1e308", "margin_8e304", "current_1e-320", "drift_1e308"])
    def test_bad_option_value_exits_config_error(self, argv, message, tmp_path, capsys):
        if argv[0] == "mission":
            plan = tmp_path / "plan.csv"
            main(["mission", "gen", "--target", "40", "--out", str(plan)])
            argv = argv + ["--file", str(plan)]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {message}")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    # argparse takes only "-1" and "-1.5" forms for negative numbers; any
    # other negative float after an option must still reach the option's check
    @pytest.mark.parametrize("argv, message", [
        (["sizing", "--design-altitude", "-1e9"], "sizing: altitude -1000000000.0 m outside"),
        (["sizing", "--margin", "-1e0"], "sizing: --margin must be positive"),
        (["mission", "gen", "--target", "-4e1"],
         "mission gen: start_alt must not exceed target_alt"),
        (["mission", "gen", "--target", "-inf"], "mission gen: target_alt must be finite"),
        (["mission", "validate", "--ceiling", "-1e3"],
         "mission validate: --ceiling must be non-negative"),
    ], ids=["sizing_altitude", "sizing_margin", "gen_target", "gen_target_inf",
            "validate_ceiling"])
    def test_negative_exponent_value_exits_config_error(self, argv, message, tmp_path,
                                                        capsys):
        if argv[:2] == ["mission", "validate"]:
            plan = tmp_path / "plan.csv"
            main(["mission", "gen", "--target", "40", "--out", str(plan)])
            argv = argv + ["--file", str(plan)]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_validate_non_finite_value_is_data_error(self, value, tmp_path, capsys):
        plan = tmp_path / "plan.csv"
        plan.write_text("command,p1,p2,p3,p4,lat,lon,alt\n"
                        f"TAKEOFF,0,0,0,0,0,0,{value}\nDELAY,1,0,0,0,0,0,0\nLAND,0,0,0,0,0,0,0\n")
        assert main(["mission", "validate", "--file", str(plan)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: line 2: alt must be finite")
        assert "mission ok" not in captured.out


class TestServeSyncReport:
    def test_sync_before_serve_is_transport_error(self, tmp_path):
        assert main(["sync", "--host", "127.0.0.1", "--port", "1",
                     "--out", str(tmp_path)]) == EXIT_TRANSPORT

    def test_report_on_missing_input_is_data_error(self, tmp_path):
        assert main(["report", "--in", str(tmp_path), "--out",
                     str(tmp_path / "out")]) == EXIT_DATA

    def test_report_with_empty_air_log_is_surface_only(self, tmp_path, capsys):
        (tmp_path / "air.csv").write_bytes(b"")
        (tmp_path / "ground.csv").write_bytes(
            (GOLDEN / "ground.csv").read_bytes())
        out = tmp_path / "out"
        assert main(["report", "--in", str(tmp_path), "--out", str(out)]) == EXIT_OK
        assert (out / "report.txt").is_file()
        assert not (out / "plots").exists()
        assert "indeterminate" in (out / "report.txt").read_text()

    def test_report_refuses_a_ground_field_the_logger_never_prints(self, tmp_path, capsys):
        ground = (GOLDEN / "ground.csv").read_bytes()
        (tmp_path / "ground.csv").write_bytes(ground.replace(b",15.0,", b",15_0,", 1))
        (tmp_path / "air.csv").write_bytes((GOLDEN / "air.csv").read_bytes())
        out = tmp_path / "out"
        code, err = _exit_code(["report", "--in", str(tmp_path), "--out", str(out)], capsys)
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and "row 1: " in err and "not '_'" in err
        assert not (out / "report.json").exists()

    def test_report_names_the_air_rows_below_an_earlier_row_on_stderr(self, tmp_path, capsys):
        # two hover rows after the golden log's 10.06 m row: the device writes
        # them while its threshold catches up; the report is the golden one
        rows = (GOLDEN / "air.csv").read_bytes().split(b"\r\n")
        jitter = [rows[1].replace(b",10.06,", altitude) for altitude in (b",10.02,", b",10.06,")]
        (tmp_path / "air.csv").write_bytes(b"\r\n".join(rows[:2] + jitter + rows[2:]))
        (tmp_path / "ground.csv").write_bytes((GOLDEN / "ground.csv").read_bytes())
        out = tmp_path / "out"
        code, err = _exit_code(["report", "--in", str(tmp_path), "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert err == "note: air-log rows 3, 4 do not climb above an earlier row; " \
            "the profile leaves them out\n"
        for name in ("report.txt", "report.json", "plots/height_temperature.svg"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_end_to_end_loopback_reproduces_golden_report(self, tmp_path, capsys):
        sd_dir = tmp_path / "sd"
        assert main(["simulate", "--out", str(sd_dir)]) == EXIT_OK

        air = (sd_dir / "air.csv").read_bytes()  # serving ground.csv deletes it
        sd = SdCardImage.from_dir(sd_dir)
        server = synclink.LogServer(sd, port=0)
        stop = threading.Event()
        thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
        thread.start()
        try:
            synced = tmp_path / "synced"
            assert main(["sync", "--host", server.host, "--port", str(server.port),
                         "--out", str(synced)]) == EXIT_OK
            assert (synced / "air.csv").read_bytes() == air

            out = tmp_path / "report"
            assert main(["report", "--in", str(synced), "--out", str(out)]) == EXIT_OK
            assert (out / "report.txt").read_text() == (GOLDEN / "report.txt").read_text()
            assert (out / "report.json").read_text() == (GOLDEN / "report.json").read_text()
            for name in ("height_temperature", "height_humidity", "height_pressure"):
                assert (out / "plots" / f"{name}.svg").read_text() == \
                    (GOLDEN / "plots" / f"{name}.svg").read_text()
        finally:
            stop.set()
            thread.join(timeout=2.0)
            server.close()

    def test_serve_deletes_backing_files_after_ground(self, tmp_path):
        # a card read from its directory deletes the logs there once ground.csv is out
        sd_dir = tmp_path / "sd"
        main(["simulate", "--out", str(sd_dir)])
        server = synclink.LogServer(SdCardImage.from_dir(sd_dir), port=0)
        stop = threading.Event()
        thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
        thread.start()
        try:
            synclink.sync(server.host, server.port, tmp_path / "synced", timeout=5.0)
            assert not (sd_dir / "air.csv").exists()
            assert not (sd_dir / "ground.csv").exists()
            assert (sd_dir / "photos.json").exists()
        finally:
            stop.set()
            thread.join(timeout=2.0)
            server.close()

    def test_asid_serve_deletes_the_logs_it_served_and_stops_on_ctrl_c(self, tmp_path):
        # the serve command in its own process, stopped as a user stops it
        sd_dir = tmp_path / "sd"
        assert main(["simulate", "--out", str(sd_dir)]) == EXIT_OK
        env = dict(os.environ, PYTHONPATH=str(Path(asid.__file__).parents[1]))
        argv = [sys.executable, "-u", "-c",
                "import sys; from asid.cli import main; sys.exit(main(sys.argv[1:]))",
                "serve", "--sdcard", str(sd_dir), "--port", "0"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as child:
            try:
                ready, _, _ = select.select([child.stdout], [], [], 30.0)
                assert ready, "asid serve printed nothing within 30 s"
                first = child.stdout.readline()
                serving = re.fullmatch(r"serving .* on ([\d.]+):(\d+) \(Ctrl-C to stop\)\n",
                                       first)
                assert serving, first
                synclink.sync(serving[1], int(serving[2]), tmp_path / "synced", timeout=5.0)
                assert sorted(path.name for path in sd_dir.iterdir()) == \
                    ["photos.json", "trajectory.csv"]
                child.send_signal(signal.SIGINT)
                assert child.wait(timeout=10.0) == EXIT_OK
                assert child.stderr.read() == ""
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()


def _exit_code(argv, capsys):
    """main(argv), checked to print no traceback; returns (code, stderr)."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def _closed_stdout_argv(command, tmp_path):
    """argv of a command that prints to stdout: sizing (exit 0) or the validation of
    a plan with a violation (exit 5)."""
    if command == "sizing":
        return ["sizing"]
    plan = tmp_path / "plan.csv"
    plan.write_text("command,p1,p2,p3,p4,lat,lon,alt\nTAKEOFF,0,0,0,0,0,0,10\n"
                    "DELAY,1,0,0,0,0,0,0\n")
    return ["mission", "validate", "--file", str(plan)]


class TestFailureFamilies:
    """Each failure family has one exit code: data 5, transport 4, configuration 2
    (an OSError on a path or port included), simulation 3."""

    @pytest.mark.parametrize("command", ["simulate", "report", "mission gen", "sync"])
    def test_out_below_a_regular_file_exits_config_error(self, command, tmp_path, capsys):
        (tmp_path / "file").write_text("x")
        bad = str(tmp_path / "file" / "out")
        argv = {"simulate": ["simulate", "--out", bad],
                "report": ["report", "--in", str(GOLDEN), "--out", bad],
                "mission gen": ["mission", "gen", "--target", "20", "--out", bad],
                "sync": ["sync", "--port", "1", "--out", bad]}[command]
        code, err = _exit_code(argv, capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: ") and "Not a directory" in err

    def test_sync_to_a_bad_out_keeps_both_logs_on_the_card(self, tmp_path, capsys):
        sd = SdCardImage({firmware.AIR_LOG: (GOLDEN / "air.csv").read_bytes(),
                          firmware.GROUND_LOG: (GOLDEN / "ground.csv").read_bytes()})
        server = synclink.LogServer(sd, port=0)
        stop = threading.Event()
        thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
        thread.start()
        try:
            (tmp_path / "file").write_text("x")
            argv = ["sync", "--host", server.host, "--port", str(server.port), "--out"]
            assert _exit_code(argv + [str(tmp_path / "file" / "out")], capsys)[0] == EXIT_CONFIG
            assert sorted(sd.files) == [firmware.AIR_LOG, firmware.GROUND_LOG]
            assert _exit_code(argv + [str(tmp_path / "synced")], capsys)[0] == EXIT_OK
            assert (tmp_path / "synced" / "ground.csv").read_bytes() == \
                (GOLDEN / "ground.csv").read_bytes()
        finally:
            stop.set()
            thread.join(timeout=2.0)
            server.close()

    def test_sync_that_cannot_write_ground_keeps_its_bytes_on_disk(self, tmp_path, capsys):
        # serving ground.csv empties the card, so the synced bytes must already be on disk
        logs = {name: (GOLDEN / name).read_bytes()
                for name in (firmware.AIR_LOG, firmware.GROUND_LOG)}
        server = synclink.LogServer(SdCardImage(dict(logs)), port=0)
        stop = threading.Event()
        thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
        thread.start()
        out = tmp_path / "synced"
        (out / firmware.GROUND_LOG).mkdir(parents=True)
        try:
            code, err = _exit_code(["sync", "--host", server.host, "--port", str(server.port),
                                    "--out", str(out)], capsys)
        finally:
            stop.set()
            thread.join(timeout=2.0)
            server.close()
        partial = out / f"{firmware.GROUND_LOG}.part"
        assert code == EXIT_CONFIG
        assert str(partial) in err and str(out / firmware.GROUND_LOG) in err
        assert sorted(server.sd.files) == []
        assert (out / firmware.AIR_LOG).read_bytes() == logs[firmware.AIR_LOG]
        assert partial.read_bytes() == logs[firmware.GROUND_LOG]

    def test_serve_refuses_a_busy_port_a_bad_port_and_a_missing_card(self, tmp_path, capsys):
        card = str(tmp_path)  # an empty card; each case fails before the first accept
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = str(busy.getsockname()[1])
            code, err = _exit_code(["serve", "--sdcard", card, "--port", port], capsys)
            assert code == EXIT_CONFIG and "Address already in use" in err
        code, err = _exit_code(["serve", "--sdcard", card, "--port", "70000"], capsys)
        assert (code, err) == (EXIT_CONFIG,
                               "configuration error: serve: --port must lie in [0, 65535]\n")
        code, err = _exit_code(["serve", "--sdcard", str(tmp_path / "missing")], capsys)
        assert code == EXIT_CONFIG and "No such file or directory" in err

    @pytest.mark.parametrize("port", ["99999", "-1", "0"])
    def test_sync_refuses_a_port_outside_the_tcp_range(self, port, tmp_path, capsys):
        # checked before any connection and before --out is made
        out = tmp_path / "synced"
        code, err = _exit_code(["sync", "--host", "127.0.0.1", "--port", port,
                                "--out", str(out)], capsys)
        assert (code, err) == (EXIT_CONFIG,
                               "configuration error: sync: --port must lie in [1, 65535]\n")
        assert not out.exists()

    def test_mission_validate_missing_file_and_bad_byte(self, tmp_path, capsys):
        code, err = _exit_code(["mission", "validate", "--file", str(tmp_path / "no.csv")],
                               capsys)
        assert code == EXIT_CONFIG and "No such file or directory" in err
        plan = tmp_path / "plan.csv"
        main(["mission", "gen", "--target", "20", "--out", str(plan)])
        lines = plan.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b",", b"\xff,", 1)
        plan.write_bytes(b"\n".join(lines))
        code, err = _exit_code(["mission", "validate", "--file", str(plan)], capsys)
        assert code == EXIT_DATA and err.startswith("data error: line 4: ")

    @pytest.mark.parametrize("case, message", [
        ("non_ascii", "data error: ground-log row 3: non-ASCII byte\n"),
        ("bad_last_stamp", "data error: last ground-log row: time data "),
        ("empty", "data error: surface summary needs at least one ground row\n"),
        ("humidity_above_100", "data error: ground-log medians: relative humidity must lie "),
        ("bad_row_stamp", "data error: ground-log row 2: date and time '99.99.zzzz,10:15:03' "
                          "do not read DD.MM.YYYY,HH:MM:SS\n"),
    ], ids=["non_ascii", "bad_last_stamp", "empty", "humidity_above_100", "bad_row_stamp"])
    def test_report_on_bad_ground_log_exits_data_error(self, case, message, tmp_path, capsys):
        rows = (GOLDEN / "ground.csv").read_bytes().split(b"\r\n")[:-1]
        if case == "non_ascii":
            rows[2] = rows[2].replace(b",", b"\xe9,", 1)
        elif case == "bad_last_stamp":  # the right shape, but no such month
            rows[-1] = rows[-1].replace(b".06.", b".13.", 1)
        elif case == "bad_row_stamp":
            rows[1] = b"99.99.zzzz" + rows[1][len(b"01.06.2021"):]
        elif case == "empty":
            rows = []
        else:
            rows = [row.replace(b",50.0,", b",150.0,") for row in rows]
        (tmp_path / "ground.csv").write_bytes(b"".join(row + b"\r\n" for row in rows))
        out = tmp_path / "out"
        code, err = _exit_code(["report", "--in", str(tmp_path), "--out", str(out)], capsys)
        assert code == EXIT_DATA and err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("bad_ground", [False, True], ids=["good_ground", "bad_ground"])
    def test_report_on_bad_air_log_names_the_air_log(self, bad_ground, tmp_path, capsys):
        for name in ("air.csv", "ground.csv"):
            rows = (GOLDEN / name).read_bytes().split(b"\r\n")
            if name == "air.csv" or bad_ground:  # the air log's error comes first
                rows[1] = rows[1].replace(b",", b"\xe9,", 1)
            (tmp_path / name).write_bytes(b"\r\n".join(rows))
        out = tmp_path / "out"
        code, err = _exit_code(["report", "--in", str(tmp_path), "--out", str(out)], capsys)
        assert (code, err) == (EXIT_DATA, "data error: air-log row 2: non-ASCII byte\n")
        assert not out.exists()

    def test_noise_below_zero_pressure_exits_simulation_error(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.json",
                             {"environment": {"sensor_noise": {"pressure": 1e7}}})
        code, err = _exit_code(["simulate", "--config", path, "--out", str(tmp_path / "sd")],
                               capsys)
        assert code == EXIT_SIMULATION
        assert err.startswith("simulation error: sensor noise drove the pressure to -")

    def test_tiny_negative_heading_folds_to_zero(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.json", {"mission": {"headings": [-1e-14]}})
        assert _exit_code(["simulate", "--config", path, "--out", str(tmp_path / "sd")],
                          capsys)[0] == EXIT_OK
        plan = tmp_path / "plan.csv"
        assert _exit_code(["mission", "gen", "--target", "20", "--headings=-1e-14",
                           "--out", str(plan)], capsys)[0] == EXIT_OK
        assert "CONDITION_YAW,0.0," in plan.read_text()
        assert "CONDITION_YAW,360.0," not in plan.read_text()

    def test_airframe_overflow_exits_config_error(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.json", {"airframe": {"prop": {"diameter": 1e300}}})
        for argv, message in (
                (["simulate", "--config", path, "--out", str(tmp_path / "sd")],
                 "airframe.prop: diameter / pitch is too large"),
                (["sizing", "--config", path], "airframe.prop: diameter / pitch is too large"),
                (["sizing", "--flight-minutes", "1e-320"],
                 "sizing: mtbf / flight duration is too large")):
            code, err = _exit_code(argv, capsys)
            assert code == EXIT_CONFIG, argv
            assert err.startswith(f"configuration error: {message}")

    def test_value_error_inside_a_command_is_a_bug(self, monkeypatch):
        def broken(cfg, out_dir):
            raise ValueError("a bug")

        monkeypatch.setattr(pipeline, "simulate", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["simulate", "--out", "unused"])

    def test_runtime_error_inside_a_command_is_a_bug(self, monkeypatch):
        # only the simulation family exits 3; any other RuntimeError prints a traceback
        def broken(cfg, out_dir):
            raise RuntimeError("a bug")

        monkeypatch.setattr(pipeline, "simulate", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["simulate", "--out", "unused"])

    def test_an_empty_pack_exits_simulation_error(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.json",
                             {"airframe": {"battery": {"capacity_mah": 1.0}}})
        code, err = _exit_code(["simulate", "--config", path, "--out", str(tmp_path / "sd")],
                               capsys)
        assert code == EXIT_SIMULATION
        assert err == "simulation error: battery exhausted before the plan completed\n"

    @pytest.mark.parametrize("command, expected", [
        ("sizing", EXIT_OK), ("validate", EXIT_DATA)])
    def test_a_closed_stdout_keeps_the_exit_code_in_silence(self, command, expected,
                                                            monkeypatch, tmp_path, capsys):
        # `asid sizing | head -c 1`: the reader is gone before the output is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        closed = os.fdopen(write_end, "w", buffering=1)
        try:
            monkeypatch.setattr(sys, "stdout", closed)
            assert main(_closed_stdout_argv(command, tmp_path)) == expected
            assert capsys.readouterr().err == ""
            assert sys.stdout is closed
            closed.write("later output\n")  # the descriptor now writes to os.devnull
            closed.flush()
        finally:
            closed.close()

    def test_a_closed_stdout_without_a_descriptor_keeps_the_exit_code(self, monkeypatch,
                                                                      tmp_path, capsys):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(_closed_stdout_argv("validate", tmp_path)) == EXIT_DATA
        assert capsys.readouterr().err == ""

    def test_a_broken_pipe_on_another_file_is_not_caught_as_stdout(self, monkeypatch,
                                                                    capsys):
        # e.g. an --out FIFO whose reader has gone: stdout is fine and keeps its output
        def fifo_writer(path):  # sizing's first call: the parser holds _cmd_sizing itself
            print("before the write")
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_load_config", fifo_writer)
        capsys.readouterr()
        assert main(["sizing"]) == EXIT_TRANSPORT
        captured = capsys.readouterr()
        assert captured.out == "before the write\n"
        assert captured.err == "transport error: [Errno 32] Broken pipe\n"

    def test_a_broken_sync_connection_is_still_a_transport_error(self, monkeypatch, tmp_path,
                                                                 capsys):
        class Peer:
            def sendall(self, data):
                raise BrokenPipeError(32, "Broken pipe")

            def close(self):
                pass

        monkeypatch.setattr(synclink.socket, "create_connection", lambda *a, **k: Peer())
        code, err = _exit_code(["sync", "--port", "1", "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_TRANSPORT
        assert err == "transport error: connection to 127.0.0.1:1 failed: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("command, expected", [
        ("sizing", EXIT_OK), ("validate", EXIT_DATA)])
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_a_closed_stdout_pipe_keeps_the_exit_code_in_a_subprocess(self, unbuffered,
                                                                      command, expected,
                                                                      tmp_path):
        # the parent closes its read end at once, so every write of the child fails;
        # a block-buffered stdout fails only at the flush
        env = dict(os.environ, PYTHONPATH=str(Path(asid.__file__).parents[1]),
                   PYTHONUNBUFFERED=unbuffered)
        child = subprocess.Popen(
            [sys.executable, "-m", "asid.cli", *_closed_stdout_argv(command, tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=30) == expected
        assert err == b""
