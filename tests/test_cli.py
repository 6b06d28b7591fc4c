import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import asid
from asid import config, firmware, synclink
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


class TestMissionCommands:
    def test_gen_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        assert main(["mission", "gen", "--target", "40", "--out", str(out)]) == EXIT_OK
        from asid.mission import parse
        plan = parse(out.read_text())
        assert plan.commands[0].kind == "TAKEOFF"

    def test_validate_good_and_bad(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        main(["mission", "gen", "--target", "40", "--out", str(out)])
        assert main(["mission", "validate", "--file", str(out)]) == EXIT_OK
        assert main(["mission", "validate", "--file", str(out),
                     "--ceiling", "30"]) == EXIT_DATA
        assert "violation" in capsys.readouterr().out

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
    ], ids=["ceiling_nan", "ceiling_negative", "margin_nan", "margin_inf", "margin_negative",
            "current_nan", "altitude_1e9", "current_1e9", "minutes_0", "drift_negative"])
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

    def test_end_to_end_loopback_reproduces_golden_report(self, tmp_path, capsys):
        sd_dir = tmp_path / "sd"
        assert main(["simulate", "--out", str(sd_dir)]) == EXIT_OK

        sd = SdCardImage.from_dir(sd_dir)
        server = synclink.LogServer(sd, port=0)
        stop = threading.Event()
        thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
        thread.start()
        try:
            synced = tmp_path / "synced"
            assert main(["sync", "--host", server.host, "--port", str(server.port),
                         "--out", str(synced)]) == EXIT_OK
            assert (synced / "air.csv").read_bytes() == (sd_dir / "air.csv").read_bytes()

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
        # exercise the on-disk deletion path the serve subcommand wires up
        sd_dir = tmp_path / "sd"
        main(["simulate", "--out", str(sd_dir)])
        sd = SdCardImage.from_dir(sd_dir)

        def on_ground_served():
            for name in ("air.csv", "ground.csv"):
                (sd_dir / name).unlink(missing_ok=True)

        server = synclink.LogServer(sd, port=0, on_ground_served=on_ground_served)
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
