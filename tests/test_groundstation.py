import importlib.util
import json
from datetime import datetime
from pathlib import Path

import pytest

from asid.cli import EXIT_CONFIG, main
from asid.groundstation import (
    PLOT_NAMES,
    build_bundle,
    render_json_report,
    render_plots,
    render_text_report,
    report_to_dict,
    write_bundle,
    write_report,
)
from asid.wxindices import (
    FreezingLevel,
    LogRow,
    SoundingProfile,
    SurfaceSummary,
    WxReport,
    build_profile,
    build_report,
)

GOLDEN = Path(__file__).parent / "golden"
FREEZE_GOLDENS = Path(__file__).resolve().parent.parent / "scripts" / "freeze_goldens.py"


def _profile(n_levels=7):
    levels = tuple(
        LogRow(date="01.06.2021", time=f"10:16:{i:02d}",
               temperature=15.0 - 0.0065 * 5.0 * (i + 1), humidity=50.0 - 0.2 * i,
               heat_index=13.9, pressure_hpa=1008.0 - 0.6 * i, cal_altitude=5.0 * (i + 1))
        for i in range(n_levels)
    )
    return SoundingProfile(levels=levels,
                           surface=SurfaceSummary(15.0, 50.0, 1008.18),
                           collection_time=datetime(2021, 6, 1, 10, 16, 32))


def _report(**overrides):
    defaults = dict(
        surface_temperature=15.0,
        surface_humidity=50.0,
        surface_pressure=1008.18,
        dew_point=4.65,
        freezing_level=FreezingLevel("extrapolated", 2307.7),
        discomfort_index=14.86,
        heat_index=13.86,
        fitted_lapse_rate=0.0065,
        collection_time=datetime(2021, 6, 1, 10, 16, 32),
    )
    defaults.update(overrides)
    return WxReport(**defaults)


class TestPlots:
    def test_three_documents_with_all_levels(self):
        plots = render_plots(_profile(7))
        assert set(plots) == set(PLOT_NAMES)
        for svg in plots.values():
            assert svg.count("<circle") == 7
            assert "<polyline" in svg

    def test_single_level_marker_without_line(self):
        plots = render_plots(_profile(1))
        for svg in plots.values():
            assert svg.count("<circle") == 1
            assert "<polyline" not in svg

    def test_identical_inputs_identical_bytes(self):
        assert render_plots(_profile()) == render_plots(_profile())

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            render_plots(_profile(0))

    def test_altitude_is_vertical_axis(self):
        svg = render_plots(_profile())["height_temperature"]
        assert "altitude [m]" in svg
        assert "temperature [C]" in svg


class TestTextReport:
    def test_fixed_field_order(self):
        text = render_text_report(_report())
        lines = text.splitlines()
        assert lines[0] == "AERIAL WEATHER REPORT"
        order = ["Collected", "Temperature", "Humidity", "Pressure", "Dew point",
                 "Heat index", "Discomfort index", "Freezing level", "Lapse rate"]
        positions = [next(i for i, l in enumerate(lines) if key in l) for key in order]
        assert positions == sorted(positions)

    def test_indeterminate_freezing_level_line(self):
        text = render_text_report(_report(freezing_level=FreezingLevel("indeterminate"),
                                          fitted_lapse_rate=None))
        assert "Freezing level   : indeterminate" in text
        assert "Lapse rate       : n/a" in text

    def test_below_surface_line(self):
        text = render_text_report(_report(freezing_level=FreezingLevel("below_surface", -40.0)))
        assert "below surface" in text


class TestJsonReport:
    def test_round_trips_to_equal_values(self):
        report = _report()
        parsed = json.loads(render_json_report(report))
        assert parsed == report_to_dict(report)
        assert parsed["surface"]["temperature_c"] == 15.0
        assert parsed["freezing_level"]["status"] == "extrapolated"

    def test_cross_format_value_equality(self):
        report = _report()
        text = render_text_report(report)
        parsed = json.loads(render_json_report(report))
        assert f"{parsed['dew_point_c']:.2f}" in text
        assert f"{parsed['surface']['pressure_hpa']:.2f}" in text
        assert f"{parsed['freezing_level']['altitude_m']:.1f}" in text


class TestBundle:
    def test_write_layout(self, tmp_path):
        profile = _profile()
        report = _report()
        bundle = build_bundle(report, profile, sources=("a", "g"),
                              generated_at=report.collection_time)
        written = write_bundle(bundle, tmp_path)
        expected = {tmp_path / "report.txt", tmp_path / "report.json"}
        expected |= {tmp_path / "plots" / f"{name}.svg" for name in PLOT_NAMES}
        assert set(written) == expected
        for path in written:
            assert path.is_file() and path.stat().st_size > 0

    def test_plot_points_match_level_count(self):
        profile = _profile(4)
        bundle = build_bundle(_report(), profile, sources=(), generated_at=datetime.now())
        for name in PLOT_NAMES:
            assert bundle[f"plots/{name}.svg"].count(b"<circle") == len(profile.levels)


    def test_the_golden_documents_in_their_order(self):
        profile = build_profile((GOLDEN / "air.csv").read_bytes(),
                                (GOLDEN / "ground.csv").read_bytes())
        report = build_report(profile)
        bundle = build_bundle(report, profile, sources=(), generated_at=report.collection_time)
        names = ["report.txt", "report.json", *(f"plots/{name}.svg" for name in PLOT_NAMES)]
        assert list(bundle) == names
        assert bundle == {name: (GOLDEN / name).read_bytes() for name in names}

    def test_a_surface_only_profile_has_no_plots_directory(self, tmp_path):
        profile = _profile(0)
        bundle = build_bundle(_report(), profile, sources=(), generated_at=datetime.now())
        assert list(bundle) == ["report.txt", "report.json"]
        assert write_bundle(bundle, tmp_path / "out") == [tmp_path / "out" / "report.txt",
                                                          tmp_path / "out" / "report.json"]
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == \
            ["report.json", "report.txt"]

    def test_writing_below_a_regular_file_is_an_os_error(self, tmp_path, capsys):
        (tmp_path / "file").write_bytes(b"")
        bundle = build_bundle(_report(), _profile(), sources=(), generated_at=datetime.now())
        with pytest.raises(OSError):
            write_bundle(bundle, tmp_path / "file" / "out")
        for name in ("air.csv", "ground.csv"):
            (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
        capsys.readouterr()
        code = main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "file" / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")


class TestGoldenReport:
    def test_golden_flight_report_matches_frozen_text(self):
        profile = build_profile((GOLDEN / "air.csv").read_bytes(),
                                (GOLDEN / "ground.csv").read_bytes())
        report = build_report(profile)
        assert render_text_report(report) == (GOLDEN / "report.txt").read_text()
        assert render_json_report(report) == (GOLDEN / "report.json").read_text()

    def test_golden_plots_match_frozen_svgs(self):
        profile = build_profile((GOLDEN / "air.csv").read_bytes(),
                                (GOLDEN / "ground.csv").read_bytes())
        plots = render_plots(profile)
        for name in PLOT_NAMES:
            assert plots[name] == (GOLDEN / "plots" / f"{name}.svg").read_text()

    def test_write_report_keeps_the_golden_bytes_where_text_mode_writes_crlf(
            self, crlf_text_mode, tmp_path):
        _, _, written = write_report((GOLDEN / "air.csv").read_bytes(),
                                     (GOLDEN / "ground.csv").read_bytes(), tmp_path / "out")
        assert len(written) == 5
        for path in written:
            assert path.read_bytes() == (GOLDEN / path.relative_to(tmp_path / "out")).read_bytes()

    def test_freeze_goldens_reproduces_the_golden_set(self, tmp_path):
        spec = importlib.util.spec_from_file_location("freeze_goldens", FREEZE_GOLDENS)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.main(tmp_path)

        def files(root):
            return {path.relative_to(root): path.read_bytes()
                    for path in sorted(root.rglob("*")) if path.is_file()}

        frozen = files(GOLDEN)
        assert frozen
        assert files(tmp_path) == frozen
