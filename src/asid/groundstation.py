"""Report and plot emission: plain-text and JSON weather reports plus
deterministic SVG profile plots (altitude on the vertical axis).

Everything here is a pure function of (profile, report, timestamp), so
identical inputs produce byte-identical documents.  ``write_report`` is the
one chain from the synced log bytes to the written documents.
"""

from __future__ import annotations

import json
from datetime import datetime
from pathlib import Path

from . import wxindices  # resolved per call, where perfbench/tracer.py wraps it
from .firmware import AIR_LOG, GROUND_LOG
from .wxindices import FreezingLevel, SoundingProfile, WxReport

PLOT_NAMES = ("height_temperature", "height_humidity", "height_pressure")

_SVG_W, _SVG_H = 480, 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 46


def _axis_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    span = hi - lo
    pad = 0.05 * span if span > 0.0 else 0.05 * max(1.0, abs(hi))
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _svg_profile_plot(title: str, x_label: str, points: list[tuple[float, float]]) -> str:
    """One (value, altitude) scatter/line plot as a self-contained SVG string."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - _MARGIN_L - _MARGIN_R)

    def sy(y: float) -> float:
        return _SVG_H - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - _MARGIN_T - _MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_SVG_W - _MARGIN_L - _MARGIN_R}" '
        f'height="{_SVG_H - _MARGIN_T - _MARGIN_B}" fill="none" stroke="black"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{_SVG_H - _MARGIN_B}" x2="{x:.2f}" '
                     f'y2="{_SVG_H - _MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_SVG_H - _MARGIN_B + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{tick:.2f}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 3:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{tick:.1f}</text>')
    parts.append(f'<text x="{_SVG_W / 2:.1f}" y="{_SVG_H - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11">{x_label}</text>')
    parts.append(f'<text x="14" y="{_SVG_H / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 14 {_SVG_H / 2:.1f})">altitude [m]</text>')
    if len(points) >= 2:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f77b4" '
                     f'stroke-width="1.5"/>')
    for x, y in points:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f77b4"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plots(profile: SoundingProfile) -> dict[str, str]:
    """The three profile plots keyed by output file stem."""
    if not profile.levels:
        raise ValueError("cannot plot an empty profile")
    levels = profile.levels
    return {
        "height_temperature": _svg_profile_plot(
            "Height / temperature", "temperature [C]",
            [(l.temperature, l.cal_altitude) for l in levels]),
        "height_humidity": _svg_profile_plot(
            "Height / humidity", "relative humidity [%]",
            [(l.humidity, l.cal_altitude) for l in levels]),
        "height_pressure": _svg_profile_plot(
            "Height / pressure", "pressure [hPa]",
            [(l.pressure_hpa, l.cal_altitude) for l in levels]),
    }


def _freezing_level_text(fl: FreezingLevel) -> str:
    if fl.status == "indeterminate":
        return "indeterminate"
    if fl.status == "below_surface":
        return f"below surface ({fl.altitude_m:.1f} m)"
    return f"{fl.altitude_m:.1f} m ({fl.status})"


def render_text_report(report: WxReport) -> str:
    """Fixed-template plain-text report; field order never changes."""
    lapse = (f"{report.fitted_lapse_rate * 1000.0:.2f} C/km"
             if report.fitted_lapse_rate is not None else "n/a")
    t = report.collection_time  # a four-digit year on every C library, unlike %Y
    lines = [
        "AERIAL WEATHER REPORT",
        "=====================",
        f"Collected: {t.day:02d}.{t.month:02d}.{t.year:04d} {t:%H:%M:%S}",
        "",
        "Surface (ground-log medians)",
        f"  Temperature      : {report.surface_temperature:.1f} C",
        f"  Humidity         : {report.surface_humidity:.1f} %",
        f"  Pressure         : {report.surface_pressure:.2f} hPa",
        "",
        "Indices",
        f"  Dew point        : {report.dew_point:.2f} C",
        f"  Heat index       : {report.heat_index:.2f} C",
        f"  Discomfort index : {report.discomfort_index:.2f}",
        f"  Freezing level   : {_freezing_level_text(report.freezing_level)}",
        f"  Lapse rate       : {lapse}",
    ]
    return "\n".join(lines) + "\n"


def report_to_dict(report: WxReport) -> dict:
    """JSON-ready view of the report; values rounded to physical precision."""
    return {
        "collection_time": report.collection_time.isoformat(),
        "surface": {
            "temperature_c": round(report.surface_temperature, 4),
            "humidity_pct": round(report.surface_humidity, 4),
            "pressure_hpa": round(report.surface_pressure, 4),
        },
        "dew_point_c": round(report.dew_point, 4),
        "heat_index_c": round(report.heat_index, 4),
        "discomfort_index": round(report.discomfort_index, 4),
        "freezing_level": {
            "status": report.freezing_level.status,
            "altitude_m": (round(report.freezing_level.altitude_m, 2)
                           if report.freezing_level.altitude_m is not None else None),
        },
        "fitted_lapse_rate_c_per_m": (round(report.fitted_lapse_rate, 8)
                                      if report.fitted_lapse_rate is not None else None),
    }


def render_json_report(report: WxReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def build_bundle(report: WxReport, profile: SoundingProfile, sources: tuple[str, ...],
                 generated_at: datetime) -> dict[str, bytes]:
    """The report's documents as their ASCII bytes, keyed by path under the
    output directory: report.txt, report.json and, for a profile with air
    levels, plots/<name>.svg.  No document reads sources or generated_at;
    they stay only because perfbench/roundtrip.py passes them."""
    documents = {"report.txt": render_text_report(report).encode("ascii"),
                 "report.json": render_json_report(report).encode("ascii")}
    if profile.levels:
        for name, svg in render_plots(profile).items():
            documents[f"plots/{name}.svg"] = svg.encode("ascii")
    return documents


def write_bundle(documents: dict[str, bytes], out_dir) -> list[Path]:
    """Write each document's bytes under out_dir, making its directory;
    returns the paths in the documents' order.  Bytes, not text, so no text
    layer turns the newlines into the platform's."""
    written = []
    for name, data in documents.items():
        path = Path(out_dir) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        written.append(path)
    return written


def write_report(air_csv: bytes, ground_csv: bytes, out_dir) \
        -> tuple[SoundingProfile, WxReport, list[Path]]:
    """Parse the synced logs, build the report and its plots and write them to
    out_dir; returns the profile, the report and the written paths."""
    profile = wxindices.build_profile(air_csv, ground_csv)
    report = wxindices.build_report(profile)
    bundle = build_bundle(report, profile, sources=(AIR_LOG, GROUND_LOG),
                          generated_at=report.collection_time)
    return profile, report, write_bundle(bundle, out_dir)
