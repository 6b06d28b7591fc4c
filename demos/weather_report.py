"""
Pre-flight weather report
=========================

Turns the synced log files into the ground-station products: surface
medians, dew point, heat and discomfort indices, the extrapolated
freezing level, and the three height-profile SVG plots.
"""

from pathlib import Path

from asid import groundstation, wxindices
from asid.config import default_run_config
from asid.pipeline import run_simulation

OUT = Path(__file__).resolve().parent / "output" / "weather_report"

result = run_simulation(default_run_config())

# The vertical profile uses the logger's calibrated altitude as its
# height coordinate; the surface block is the median of the ground rows.
air, ground = result.sd.read("air.csv"), result.sd.read("ground.csv")
profile = wxindices.build_profile(air, ground)
print(f"profile: {len(profile.levels)} levels, "
      f"{profile.levels[0].cal_altitude:.1f} .. {profile.levels[-1].cal_altitude:.1f} m")

report, written = groundstation.write_report(air, ground, OUT)
print()
print(groundstation.render_text_report(report), end="")

# A 35 m column cannot observe 0 degC directly, so the freezing level is
# an extrapolation of the fitted lapse rate; the 1-decimal log format
# quantises the fit, which is why it lands above the analytic 15/0.0065.
fl = report.freezing_level
print(f"\nfreezing level detail: status={fl.status}, altitude={fl.altitude_m:.1f} m")

print(f"\nwrote {len(written)} documents:")
for path in written:
    print(f"  {path.relative_to(OUT.parent)}")
