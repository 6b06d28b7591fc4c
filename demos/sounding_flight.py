"""
Autonomous sounding flight
==========================

Generates the stepped photographic sounding profile, flies it in the
vertical simulator, and lets the emulated on-board logger write its SD
card image: six ground rows, then one air row every 5 m of calibrated
altitude.
"""

from pathlib import Path

from asid.config import default_run_config
from asid.mission import MissionParams, generate_sounding_profile, serialize
from asid.pipeline import simulate

OUT = Path(__file__).resolve().parent / "output" / "sounding_flight"

# The mission: take off to 10 m, photograph the horizon at each compass
# heading, climb 10 m, repeat up to 40 m, then come home.
plan = generate_sounding_profile(MissionParams(target_alt=40.0))
print(f"mission: {len(plan.commands)} commands, "
      f"{sum(c.kind == 'DO_DIGICAM_CONTROL' for c in plan.commands)} captures")
print(serialize(plan).splitlines()[0])
for line in serialize(plan).splitlines()[1:8]:
    print(" ", line)
print("  ...")

# Fly it and emulate the logger in one go.  The default configuration is
# a calm standard day with a fixed RNG seed, so this output is
# reproducible bit for bit.
result = simulate(default_run_config(), OUT)

print(f"\nflight took {result.trajectory.duration:.1f} s, "
      f"peak altitude {result.trajectory.max_altitude:.2f} m")
print(f"logger wrote {result.ground_rows} ground rows and {result.air_rows} air rows; "
      f"file server armed: {result.server_started}")

print(f"\nSD image in {OUT}:")
for name in ("ground.csv", "air.csv", "photos.json", "trajectory.csv"):
    print(f"  {name}: {(OUT / name).stat().st_size} bytes")

print("\nair.csv (one row per 5 m threshold):")
print((OUT / "air.csv").read_text(), end="")
