"""End-to-end simulation: mission generation, flight, and logger emulation.

One logger loop covers both phases: the drone sits at altitude 0 while the
ground rows are logged, and the flight starts on the logger clock when the
ground phase ends, so the air phase samples the mission trajectory.  The
loop is polled every 100 ms of simulated time; "wait" effects skip the
clock forward the way the blocking delays do on the device.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from pathlib import Path

from . import firmware, flightsim, mission
from .airframe import service_ceiling  # noqa: F401  uncalled; perfbench/tracer.py probes this name
from .config import RunConfig
from .firmware import Phase, SdCardImage
from .flightsim import Trajectory

LOOP_POLL_MS = 100

log = logging.getLogger(__name__)


@dataclass
class SimulationResult:
    sd: SdCardImage
    trajectory: Trajectory
    ground_rows: int
    air_rows: int
    server_started: bool


def _row_count(sd: SdCardImage, name: str) -> int:
    data = sd.read(name)
    return data.count(b"\r\n") if data else 0


def _effect_wait_ms(effects: list[tuple]) -> int:
    """Total time the device blocks for this loop pass (buzzers + delays)."""
    total = 0
    for effect in effects:
        if effect[0] in ("buzzer", "wait"):
            total += effect[1]
    return total


def run_simulation(cfg: RunConfig) -> SimulationResult:
    """Run the full pipeline in memory and return the SD image + trajectory."""
    env = cfg.environment
    rng = random.Random(env.rng_seed)

    plan = mission.generate_sounding_profile(cfg.mission)
    log.info("mission: %d commands", len(plan.commands))

    trajectory = flightsim.run_mission(plan, cfg.airframe, env)
    if log.isEnabledFor(logging.INFO):  # max_altitude is a pass over every sample
        log.info("flight: %.1f s, peak %.2f m, %d camera events",
                 trajectory.duration, trajectory.max_altitude, len(trajectory.camera_events))

    sd = SdCardImage()
    first = flightsim.true_sample(env, 0.0, rng)
    state = firmware.setup(cfg.firmware, first.pressure)

    # ms, logger clock; the drone sits at altitude 0 until the ground phase ends
    clock = flight_start = 0
    flight_ms = int(trajectory.duration * 1000.0)
    while state.phase is not Phase.SERVING and clock - flight_start <= flight_ms:
        on_ground = state.phase is Phase.GROUND
        altitude = trajectory.altitude_at((clock - flight_start) / 1000.0)
        reading = flightsim.true_sample(env, altitude, rng)
        effects = firmware.tick(state, reading, clock, sd)
        clock += max(_effect_wait_ms(effects), LOOP_POLL_MS)
        if on_ground:
            flight_start = clock

    sd.append(firmware.PHOTO_MANIFEST, trajectory.camera_manifest().encode("ascii"))

    result = SimulationResult(
        sd=sd,
        trajectory=trajectory,
        ground_rows=_row_count(sd, firmware.GROUND_LOG),
        air_rows=_row_count(sd, firmware.AIR_LOG),
        server_started=state.phase is Phase.SERVING,
    )
    log.info("logs: %d ground rows, %d air rows, server started: %s",
             result.ground_rows, result.air_rows, result.server_started)
    return result


def simulate(cfg: RunConfig, out_dir) -> SimulationResult:
    """Run the pipeline and write the SD image plus trajectory.csv to out_dir."""
    result = run_simulation(cfg)
    directory = Path(out_dir)
    result.sd.to_dir(directory)
    (directory / "trajectory.csv").write_text(result.trajectory.to_csv(), encoding="ascii")
    return result
