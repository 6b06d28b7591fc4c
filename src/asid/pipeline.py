"""End-to-end simulation: mission generation, flight, and logger emulation.

The logger writes its ground rows in one pass while the drone sits at
altitude 0; the flight starts on the logger clock when that pass ends, so
the air phase samples the mission trajectory.  The air loop is polled every
100 ms of simulated time, or after the time each poll blocks (its delays
and buzzes), whichever is longer.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from pathlib import Path

from . import firmware, flightsim, mission
from .airframe import service_ceiling  # noqa: F401  uncalled; perfbench/tracer.py probes this name
from .config import RunConfig
from .firmware import SdCardImage
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
    data = sd.files.get(name)  # the card's own buffer: read() would copy it
    return data.count(b"\r\n") if data else 0


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

    # ms, logger clock; the flight starts when the ground rows are written
    start = clock = firmware.log_ground(state, lambda: flightsim.true_sample(env, 0.0, rng), sd)
    end = start + int(trajectory.duration * 1000.0)
    while not state.serving and clock <= end:
        reading = flightsim.true_sample(env, trajectory.altitude_at((clock - start) / 1000.0), rng)
        clock += max(firmware.tick(state, reading, clock, sd), LOOP_POLL_MS)

    sd.append(firmware.PHOTO_MANIFEST, trajectory.camera_manifest().encode("ascii"))

    result = SimulationResult(
        sd=sd,
        trajectory=trajectory,
        ground_rows=_row_count(sd, firmware.GROUND_LOG),
        air_rows=_row_count(sd, firmware.AIR_LOG),
        server_started=state.serving,
    )
    log.info("logs: %d ground rows, %d air rows, server started: %s",
             result.ground_rows, result.air_rows, result.server_started)
    return result


def simulate(cfg: RunConfig, out_dir) -> SimulationResult:
    """Run the pipeline and write the SD image plus trajectory.csv to out_dir;
    the trajectory is written to the file in chunks, never built whole."""
    result = run_simulation(cfg)
    directory = Path(out_dir)
    result.sd.to_dir(directory)
    with (directory / "trajectory.csv").open("w", encoding="ascii") as out:
        result.trajectory.to_csv(out)
    return result
