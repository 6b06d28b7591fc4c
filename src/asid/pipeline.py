"""End-to-end simulation: mission generation, flight, and logger emulation.

The logger writes its ground rows in one pass while the drone sits at
altitude 0.  Their readings come from ``flightsim.readings`` at altitude 0,
whose first reading is the power-on pressure, and no reading is drawn past
the last row, so the air phase's draws follow on.  The flight starts on the
logger clock when that pass ends, so the air phase samples the mission
trajectory: a poll t s into the flight reads the first sample that is
round(t / DT) integrator steps from the start.  The air loop is polled
every 100 ms of simulated time, or after the time each poll blocks (its
delays and buzzes), whichever is longer.
"""

from __future__ import annotations

import contextlib
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

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


def run_simulation(cfg: RunConfig, csv: BinaryIO | None = None) -> SimulationResult:
    """Run the full pipeline in memory and return the SD image + the flight's summary.

    The logger polls the flight as it is flown: each block ``run_mission``
    hands over goes to the air loop, and to ``Trajectory.to_csv`` when a
    binary ``csv`` stream is given (it gets trajectory.csv's bytes, with no
    text layer), so no sample outlives its block.  Errors come in
    the order of a run that flies first and logs after: a flight error wins,
    then the logger's first error, then one writing ``csv``.
    """
    env = cfg.environment
    rng = random.Random(env.rng_seed)

    plan = mission.generate_sounding_profile(cfg.mission)
    log.info("mission: %d commands", len(plan.commands))

    sd = SdCardImage()
    logger_error: Exception | None = None
    csv_error: OSError | None = None
    try:
        ground = flightsim.readings(env, 0.0, rng)
        state = firmware.setup(cfg.firmware, next(ground)[2])  # power-on: the first pressure
        # ms, logger clock; the flight starts when the ground rows are written
        start = clock = firmware.log_ground(state, ground, sd)
    except Exception as exc:  # held: an error of the flight, still to come, wins
        logger_error = exc

    def consume(block: flightsim.Block) -> None:
        nonlocal clock, logger_error, csv_error
        if logger_error is not None:
            return
        if csv is not None and csv_error is None:
            try:
                flightsim.Trajectory.to_csv(csv, block)
            except OSError as exc:
                csv_error = exc
        try:
            # an earlier block held the counts before this block's first
            while not state.serving:
                index = 2 * (round((clock - start) / 1000.0 / flightsim.DT) - block.count)
                if index >= len(block.samples):  # not flown yet
                    break
                reading = flightsim.true_sample(env, block.samples[index], rng)
                clock += max(firmware.tick(state, reading, clock, sd), LOOP_POLL_MS)
        except Exception as exc:  # held, as above
            logger_error = exc

    trajectory = flightsim.run_mission(plan, cfg.airframe, env, consume)
    log.info("flight: %.1f s, peak %.2f m, %d camera events",
             trajectory.duration, trajectory.max_altitude, len(trajectory.camera_events))
    if logger_error is not None:
        raise logger_error
    if csv_error is not None:
        raise csv_error

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
    """Run the pipeline and write the SD image plus trajectory.csv to out_dir.

    trajectory.csv is written block by block as the flight goes, as bytes
    to a file opened in binary mode (so no newline is translated), under a
    temporary name renamed on success; a failed run removes it, and the
    directories it made for it.  An error writing or closing it is raised
    only when the run itself raised nothing.
    """
    directory = Path(out_dir)
    made = [path for path in (directory, *directory.parents) if not path.exists()]
    partial = directory / "trajectory.csv.partial"
    try:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            csv = partial.open("wb")
        except OSError:
            run_simulation(cfg)  # an error of the run wins, as when the card was written after it
            raise
        try:
            csv.write(flightsim.CSV_HEADER)
            result = run_simulation(cfg, csv)
        except BaseException:
            with contextlib.suppress(OSError):  # a csv write error, which the run's wins over
                csv.close()
            raise
        csv.close()  # flushes: a full disk may raise here as a write would
        result.sd.to_dir(directory)
        partial.replace(directory / "trajectory.csv")
    except BaseException:
        with contextlib.suppress(OSError):
            partial.unlink(missing_ok=True)
        for path in made:  # deepest first; a directory the card went to is kept
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    return result
