"""Sounding inputs for each workload, drawn from the workload seed.

Each workload is an endless, deterministic sequence of run-configuration
documents (the JSON form ``asid simulate --config`` reads).  Sounding ``i``
of a seed is drawn from its own ``random.Random``, so the inputs do not
depend on how many soundings a run gets through.  The program only ever
sees the generated documents.

The one input that sets a sounding's amount of work (column height, or
ground samples) is not drawn independently: it follows a golden-ratio
sequence from a seed-drawn offset, so any run of consecutive soundings
covers its range evenly.  Independent draws would let one run get more
long soundings than another, and the run-to-run spread of the medians would
measure the draw rather than the program.
"""

from __future__ import annotations

import random

WORKLOADS = ("paper_sounding", "tall_column", "surface_watch")


def _environment(rng: random.Random) -> dict:
    """A plausible pre-flight column; every draw changes the logged bytes."""
    return {
        "surface_temperature": round(rng.uniform(2.0, 32.0), 3),
        "surface_pressure": round(rng.uniform(990.0, 1030.0), 3),
        "surface_humidity": round(rng.uniform(30.0, 90.0), 3),
        "temperature_lapse": round(rng.uniform(0.004, 0.009), 6),
        "humidity_lapse": round(rng.uniform(0.01, 0.08), 6),
        "wind": round(rng.uniform(0.0, 30.0), 2),
        "rng_seed": rng.randrange(2**31),
        "sensor_noise": {
            "temperature": round(rng.uniform(0.0, 0.2), 4),
            "humidity": round(rng.uniform(0.0, 1.0), 4),
            "pressure": round(rng.uniform(0.0, 3.0), 4),
        },
    }


def _airframe(rng: random.Random) -> dict:
    # All-up mass varies with the payload, so no two flights share a trajectory
    # even where the mission itself is fixed (surface_watch).
    return {"total_mass": round(rng.uniform(1950.0, 2100.0), 2)}


def _paper_sounding(rng: random.Random, size: float) -> dict:
    return {
        "airframe": _airframe(rng),
        "environment": _environment(rng),
        "mission": {"target_alt": round(40.0 + 20.0 * size, 2)},
    }


def _tall_column(rng: random.Random, size: float) -> dict:
    target = round(250.0 + 100.0 * size, 2)
    return {
        "airframe": _airframe(rng),
        "environment": _environment(rng),
        "mission": {"target_alt": target, "headings": [float(rng.randrange(0, 360, 15))]},
        # The logger keeps its shipped 5 m interval step; only the server
        # threshold follows the column so the air log spans it.
        "firmware": {"server_threshold": round(target - 10.0, 2)},
    }


def _surface_watch(rng: random.Random, size: float) -> dict:
    return {
        "airframe": _airframe(rng),
        "environment": _environment(rng),
        "firmware": {"ground_samples": 4000 + int(2001 * size)},
    }


_GOLDEN = 0.6180339887498949  # fractional part of the golden ratio

_DRAW = {
    "paper_sounding": _paper_sounding,
    "tall_column": _tall_column,
    "surface_watch": _surface_watch,
}


def sounding_config(workload: str, seed: int, index: int) -> dict:
    """The configuration document of sounding ``index`` for a workload seed."""
    offset = random.Random(f"{workload}/{seed}").random()
    size = (offset + index * _GOLDEN) % 1.0
    return _DRAW[workload](random.Random(f"{workload}/{seed}/{index}"), size)


def schedule(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` soundings of a workload seed, in run order."""
    return [sounding_config(workload, seed, index) for index in range(count)]
