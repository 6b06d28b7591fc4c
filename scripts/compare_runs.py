#!/usr/bin/env python3
"""Whether two checkouts write the same outputs for a fixed list of run configs.

    python3 scripts/compare_runs.py PARENT_DIR CHANGE_DIR

Runs ``pipeline.simulate`` on each document of ``documents()``: configs
that reach the logger's and the flight's edges (a 300 m column, 2000 noisy
ground rows, a server that starts before the air phase and one that never
starts, a 0.1 m interval step, wind, a pack that empties, a -0.0
temperature, a temperature and humidity that are ties on every row, so
that every row takes the exact printer, a propeller that cannot hold a
hover, a 1500 m column whose descent is one 1490 m leg, 24,687 ground rows,
the last stamped past the logger clock's limit, and pressure noise that
drives the fourth ground row below 0 Pa) and the first
6 soundings of each benchmark workload (``perfbench/workloads.schedule``,
seed 1, read from this script's own checkout).  Each checkout runs in a fresh
interpreter of its own that imports ``asid`` from that checkout's
``src``, and writes to a temporary directory.  A run's outcome is the
sha256 of each file left in its output directory (and whether that
directory exists), and either its summary (row counts, server start,
duration, peak, camera events, landing offset) or its error's type and
message.  After a run that simulates, ``groundstation.write_report`` reads
the card's logs (``air.csv``, or no bytes without one, and ``ground.csv``)
into a report directory of its own; the outcome adds the sha256 of each
report file written, as ``report/report.txt`` and the like, and the
report's error's type and message if it raises one.  Prints each document whose outcome differs, with the fields
that differ, and exits 1 if any does.  Standard library only.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOUNDINGS = 6  # per benchmark workload
SEED = 1

# Takes the documents as a JSON object in argv[1] and prints one outcome for each.
RUN = """
import hashlib, json, sys, tempfile
from pathlib import Path
from asid import config, groundstation, pipeline
from asid.firmware import AIR_LOG, GROUND_LOG
outcomes = {}
for name, document in json.loads(sys.argv[1]).items():
    with tempfile.TemporaryDirectory() as root:
        out, report = Path(root) / "out", Path(root) / "report"
        try:
            result = pipeline.simulate(config.from_dict(document), out)
        except Exception as exc:
            outcome = {"error": [type(exc).__name__, str(exc)]}
        else:
            trajectory = result.trajectory
            outcome = {"summary": [
                result.ground_rows, result.air_rows, result.server_started,
                trajectory.duration, trajectory.max_altitude,
                len(trajectory.camera_events), trajectory.landing_offset]}
            try:
                groundstation.write_report(result.sd.read(AIR_LOG) or b"",
                                           result.sd.read(GROUND_LOG), report)
            except Exception as exc:
                outcome["report error"] = [type(exc).__name__, str(exc)]
            for path in sorted(report.rglob("*")):
                if path.is_file():
                    outcome[f"report/{path.relative_to(report).as_posix()}"] = \
                        hashlib.sha256(path.read_bytes()).hexdigest()
        outcome["out directory"] = out.exists()
        for path in sorted(out.iterdir()) if out.exists() else ():
            outcome[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    outcomes[name] = outcome
print(json.dumps(outcomes))
"""


def documents() -> dict[str, dict]:
    """The run-configuration documents compared, by name."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    noise = {"rng_seed": 5, "sensor_noise": {"pressure": 300.0}}
    chosen = {
        "default": {},
        "column_300m": {"mission": {"target_alt": 300, "headings": [90]},
                        "firmware": {"server_threshold": 290}},
        "ground_rows_2000": {"firmware": {"ground_samples": 2000},
                             "environment": {"rng_seed": 7, "sensor_noise": {
                                 "temperature": 0.1, "humidity": 0.5, "pressure": 2.0}}},
        "threshold_3_noise": {"firmware": {"server_threshold": 3.0}, "environment": noise},
        "threshold_1000_noise": {"firmware": {"server_threshold": 1000.0},
                                 "environment": noise},
        "interval_step_0.1": {"firmware": {"interval_step": 0.1}},
        "wind_30": {"environment": {"wind": 30.0}},
        "pack_150mah": {"airframe": {"battery": {"capacity_mah": 150.0}}},
        "negative_zero": {"environment": {"surface_temperature": -0.0,
                                          "temperature_lapse": 0.0}},
        "print_ties": {"environment": {"surface_temperature": 2.25, "temperature_lapse": 0.0,
                                       "surface_humidity": 50.35, "humidity_lapse": 0.0}},
        "prop_cannot_hover": {"airframe": {"prop": {"diameter": 2.0}}},
        "leg_1500m": {"airframe": {"battery": {"capacity_mah": 1000000}},
                      "mission": {"target_alt": 1500, "step": 100, "capture_dwell": 1}},
        "ground_clock_limit": {"firmware": {"ground_samples": 24_687}},
        "ground_noise_pressure": {"environment": {"rng_seed": 31,
                                                  "sensor_noise": {"pressure": 50000.0}}},
    }
    for workload in workloads.WORKLOADS:
        for index, document in enumerate(workloads.schedule(workload, SEED, SOUNDINGS)):
            chosen[f"{workload}_{index}"] = document
    return chosen


def outcomes(checkouts: list[Path], chosen: dict[str, dict]) -> list[dict[str, dict]]:
    """Each checkout's outcome of each document, from a fresh interpreter per
    checkout with its ``src`` first on the path; the checkouts run side by side."""
    processes = []
    for checkout in checkouts:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(Path(checkout).resolve() / "src"), env.get("PYTHONPATH"))))
        processes.append(subprocess.Popen([sys.executable, "-c", RUN, json.dumps(chosen)],
                                          env=env, stdout=subprocess.PIPE, text=True))
    stdouts = [process.communicate()[0] for process in processes]
    for checkout, process in zip(checkouts, processes):
        if process.returncode != 0:
            raise RuntimeError(f"{checkout}: the runs exited {process.returncode}")
    return [json.loads(stdout) for stdout in stdouts]


def differences(parent: dict[str, dict], change: dict[str, dict]) -> dict[str, list[str]]:
    """The fields of each outcome that differ, by document name."""
    found = {}
    for name, before in parent.items():
        after = change[name]
        fields = sorted(key for key in before.keys() | after.keys()
                        if before.get(key) != after.get(key))
        if fields:
            found[name] = fields
    return found


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_runs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    chosen = documents()
    parent, change = outcomes([Path(args[0]), Path(args[1])], chosen)
    found = differences(parent, change)
    for name, fields in found.items():
        print(f"{name}: {', '.join(fields)} differ")
        for field in fields:
            print(f"  {field}: parent {parent[name].get(field)}, "
                  f"change {change[name].get(field)}")
    print(f"{len(chosen) - len(found)} of {len(chosen)} documents give the same outcome")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
