#!/usr/bin/env python3
"""Peak RSS of one process running ``pipeline.simulate``, at three flight lengths.

    python3 scripts/peak_rss.py

Runs the default plan with a 100 Ah pack, so that even the longest flight
completes, at ``capture_dwell`` 3, 50 and 200 s (about 11k, 86k and 326k
samples).  Each run is a fresh interpreter that imports ``asid`` from this
checkout's ``src`` and writes to a temporary directory.  Prints each run's
sample count (the rows of its trajectory.csv) and its ``ru_maxrss`` in MiB
(Linux reports it in KiB).  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DWELLS = (3.0, 50.0, 200.0)  # s, mission.capture_dwell

RUN = """
import json, resource, sys
from asid import config, pipeline
cfg = config.from_dict({"airframe": {"battery": {"capacity_mah": 100000.0}},
                        "mission": {"capture_dwell": float(sys.argv[1])}})
pipeline.simulate(cfg, sys.argv[2])
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open(sys.argv[2] + "/trajectory.csv", encoding="ascii") as csv:
    samples = sum(1 for _ in csv) - 1
print(json.dumps({"samples": samples, "maxrss_kib": maxrss}))
"""


def measure(dwell: float) -> tuple[int, float]:
    """(samples, peak RSS in MiB) of ``simulate`` at ``dwell``, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as out:
        run = subprocess.run([sys.executable, "-c", RUN, repr(dwell), out], env=env,
                             capture_output=True, text=True, check=True)
    figures = json.loads(run.stdout)
    return figures["samples"], figures["maxrss_kib"] / 1024.0


def main() -> None:
    for dwell in DWELLS:
        samples, mib = measure(dwell)
        print(f"capture_dwell {dwell:g} s: {samples} samples, peak RSS {mib:.1f} MiB",
              flush=True)


if __name__ == "__main__":
    main()
