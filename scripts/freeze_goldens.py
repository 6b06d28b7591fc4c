#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/ from the default pipeline.

Run after any intentional change to the simulation, logger formatting, or
report rendering, then review the diff before committing.
"""

from pathlib import Path

from asid import groundstation
from asid.config import default_run_config
from asid.firmware import AIR_LOG, GROUND_LOG
from asid.pipeline import run_simulation

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def main(out_dir: Path = GOLDEN_DIR) -> None:
    result = run_simulation(default_run_config())
    result.sd.to_dir(out_dir)
    groundstation.write_report(result.sd.read(AIR_LOG), result.sd.read(GROUND_LOG), out_dir)
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            print(f"{path.relative_to(out_dir)}: {path.stat().st_size} bytes")


if __name__ == "__main__":
    main()
