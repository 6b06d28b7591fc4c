"""Smoke test: every walkthrough in demos/ runs to completion.

Each demo runs in its own interpreter with ``src`` on the path, as the
README shows.  Their files go to the git-ignored ``demos/output/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "airframe_sizing.py", "log_sync.py", "sounding_flight.py", "weather_report.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
