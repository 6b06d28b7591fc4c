"""scripts/peak_rss.py: the peak RSS of simulate, measured in a fresh interpreter."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "peak_rss.py"
spec = importlib.util.spec_from_file_location("peak_rss", SCRIPT)
peak_rss = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peak_rss)


def test_the_3_s_dwell_flies_11232_samples_in_a_process_of_its_own():
    samples, mib = peak_rss.measure(3.0)
    assert samples == 11_232
    # an interpreter with asid loaded takes some MiB; a sample list would not fit in 1 GiB
    assert 1.0 < mib < 1024.0
