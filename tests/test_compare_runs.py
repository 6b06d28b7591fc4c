"""scripts/compare_runs.py: two checkouts' outputs on a fixed list of configs."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def test_the_checkout_against_itself_finds_no_difference(capsys):
    assert compare_runs.main([str(ROOT), str(ROOT)]) == 0
    count = len(compare_runs.documents())
    assert count == 15 + 3 * compare_runs.SOUNDINGS
    assert capsys.readouterr().out == f"{count} of {count} documents give the same outcome\n"


def test_a_changed_poll_period_is_found(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "asid", tmp_path / "src" / "asid",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pipeline = tmp_path / "src" / "asid" / "pipeline.py"
    text = pipeline.read_text(encoding="utf-8")
    assert "\nLOOP_POLL_MS = 100\n" in text
    pipeline.write_text(text.replace("\nLOOP_POLL_MS = 100\n", "\nLOOP_POLL_MS = 200\n"),
                        encoding="utf-8")
    assert compare_runs.main([str(ROOT), str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the air rows move, and with them the report; the ground rows and trajectory.csv do not
    default = next(line for line in lines if line.startswith("default: "))
    fields = default.removeprefix("default: ").removesuffix(" differ").split(", ")
    assert fields[0] == "air.csv"
    assert all(field.startswith("report/") for field in fields[1:])
    assert lines[-1].endswith(" documents give the same outcome")
    assert not lines[-1].startswith(f"{len(compare_runs.documents())} of")


def test_a_changed_report_byte_is_found(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "asid", tmp_path / "src" / "asid",
                    ignore=shutil.ignore_patterns("__pycache__"))
    groundstation = tmp_path / "src" / "asid" / "groundstation.py"
    text = groundstation.read_text(encoding="utf-8")
    assert text.count('"AERIAL WEATHER REPORT",') == 1
    groundstation.write_text(text.replace('"AERIAL WEATHER REPORT",', '"AERIAL WEATHER REPORt",'),
                             encoding="utf-8")
    assert compare_runs.main([str(ROOT), str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the simulation's files are the same; only the text report moves
    assert "default: report/report.txt differ" in lines
    assert lines[-1].endswith(" documents give the same outcome")
