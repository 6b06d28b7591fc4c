"""scripts/bench_pairs.py: the summary of paired benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_quartiles_of_an_odd_and_a_single_sample():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_lower_is_better_gain_that_holds():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 104.0, 96.0]
    change = [88.0, 90.0, 87.0, 89.0, 91.0, 86.0, 88.0, 92.0, 89.0, 87.0]
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["parent"] == (98.25, 100.0, 101.75)
    assert s["change"] == (87.25, 88.5, 89.75)
    assert s["change_pct"] == pytest.approx(-11.5)
    assert s["gain_holds"]


def test_ties_count_for_neither_side_and_nine_tenths_are_needed():
    parent = [10.0] * 10
    change = [9.0] * 8 + [10.0, 11.0]  # 8 wins, 1 tie, 1 loss
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["wins"] == 8
    assert not s["gain_holds"]


def test_a_gain_inside_the_parents_spread_does_not_hold():
    parent = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
    change = [p - 1.0 for p in parent]  # wins every pair by 1, spread is ~10
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["wins"] == 10
    assert not s["gain_holds"]


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.summarize([10.0, 10.0, 10.0], [12.0, 12.0, 9.0], "higher")
    assert s["wins"] == 2
    assert s["change_pct"] == pytest.approx(20.0)


def test_the_no_regression_rule_is_relative_to_the_parents_median():
    assert bench_pairs.regressed(100.0, 130.0, "lower", 0.25)
    assert not bench_pairs.regressed(100.0, 125.0, "lower", 0.25)
    assert not bench_pairs.regressed(100.0, 70.0, "lower", 0.25)
    assert bench_pairs.regressed(100.0, 70.0, "higher", 0.25)
    assert not bench_pairs.regressed(100.0, 130.0, "higher", 0.25)


def _checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "end_to_end": [{"name": "t", "better": "lower", "bound": 0.25}]}))
    return parent, change


def test_runs_alternate_and_last_the_benchmarks_run_seconds(tmp_path, monkeypatch, capsys):
    parent, change = _checkouts(tmp_path)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed, seconds))
        return {"correct": True, "metrics": {"t": {"value": 2.0 if checkout == parent else 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2",
                             "--seed-base", "5"]) == 0
    assert calls == [("parent", 5, 7), ("change", 5, 7), ("change", 6, 7), ("parent", 6, 7)]
    assert "change wins 2/2" in capsys.readouterr().out


def test_each_pair_line_shows_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    parent, change = _checkouts(tmp_path)
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7, "end_to_end": [
        {"name": "t", "better": "lower", "bound": 0.25},
        {"name": "rss", "better": "lower", "bound": 0.1}]}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, seconds: (
        {"correct": True, "metrics": {"t": {"value": seed + (0.5 if checkout == parent else 0.0)},
                                      "rss": {"value": 45.0 if checkout == parent else 42.5}}}))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2",
                             "--seed-base", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["pair 0 (seed 5, parent first): t 5.5 -> 5.0; rss 45.0 -> 42.5",
                         "pair 1 (seed 6, change first): t 6.5 -> 6.0; rss 45.0 -> 42.5"]


def test_an_incorrect_run_fails_the_comparison(tmp_path, monkeypatch, capsys):
    parent, change = _checkouts(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *rest: (
        {"correct": checkout == parent, "metrics": {"t": {"value": 1.0}}}))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1
    assert "run not correct" in capsys.readouterr().out


def test_a_thirty_percent_worsening_breaks_a_quarter_bound(tmp_path, monkeypatch, capsys):
    parent, change = _checkouts(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *rest: (
        {"correct": True, "metrics": {"t": {"value": 1.0 if checkout == parent else 1.3}}}))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "+30.0 %" in out
    assert "worse beyond its 0.25 bound: yes" in out


def test_a_run_without_a_result_shows_its_exit_code_and_stderr(tmp_path, capsys):
    parent, change = _checkouts(tmp_path)
    for checkout in (parent, change):
        (checkout / "perfbench").mkdir()
        (checkout / "perfbench" / "run.py").write_text(
            "import sys\nprint('starting')\nsys.stderr.write('Traceback\\nValueError: bad seed\\n')\n"
            "sys.exit(3)\n")
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "run printed no result: exit code 3, last stderr line: ValueError: bad seed" in out
    assert "run not correct" not in out


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_fewer_than_one_pair_is_a_usage_error(tmp_path, capsys, pairs):
    parent, change = _checkouts(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", pairs])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def test_a_pair_with_a_failed_side_prints_the_failure_not_its_figures(tmp_path, monkeypatch,
                                                                       capsys):
    parent, change = _checkouts(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *rest: (
        {"correct": checkout == parent, "metrics": {"t": {"value": 1.0}}}))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("pair 0 (seed 101, parent first): change run not correct: ")
    assert "->" not in lines[0]
