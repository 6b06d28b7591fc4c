#!/usr/bin/env python3
"""Alternated parent/change pairs of the benchmark's untraced runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload tall_column \\
        --pairs 10 --seed-base 101

Pair i runs ``perfbench/run.py --trace 0 --seed <seed-base + i>`` for the
change's BENCHMARK.json ``run_seconds`` in both checkouts, the parent first
in even pairs and the change first in odd ones, so a drift of the host's
speed does not favour one side.  Each pair's line shows every end-to-end
metric of the change's BENCHMARK.json as parent -> change.  For each such
metric the summary prints each side's median and quartiles, the change's
wins out of the pairs (ties count for neither side), and whether a gain may
be claimed: wins in at least nine tenths of the pairs, and medians further
apart, in the better direction, than the parent's quartiles.  It also
prints the no-regression rule: whether the change's median is worse than the
parent's by more than the metric's ``bound``, a fraction of the parent's
median.  Exits 1 if any run reports ``"correct": false`` or prints no
result; a pair with such a run prints the failure in place of its figures,
and for a run without a result it shows the exit code and the last line of
its stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    return {
        "parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median, c_q3),
        "wins": wins, "pairs": len(parent),
        "change_pct": 100.0 * (c_median - p_median) / p_median if p_median else 0.0,
        "gain_holds": wins >= 0.9 * len(parent)
        and sign * (p_median - c_median) > p_q3 - p_q1,
    }


def regressed(parent_median: float, change_median: float, better: str, bound: float) -> bool:
    """True when the change's median is worse than the parent's by more than
    ``bound`` times the parent's median; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    return sign * (change_median - parent_median) > bound * abs(parent_median)


class NoResult(Exception):
    """A benchmark run printed no result line."""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run's result line; raises NoResult if it printed none."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    errors = done.stderr.strip().splitlines()
    raise NoResult(f"exit code {done.returncode}, last stderr line: "
                   f"{errors[-1] if errors else '(none)'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=101)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [metric["name"] for metric in spec["end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    correct = True
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        failures = []
        for side in order:
            try:
                result = run_once(sides[side], args.workload, seed, seconds)
                failure = None if result.get("correct") else f"run not correct: {result}"
            except NoResult as exc:
                failure = f"run printed no result: {exc}"
            if failure:
                failures.append(f"{side} {failure}")
            else:
                runs[side].append({name: m["value"] for name, m in result["metrics"].items()})
        head = f"pair {pair} (seed {seed}, {order[0]} first):"
        if failures:
            correct = False
            print(head, "; ".join(failures), flush=True)
        else:
            parent, change = runs["parent"][-1], runs["change"][-1]
            print(head, "; ".join(f"{name} {parent.get(name)} -> {change.get(name)}"
                                  for name in names), flush=True)
    if not correct:
        return 1

    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s, "
          f"seeds {args.seed_base}-{args.seed_base + args.pairs - 1}; median [q1, q3]")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summarize([run[name] for run in runs["parent"]],
                      [run[name] for run in runs["change"]], metric["better"])
        (pq1, pm, pq3), (cq1, cm, cq3) = s["parent"], s["change"]
        print(f"  {name:20s} parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}]  "
              f"change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]  {s['change_pct']:+.1f} %  "
              f"change wins {s['wins']}/{s['pairs']}  "
              f"gain holds: {'yes' if s['gain_holds'] else 'no'}  "
              f"worse beyond its {metric['bound']:g} bound: "
              f"{'yes' if regressed(pm, cm, metric['better'], metric['bound']) else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
