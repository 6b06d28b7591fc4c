#!/usr/bin/env python3
"""Round-trip sounding benchmark.

    python3 perfbench/run.py --workload paper_sounding --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  One sounding is the README's CLI round
trip (simulate -> serve -> sync -> report) run in process; one client runs
soundings back to back (a closed loop) against a file server on a second
thread.  Each sounding's time is also divided by a reference kernel timed
just before and after it (calibration.py), which steadies the end-to-end
figures against a host whose speed drifts.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
results file with the run's details goes to ``.perfbench/results/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3       # set-up runs this often; setup_s takes the median
DOCS_PER_SECOND = 100   # inputs drawn per measured second; the loop ends early if it runs out
COUNT_WINDOW = 5        # per-layer counts: median over the first 5 traced soundings
DIGEST_WINDOW = 5       # output digest over the first 5 soundings
TAIL = 85               # tail percentile; 10+ samples lie beyond it on every workload

# per-layer count metric -> (probe, figure); figure "calls" or a measured extra
COUNTS = {
    "mission.commands": ("mission.generate", "commands"),
    "mission.validate_calls": ("mission.validate", "calls"),
    "airframe.service_ceiling_calls": ("airframe.service_ceiling", "calls"),
    "atmosphere.density_ratio_calls": ("atmosphere.density_ratio", "calls"),
    "flightsim.steps": ("flightsim.step", "calls"),
    "flightsim.true_sample_calls": ("flightsim.true_sample", "calls"),
    "firmware.tick_calls": ("firmware.tick", "calls"),
    "firmware.format_row_calls": ("firmware.format_row", "calls"),
    "firmware.log_bytes": ("firmware.sd_append", "log_bytes"),
    "synclink.connections": ("synclink.handle_connection", "calls"),
    "synclink.wire_writes": ("synclink.wire_writes", "wire_writes"),
    "synclink.bytes": ("synclink.wire_writes", "bytes"),
    "wxindices.rows_parsed": ("wxindices.parse_log", "rows"),
    "groundstation.svg_bytes": ("groundstation.render_plots", "svg_bytes"),
}
COUNT_UNITS = {"firmware.log_bytes": "bytes", "synclink.bytes": "bytes",
               "groundstation.svg_bytes": "bytes"}

# per-layer time metric -> (probe, "total" or "self"), milliseconds per sounding
TIMES = {
    "config.from_dict_ms": ("config.from_dict", "total"),
    "mission.generate_ms": ("mission.generate", "total"),
    "airframe.service_ceiling_ms": ("airframe.service_ceiling", "total"),
    "atmosphere.density_ratio_ms": ("atmosphere.density_ratio", "total"),
    "flightsim.run_mission_ms": ("flightsim.run_mission", "total"),
    "flightsim.to_csv_ms": ("flightsim.to_csv", "total"),
    "pipeline.run_simulation_ms": ("pipeline.run_simulation", "total"),
    "pipeline.self_ms": ("pipeline.run_simulation", "self"),
    "firmware.tick_ms": ("firmware.tick", "total"),
    "firmware.make_sample_ms": ("firmware.make_sample", "total"),
    "firmware.sd_append_ms": ("firmware.sd_append", "total"),
    "synclink.sync_ms": ("synclink.sync", "total"),
    "synclink.fetch_ms": ("synclink.fetch", "total"),
    "synclink.server_handle_ms": ("synclink.handle_connection", "total"),
    "synclink.client_wait_ms": ("synclink.fetch", "self"),
    "wxindices.parse_log_ms": ("wxindices.parse_log", "total"),
    "wxindices.build_profile_ms": ("wxindices.build_profile", "total"),
    "wxindices.build_report_ms": ("wxindices.build_report", "total"),
    "groundstation.render_plots_ms": ("groundstation.render_plots", "total"),
    "groundstation.write_bundle_ms": ("groundstation.write_bundle", "total"),
}


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _counts(stats: dict) -> dict[str, int]:
    counts = {}
    for metric, (probe, figure) in COUNTS.items():
        stat = stats.get(probe)
        if stat is None:
            counts[metric] = 0
        else:
            counts[metric] = stat.calls if figure == "calls" else stat.extra.get(figure, 0)
    return counts


def _times(stats: dict) -> dict[str, float]:
    times = {}
    for metric, (probe, figure) in TIMES.items():
        stat = stats.get(probe)
        ns = 0 if stat is None else (stat.total_ns if figure == "total" else stat.self_ns)
        times[metric] = ns / 1e6
    steps = _counts(stats)["flightsim.steps"]
    flight_ns = times["flightsim.run_mission_ms"] * 1e6
    times["flightsim.host_us_per_step"] = flight_ns / steps / 1e3 if steps else 0.0
    root = stats["sounding"]
    layers_self = sum(stat.self_ns for name, stat in stats.items() if name != "sounding")
    times["trace.accounted_pct"] = 100.0 * layers_self / root.total_ns
    return times


def _self_times(stats: dict) -> dict[str, float]:
    return {name: stat.self_ns / 1e6 for name, stat in sorted(stats.items())}


def _median_of(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Measured:
    """What the measured phase saw."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    untraced_ms: list[float] = field(default_factory=list)
    untraced_ref: list[float] = field(default_factory=list)  # untraced_ms / kernel ms
    iterations_ref: float = 0.0  # every sounding with its checks, in ref units
    kernel_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    traced_stats: list[dict] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _measure(docs, server, tracer, seconds: float, work_root: Path) -> Measured:
    """Closed loop: one sounding after another until the deadline.

    A traced run traces the even-numbered soundings and goes on until
    COUNT_WINDOW of them are done.  A failed sounding is counted, never retried.
    A kernel reading before and after each sounding (with its checks) gives
    the host's speed while it ran: the mean of the two.
    """
    import roundtrip
    m = Measured()
    started = time.perf_counter()
    deadline = started + seconds
    m.kernel_ms.append(calibration.reading_ms())
    while m.attempted < len(docs) and (
            time.perf_counter() < deadline
            or (tracer is not None and len(m.traced_stats) < COUNT_WINDOW)):
        index = m.attempted
        m.attempted += 1
        traced = tracer is not None and index % 2 == 0
        work = work_root / f"s{index}"
        sounding, failure = None, None
        if traced:
            tracer.install()
            tracer.begin(index)
        begun = time.perf_counter_ns()
        try:
            sounding = roundtrip.run_sounding(docs[index], work, server)
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed_ms = (time.perf_counter_ns() - begun) / 1e6
            if traced:
                stats = tracer.end()
                tracer.uninstall()
        if failure is None:
            failure = "; ".join(roundtrip.check(sounding.card, work)) or None
        if failure is not None:
            m.failed += 1
            m.errors.append(f"sounding {index}: {failure}")
        elif traced:
            m.traced_ms.append(elapsed_ms)
            m.traced_stats.append(stats)
        else:
            m.untraced_ms.append(elapsed_ms)
        if index < DIGEST_WINDOW:
            m.digests.append("failed" if failure is not None
                             else roundtrip.digest(roundtrip.outputs(work)))
        roundtrip.clear(work)
        iteration_ms = (time.perf_counter_ns() - begun) / 1e6
        m.kernel_ms.append(calibration.reading_ms())
        kernel_ms = (m.kernel_ms[-2] + m.kernel_ms[-1]) / 2
        m.iterations_ref += iteration_ms / kernel_ms
        if failure is None and not traced:
            m.untraced_ref.append(elapsed_ms / kernel_ms)
    m.wall_s = time.perf_counter() - started
    return m


def _rerun_problems(docs, server, tracer, work_root: Path, m: Measured) -> list[str]:
    """Sounding 0 again must give the same bytes (and per-layer counts); then
    the checker must reject a corrupted card and a truncated sync."""
    import roundtrip
    if tracer is not None:
        kept_spans = len(tracer.spans)
        tracer.install()
        tracer.begin(0)
    try:
        rerun = roundtrip.run_sounding(docs[0], work_root / "rerun", server)
    except Exception as exc:
        return [f"sounding 0 failed when run again: {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            rerun_stats = tracer.end()
            tracer.uninstall()
            del tracer.spans[kept_spans:]
    problems = []
    if m.digests and roundtrip.digest(roundtrip.outputs(rerun.work)) != m.digests[0]:
        problems.append("sounding 0 run twice gave different output bytes")
    if m.traced_stats and _counts(rerun_stats) != _counts(m.traced_stats[0]):
        problems.append("sounding 0 run twice gave different per-layer counts")
    return problems + roundtrip.checker_self_test(rerun)


def _wall(m: Measured) -> dict:
    """The same figures in wall time, for the results file."""
    return {
        "sounding_ms_p50": statistics.median(m.untraced_ms),
        f"sounding_ms_p{TAIL}": _percentile(m.untraced_ms, TAIL),
        "soundings_per_s": (m.attempted - m.failed) / m.wall_s,
        "kernel_ms_p50": statistics.median(m.kernel_ms),
    }


def _end_to_end(m: Measured, setup_s: float) -> dict:
    samples = m.untraced_ref
    return {
        "sounding_ref_p50": _metric(statistics.median(samples), "ref"),
        f"sounding_ref_p{TAIL}": _metric(_percentile(samples, TAIL), "ref"),
        "soundings_per_kref": _metric(1000.0 * (m.attempted - m.failed) / m.iterations_ref,
                                      "1/kref"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": _metric(setup_s, "s"),
    }


def _per_layer(m: Measured) -> tuple[dict, dict]:
    counts = [_counts(stats) for stats in m.traced_stats[:COUNT_WINDOW]]
    metrics = {name: _metric(int(value), COUNT_UNITS.get(name, "count"))
               for name, value in _median_of(counts).items()}
    for name, value in sorted(_median_of([_times(stats) for stats in m.traced_stats]).items()):
        unit = "us" if name.endswith("_us_per_step") else "%" if name.endswith("_pct") else "ms"
        metrics[name] = _metric(value, unit)
    untraced_p50 = statistics.median(m.untraced_ms)
    metrics["sounding_ms_p50"] = _metric(untraced_p50, "ms")
    overhead = statistics.median(m.traced_ms) / untraced_p50 - 1.0
    metrics["trace_overhead_pct"] = _metric(100.0 * overhead, "%")
    details = {
        "counts_per_sounding": counts,
        "self_ms_median": _median_of([_self_times(stats) for stats in m.traced_stats]),
        "traced_soundings": len(m.traced_ms),
        "untraced_soundings": len(m.untraced_ms),
    }
    return metrics, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src, golden = ROOT / "src", ROOT / "tests" / "golden"
    if not (src / "asid" / "__init__.py").is_file() or not golden.is_dir():
        print(f"perfbench: {ROOT} is not an asid checkout (needs src/asid and tests/golden)",
              file=sys.stderr)
        return 2
    # roundtrip and tracer import asid, so they (here and in the helpers
    # above) are imported only once the checkout's src/ is on the path
    sys.path.insert(0, str(src))
    import asid
    import roundtrip
    import tracer as layertrace
    if Path(asid.__file__).resolve().parent != (src / "asid").resolve():
        print(f"perfbench: asid imported from {asid.__file__}, not from {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED

    work_root = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = layertrace.Tracer() if args.trace else None
    problems: list[str] = []
    started = time.perf_counter()
    server = roundtrip.FileServer()
    server_start_s = time.perf_counter() - started
    try:
        # Set-up: draw the inputs and warm every layer with the default-config
        # round trip, which doubles as the golden gate.
        repeat_s = []
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            docs = workloads.schedule(args.workload, args.seed,
                                      max(1, int(DOCS_PER_SECOND * args.seconds)))
            work = work_root / f"warmup{repeat}"
            try:
                warm = roundtrip.run_sounding({}, work, server)
            except Exception as exc:
                problems.append(f"default-config round trip: {type(exc).__name__}: {exc}")
                warm = None
            repeat_s.append(time.perf_counter() - started)
            if repeat == 0 and warm is not None:
                problems += roundtrip.check(warm.card, warm.work)
                problems += roundtrip.golden_problems(golden, warm.work)
            roundtrip.clear(work)
        setup_s = import_s + server_start_s + statistics.median(repeat_s)

        measured = _measure(docs, server, tracer, args.seconds, work_root)
        problems += _rerun_problems(docs, server, tracer, work_root, measured)
    finally:
        server.close()
        roundtrip.clear(work_root)

    metrics, details = {}, {}
    if tracer is None:
        if len(measured.untraced_ms) < 2:
            problems.append(f"{len(measured.untraced_ms)} soundings completed; "
                            f"percentiles need 2")
        else:
            metrics = _end_to_end(measured, setup_s)
            details = {"wall": _wall(measured)}
    elif len(measured.traced_stats) < COUNT_WINDOW or not measured.untraced_ms:
        problems.append(f"{len(measured.traced_stats)} traced soundings completed; "
                        f"counts need {COUNT_WINDOW}")
    else:
        metrics, details = _per_layer(measured)

    correct = not problems and measured.failed == 0
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "machine": platform.machine(), "correct": correct, "problems": problems,
        "attempted": measured.attempted, "failed": measured.failed,
        "error_rate": measured.failed / max(1, measured.attempted),
        "errors": measured.errors[:20], "measured_s": measured.wall_s,
        "setup": {"import_s": import_s, "server_start_s": server_start_s, "repeat_s": repeat_s},
        "tail_percentile": TAIL, "sounding_ms": measured.untraced_ms,
        "sounding_ref": measured.untraced_ref, "kernel_ms": measured.kernel_ms,
        "digest_soundings": len(measured.digests), "digests": measured.digests,
        "metrics": metrics, **details,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    if tracer is not None:
        with open(results_dir / f"{stem}.spans.jsonl", "w") as spans:
            for span in tracer.spans:
                spans.write(json.dumps(span) + "\n")
    for problem in problems + measured.errors[:5]:
        print(f"problem: {problem}")
    print(f"results: {results_dir / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": measured.attempted,
                      "failed": measured.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
