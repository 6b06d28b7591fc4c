#!/usr/bin/env python3
"""Check that two benchmark results files simulated the same thing.

    python3 perfbench/compare.py .perfbench/results/A.json B.json

Both files must come from the same workload and seed.  The output digests
of the first soundings must match, and for traced runs (``--trace 1``) so
must every per-layer count of the first traced soundings.  Timings are not
compared.  Exits 0 when everything matches, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def differences(a: dict, b: dict) -> list[str]:
    found = []
    for key in ("workload", "seed"):
        if a[key] != b[key]:
            found.append(f"{key}: {a[key]!r} vs {b[key]!r}")
    if a["digests"] != b["digests"]:
        found.append(f"output digests differ: {a['digests']} vs {b['digests']}")
    counts_a, counts_b = a.get("counts_per_sounding"), b.get("counts_per_sounding")
    if counts_a is not None and counts_b is not None:
        for index, (row_a, row_b) in enumerate(zip(counts_a, counts_b)):
            for name in sorted(set(row_a) | set(row_b)):
                if row_a.get(name) != row_b.get(name):
                    found.append(f"traced sounding {index}: {name} "
                                 f"{row_a.get(name)} vs {row_b.get(name)}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    found = differences(a, b)
    for line in found:
        print(line)
    print("same digests and counts" if not found else f"{len(found)} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
