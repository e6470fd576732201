#!/usr/bin/env python3
"""Diff the last two rows of the committed perf trajectory.

    python3 scripts/trajectory_diff.py [--trajectory bench/trajectory.csv]
                                       [--benchmark BENCHMARK.json]

`bench/trajectory.csv` holds one row per measured change: perfbench medians
of every end-to-end metric of every workload, in columns named
`<workload>.<metric>`. The other columns say what was measured: `change`
(a short name), `host`, `seed` and `runs` (untraced 25 s runs per workload,
in BENCHMARK.json's workload order). Append a row with each perf change,
measured in alternating runs against the tree before it.

This script compares the last row with the row before it, metric by metric,
and prints the relative change. The workloads, the metrics, their "better"
direction and their regression bounds are read from BENCHMARK.json (never
written). A metric that moved the wrong way by
more than its bound is flagged, and the exit status is then 1; otherwise 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def diff(rows: list[dict[str, str]], bench: dict) -> int:
    if len(rows) < 2:
        print(f"trajectory has {len(rows)} row(s); nothing to diff")
        return 0
    prev, last = rows[-2], rows[-1]
    print(f"before: {prev['change']}")
    print(f"after:  {last['change']}")
    print(f"{'metric':<28} {'before':>12} {'after':>12} {'change':>8}  bound")
    flagged = []
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            column = f"{workload}.{metric['name']}"
            if column not in prev or column not in last:
                flagged.append(f"{column}: missing from the trajectory")
                continue
            before, after = float(prev[column]), float(last[column])
            rel = (after - before) / before if before else 0.0
            worse = rel if metric["better"] == "lower" else -rel
            mark = ""
            if worse > metric["bound"]:
                mark = "  REGRESSION"
                flagged.append(f"{column}: {rel:+.1%} (bound {metric['bound']:.0%})")
            print(f"{column:<28} {before:>12.4g} {after:>12.4g} {rel:>+8.1%}"
                  f"  {metric['bound']:.0%}{mark}")
    for line in flagged:
        print(f"flagged: {line}", file=sys.stderr)
    return 1 if flagged else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--trajectory", type=Path, default=ROOT / "bench" / "trajectory.csv")
    p.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args()
    bench = json.loads(args.benchmark.read_text())
    return diff(load_rows(args.trajectory), bench)


if __name__ == "__main__":
    sys.exit(main())
