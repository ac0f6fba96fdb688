#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload (report only).

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of result records as perfbench/run.py writes
them (.bench_build/results/ holds one file per run; copy it aside between
commits).  For every workload and trace mode present on both sides, prints
each metric's median and quartiles (statistics.quantiles, n=4) per side, the
change of the medians as a share of BEFORE's median, and for end-to-end
metrics whether that change is worse than the bound in BENCHMARK.json.  The
spread column is the quartile distance as a share of the median, the figure
a claimed change has to clear.  Nothing is gated: the exit code is 0 whenever
both sides could be read.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{(workload, trace): {metric: [values]}} plus the units seen."""
    runs = defaultdict(lambda: defaultdict(list))
    units = {}
    files = sorted(Path(directory).rglob("*.json"))
    if not files:
        sys.exit(f"compare: no result files under {directory}")
    for path in files:
        record = json.loads(path.read_text())
        key = (record["workload"], int(record["trace"]))
        for section in ("metrics", "details"):
            for name, m in record.get(section, {}).items():
                runs[key][name].append(float(m["value"]))
                units[name] = m["unit"]
        runs[key]["failed_frac"].append(float(record.get("failed_frac", 0.0)))
        units["failed_frac"] = "frac"
    return runs, units


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, units = load(sys.argv[1])
    after, units_after = load(sys.argv[2])
    units.update(units_after)
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else {}
    e2e = {m["name"]: m for m in spec.get("end_to_end", [])}
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"\n== {workload} (trace {trace}): "
              f"{len(before[key]['failed_frac'])} vs "
              f"{len(after[key]['failed_frac'])} runs")
        print(f"  {'metric':40s} {'unit':8s} {'before q1/med/q3':>32s}  "
              f"{'after q1/med/q3':>32s}  {'delta':>8s} {'spread':>7s}")
        for name in sorted(set(before[key]) & set(after[key])):
            b1, bm, b3 = quartiles(before[key][name])
            a1, am, a3 = quartiles(after[key][name])
            delta = (am - bm) / bm if bm else float("nan")
            spread = (b3 - b1) / bm if bm else float("nan")
            note = ""
            if name in e2e and bm:
                worse = -delta if e2e[name]["better"] == "higher" else delta
                note = " WORSE THAN BOUND" if worse > e2e[name]["bound"] else ""
            print(f"  {name:40s} {units.get(name, ''):8s} "
                  f"{b1:10.4g} {bm:10.4g} {b3:10.4g}  "
                  f"{a1:10.4g} {am:10.4g} {a3:10.4g}  "
                  f"{delta:+8.2%} {spread:7.2%}{note}")
    only = sorted(set(before) ^ set(after))
    if only:
        print("\nonly on one side: " + ", ".join(f"{w} (trace {t})" for w, t in only))


if __name__ == "__main__":
    main()
