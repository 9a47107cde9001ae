"""``run.py compare A B``: judge B against A with BENCHMARK.json's bounds.

``A`` and ``B`` are result files written by ``run.py`` or directories of
them.  For every workload x end-to-end metric, a side's runs are the
values of its files when it has at least three, else the per-process
values inside them.  A row is

* ``unresolved`` when a side's spread (interquartile range over median)
  is wider than the bound, unless every run of one side beats every run
  of the other;
* otherwise ``worse`` / ``better`` when B's median moved past the bound
  in that direction, and ``same`` when it did not.

``error_rate`` has no bound: any increase is ``worse``.  The exit code
is 1 when any row is worse.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from statistics import median, quantiles
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def load_side(path: str) -> List[dict]:
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    reports = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            report = json.load(handle)
        if not report.get("trace") and "workloads" in report:
            reports.append(report)
    if not reports:
        raise SystemExit(f"compare: no untraced result files in {path}")
    return reports


def runs_of(reports: List[dict], workload: str, metric: str) -> List[float]:
    entries = [r["workloads"][workload]["metrics"][metric]
               for r in reports
               if metric in r["workloads"].get(workload, {}).get("metrics", {})]
    if len(entries) >= 3:
        return [e["value"] for e in entries]
    return [x for e in entries for x in e["runs"]]


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: List[float], b: List[float], bound: float, lower: bool
            ) -> Tuple[str, float, float]:
    """(verdict, B's median relative to A's, wider spread of the two)."""
    mid_a, mid_b = median(a), median(b)
    change = (mid_b - mid_a) / mid_a
    worsening = change if lower else -change
    width = max(spread(a), spread(b))
    separated = max(b) < min(a) or min(b) > max(a)
    if width > bound and not separated:
        return "unresolved", change, width
    if worsening > bound:
        return "worse", change, width
    if worsening < -bound:
        return "better", change, width
    return "same", change, width


def error_rate(reports: List[dict], workload: str) -> float:
    rows = [r["workloads"][workload] for r in reports
            if workload in r["workloads"]]
    attempted = sum(row["attempted"] for row in rows)
    return sum(row["failed"] for row in rows) / attempted if attempted else 0.0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A B  (result files or directories)",
              file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    side_a, side_b = load_side(argv[0]), load_side(argv[1])
    workloads = [w["name"] for w in declared["workloads"]]
    worse = 0
    print(f"{'workload':18} {'metric':16} {'A median':>11} {'B median':>11} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a = runs_of(side_a, workload, name)
            b = runs_of(side_b, workload, name)
            if not a or not b:
                print(f"{workload:18} {name:16} missing on one side")
                worse += 1
                continue
            result, change, width = verdict(
                a, b, metric["bound"], metric["better"] == "lower"
            )
            worse += result == "worse"
            print(f"{workload:18} {name:16} {median(a):11.5g} "
                  f"{median(b):11.5g} {change:+8.1%} {width:7.1%} "
                  f"{metric['bound']:6.0%}  {result}")
        rate_a, rate_b = error_rate(side_a, workload), error_rate(side_b, workload)
        result = "worse" if rate_b > rate_a else "same"
        worse += result == "worse"
        print(f"{workload:18} {'error_rate':16} {rate_a:11.5g} {rate_b:11.5g} "
              f"{'':8} {'':7} {'0':>6}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
