"""Compare two full-set reports of ``run.py`` under the benchmark's bounds.

    python benchmarks/perf/compare.py A.json B.json

A is the base, B the candidate. One row per end-to-end metric and
workload: ``same`` / ``worse`` / ``better`` and the ratio B/A with its
base. A metric is ``worse`` when it moved in its bad direction by more
than its bound (a share of A); ``failed_share`` has no tolerance — any
increase is worse. Exits 1 on any ``worse`` row, 2 on unusable input.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CONTRACT = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                        "BENCHMARK.json")

#: Reported end-to-end metrics that BENCHMARK.json cannot list, because
#: it only admits metrics that are non-zero on every workload.
EXTRA_BOUNDS = {
    "ingest_p50_ms": ("lower", 0.15),   # serve_churn only
    "failed_share": ("lower", 0.0),     # 0 today; any increase is worse
}

#: Counts that two runs of one commit and seed must agree on exactly.
IDENTITY_KEYS = ("inputs_sha256", "counts", "attempted", "failed")


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) from BENCHMARK.json plus the extras."""
    with open(CONTRACT, "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    bounds = {m["name"]: (m["better"], float(m["bound"]))
              for m in contract["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    return bounds


def verdict(base: float, new: float, better: str, bound: float) -> str:
    """``same`` / ``worse`` / ``better`` for one metric pair."""
    if better == "higher":
        base, new = -base, -new
    slack = abs(base) * bound
    if new > base + slack:
        return "worse"
    if new < base - slack:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            bounds: Dict[str, Tuple[str, float]]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both reports."""
    rows = []
    for workload, base_report in a["workloads"].items():
        new_report = b["workloads"].get(workload)
        if new_report is None:
            continue
        for metric, (better, bound) in bounds.items():
            base = base_report["end_to_end"].get(metric)
            new = new_report["end_to_end"].get(metric)
            if base is None or new is None:
                continue
            rows.append({
                "workload": workload, "metric": metric, "base": base,
                "new": new, "bound": bound, "better": better,
                "ratio": new / base if base else None,
                "verdict": verdict(base, new, better, bound),
            })
    return rows


def _ratio_text(ratio: Optional[float]) -> str:
    return "n/a" if ratio is None else "%.3f" % ratio


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                reports.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print("cannot read %s: %s" % (path, exc), file=sys.stderr)
            return 2
    a, b = reports
    rows = compare(a, b, load_bounds())
    if not rows:
        print("the reports share no workload", file=sys.stderr)
        return 2
    print("%-12s %-14s %-7s %12s %12s  %s" % (
        "workload", "metric", "verdict", "A (base)", "B", "B/A"))
    for row in rows:
        print("%-12s %-14s %-7s %12.6g %12.6g  %s of %.6g (bound %g%%, %s is better)" % (
            row["workload"], row["metric"], row["verdict"], row["base"],
            row["new"], _ratio_text(row["ratio"]), row["base"],
            row["bound"] * 100.0, row["better"]))
    for workload, base_report in a["workloads"].items():
        new_report = b["workloads"].get(workload, {})
        differing = [key for key in IDENTITY_KEYS
                     if base_report.get(key) != new_report.get(key)]
        print("%-12s counts and inputs: %s" % (
            workload,
            "identical" if not differing else "differ in " + ", ".join(differing)))
    worse = [row for row in rows if row["verdict"] == "worse"]
    print("%d rows, %d worse" % (len(rows), len(worse)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
