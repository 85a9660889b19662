"""Wall-clock benchmark of the QA stack. See README.md in this directory.

    python benchmarks/perf/run.py [--seed 7] [--out FILE]
        every workload, each in a fresh interpreter, with its traced
        round; prints every metric by name with its unit.
    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload; the last line of output is one JSON object with
        the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
    python benchmarks/perf/run.py --selftest
        a seconds-long check of the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 7
DEFAULT_SECONDS = 15.0      # BENCHMARK.json run_seconds
MAX_SPANS_WRITTEN = 50000   # trace-file cap; totals cover every span

#: End-to-end metrics defined on every workload (the BENCHMARK.json
#: set). Reports also carry ingest_p50_ms (serve_churn) and failed_share.
DRIVER_E2E = ("setup_s", "asks_per_s", "ask_p50_ms", "ask_p95_ms",
              "peak_rss_mb")

NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")


def _import_program() -> None:
    """Put the program (``src/``) and this directory on the path."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 rounds: Optional[int] = None,
                 skip_mirror_write: Optional[int] = None) -> Dict[str, Any]:
    """Run one workload in this interpreter; returns its report."""
    import harness
    import layers
    import workloads

    import gauge as gauge_module

    stream = workloads.generate(name, seed, seconds, skip_mirror_write)
    gauge = gauge_module.Gauge()
    results = harness.run_untraced(stream, rounds or workloads.ROUNDS, gauge)
    rss_mb = harness.peak_rss_mb()
    tracer = traced_round = None
    if traced:
        # Imported only now: the untraced rounds ran without probes.
        import probes

        tracer = probes.Tracer()
        tracer.install()
        try:
            traced_round = harness.play_round(stream, harness.Scorer(),
                                              gauge, tracer)
        finally:
            tracer.uninstall()
    summary = harness.summarize(stream, results, gauge, rss_mb)
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "inputs_sha256": stream.inputs_sha256,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    report.update({k: v for k, v in summary.items()
                   if k != "call_durations"})
    if traced:
        if traced_round.counts != summary["counts"]:
            report["counts_repeat"] = report["correct"] = False
        per_layer = layers.count_metrics(stream, summary)
        per_layer.update(layers.trace_metrics(
            stream, tracer, traced_round, results, gauge.floor))
        layers.check_complete(per_layer)
        report["per_layer"] = {metric: per_layer[metric] for metric, _unit,
                               _better in layers.PER_LAYER}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace_%s.json" % name)
        document = {"workload": name, "seed": seed, "seconds": seconds,
                    "inputs_sha256": stream.inputs_sha256,
                    "nesting_problems": tracer.check_nesting()}
        document.update(tracer.dump(MAX_SPANS_WRITTEN))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
        report["trace"] = {
            "file": os.path.relpath(path, REPO),
            "spans_total": document["spans_total"],
            "spans_written": document["spans_written"],
            "nesting_problems": document["nesting_problems"],
            "probe_missing": document["probe_missing"],
        }
    return report


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _format(value: Optional[float]) -> str:
    return "null" if value is None else "%.6g" % value


def print_report(report: Dict[str, Any]) -> None:
    """Every metric of one workload, by name, with its unit."""
    import harness
    import layers

    name = report["workload"]
    samples = report["samples"]
    print("== %s  seed=%d  seconds=%g  inputs=%s" % (
        name, report["seed"], report["seconds"],
        report["inputs_sha256"][:16]))
    print("   rounds=%d  timed_calls/round=%d  asks/round=%d  "
          "writes/round=%d  samples_beyond_p95=%d" % (
              report["rounds"]["n"], samples["timed_calls_per_round"],
              samples["asks_per_round"], samples["writes_per_round"],
              samples["beyond_p95"]))
    print("   correct=%s  attempted=%d  failed=%d  counts_repeat=%s" % (
        report["correct"], report["attempted"], report["failed"],
        report["counts_repeat"]))
    machine = report["machine"]
    print("   machine slowdown by round: %s  (reference unit %.1f us, "
          "%d units)" % (
              " ".join("%.2f" % s for s in machine["slowdown_by_round"]),
              machine["unit_floor_us"], machine["gauge_units"]))
    for metric, unit in harness.E2E_UNITS.items():
        line = "   %-14s %12s %-6s" % (
            metric, _format(report["end_to_end"][metric]), unit)
        if metric in report["uncorrected"]:
            line += "  uncorrected: best of rounds per call %s" % _format(
                report["uncorrected"][metric])
        by_round = report["rounds"]["summary"].get(metric)
        if by_round:
            line += ", best round %s, median round %s, round spread %.0f%%" % (
                _format(by_round["best_round"]),
                _format(by_round["median_round"]),
                by_round["round_spread"] * 100.0)
        print(line)
    if "per_layer" in report:
        units = layers.units()
        for metric, value in report["per_layer"].items():
            print("   %-42s %12s %s" % (metric, _format(value),
                                        units[metric]))
        trace = report["trace"]
        print("   trace: %s (%d of %d spans written)" % (
            trace["file"], trace["spans_written"], trace["spans_total"]))
        for target in trace["probe_missing"]:
            print("   probe_missing: %s" % target)


def result_line(report: Dict[str, Any], traced: bool) -> str:
    """The one-object JSON line the driver reads."""
    import harness
    import layers

    if traced:
        units = layers.units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name],
                          "unit": harness.E2E_UNITS[name]}
                   for name in DRIVER_E2E}
    return json.dumps({
        "correct": bool(report["correct"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Full set
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, out: str) -> int:
    """Every workload, each in a fresh interpreter, traced round included."""
    import workloads

    reports: Dict[str, Any] = {}
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        for name in workloads.WORKLOADS:
            path = os.path.join(scratch, "%s.json" % name)
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", repr(seconds), "--trace", "1",
                 "--report", path],
                stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print("workload %s exited with %d" % (name, done.returncode),
                      file=sys.stderr)
                return 2
            with open(path, "r", encoding="utf-8") as handle:
                reports[name] = json.load(handle)
    for report in reports.values():
        print_report(report)
    document = {
        "benchmark": "perf",
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": reports,
    }
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % out)
    return 0 if all(r["correct"] for r in reports.values()) else 1


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def selftest() -> int:
    """Seconds-long check of the benchmark's own machinery."""
    import harness
    import layers
    import workloads

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise AssertionError(message)

    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    check([w["name"] for w in contract["workloads"]]
          == list(workloads.WORKLOADS), "BENCHMARK.json workloads differ")
    check([m["name"] for m in contract["end_to_end"]] == list(DRIVER_E2E),
          "BENCHMARK.json end_to_end differs from DRIVER_E2E")
    check([(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]]
          == list(layers.PER_LAYER), "BENCHMARK.json per_layer differs")
    check(contract["run_seconds"] == DEFAULT_SECONDS,
          "BENCHMARK.json run_seconds differs from DEFAULT_SECONDS")
    for metric in contract["end_to_end"]:
        check(harness.E2E_UNITS[metric["name"]] == metric["unit"],
              "unit of %s differs" % metric["name"])

    for name in workloads.WORKLOADS:
        check(bool(NAME_PATTERN.match(name)), "bad workload name %r" % name)
        report = run_workload(name, DEFAULT_SEED, seconds=0.4, traced=True,
                              rounds=2)
        check(report["counts_repeat"],
              "%s: counts differ between mini-rounds" % name)
        check(report["failed"] == 0 and report["correct"],
              "%s: %d failed operations" % (name, report["failed"]))
        for key in ("workload", "seed", "seconds", "inputs_sha256", "python",
                    "nproc", "end_to_end", "per_layer", "rounds", "samples",
                    "counts", "attempted", "failed", "correct", "trace"):
            check(key in report, "%s: report lacks %r" % (name, key))
        check(set(report["end_to_end"]) == set(harness.E2E_UNITS),
              "%s: end-to-end metric set" % name)
        for metric in list(report["end_to_end"]) + list(report["per_layer"]):
            check(bool(NAME_PATTERN.match(metric)),
                  "bad metric name %r" % metric)
        for metric in DRIVER_E2E:
            value = report["end_to_end"][metric]
            check(isinstance(value, float) and value > 0,
                  "%s: %s is not a positive number" % (name, metric))
        check((report["end_to_end"]["ingest_p50_ms"] is not None)
              == (name == "serve_churn"), "%s: ingest_p50_ms" % name)
        check(report["trace"]["nesting_problems"] == [],
              "%s: spans do not nest: %s" % (
                  name, report["trace"]["nesting_problems"][:3]))
        check(report["trace"]["probe_missing"] == [],
              "%s: probe_missing %s" % (name, report["trace"]["probe_missing"]))
        line = json.loads(result_line(report, traced=False))
        check(sorted(line) == ["attempted", "correct", "failed", "metrics"],
              "result line keys")
        again = workloads.generate(name, DEFAULT_SEED, 0.4)
        check(again.inputs_sha256 == report["inputs_sha256"],
              "%s: inputs are not a function of the seed" % name)
        print("selftest %s ok (%d spans)" % (
            name, report["trace"]["spans_total"]))

    # The stale check bites: leave one sql write out of the gold mirror
    # and the answers that follow it must score wrong.
    stale = run_workload("serve_churn", DEFAULT_SEED, seconds=0.4,
                         traced=False, rounds=1, skip_mirror_write=0)
    check(stale["failed"] > 0 and not stale["correct"],
          "a write missing from the gold mirror went unnoticed")
    print("selftest stale-gold check ok (%d of %d failed)" % (
        stale["failed"], stale["attempted"]))
    print("selftest ok")
    return 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the workload's full "
                        "report (end-to-end and per-layer) to this file")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "report.json"),
                        help="full-set report file")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, and with them dict and set
        # layout: that alone moves a run's throughput by +-1.3%.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print("the program under test is not at %s"
              % os.path.join(REPO, "src", "repro"), file=sys.stderr)
        return 2
    _import_program()
    import workloads
    if args.selftest:
        return selftest()
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (expected one of %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
    report = run_workload(args.workload, args.seed, args.seconds,
                          traced=bool(args.trace))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True)
    print_report(report)
    print(result_line(report, traced=bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
