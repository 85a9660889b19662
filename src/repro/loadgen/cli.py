"""Command-line entry point for the load harness.

``python -m repro.loadgen --spec SPEC.json --slo SLO.json`` runs one
closed-loop load test and prints the measurement summary plus the SLO
gate table; the process exits 0 on PASS, 1 on an SLO breach, 2 on a
bad spec. ``--out`` additionally writes the canonical
``BENCH_load.json`` payload (byte-identical across runs at the same
seed). ``--emit-workload`` saves the generated request stream in the
serving JSONL format, replayable via ``repro serve --workload``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..bench.runner import generate_lake, read_document
from ..errors import LoadGenError, ReproError
from ..serving import render_jsonl
from .harness import run_load
from .report import bench_payload, to_json, write_report
from .slo import SLOSpec
from .spec import LoadSpec, generate_workload

#: Measurement keys printed in the CLI summary, in display order.
_SUMMARY_KEYS = (
    "asks", "served", "shed", "deduped", "writes", "batches",
    "errors", "abstained",
    "work_p50", "work_p95", "work_p99", "work_max", "work_mean",
    "total_work", "think_work", "warmup_work",
    "error_rate", "abstain_rate", "shed_rate", "dedup_rate",
    "answer_hit_rate", "plan_hit_rate", "retrieval_hit_rate",
)


def build_parser() -> argparse.ArgumentParser:
    """The load harness's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.loadgen",
        description="Deterministic closed-loop load harness with SLO "
                    "gates (see docs/serving.md)",
        # No prefix matching: a flag is accepted only spelled in full.
        allow_abbrev=False,
    )
    parser.add_argument("--spec", required=True, metavar="SPEC.json",
                        help="load-generation spec (domain, seed, "
                             "mixes, skew, writes, faults)")
    parser.add_argument("--slo", default=None, metavar="SLO.json",
                        help="SLO gate spec; omit to measure without "
                             "gating")
    parser.add_argument("--out", default=None, metavar="REPORT.json",
                        help="write the canonical BENCH_load payload "
                             "here")
    parser.add_argument("--emit-workload", default=None,
                        metavar="FILE.jsonl",
                        help="also save the generated request stream "
                             "as a serving JSONL workload")
    return parser


def _emit_workload(spec: LoadSpec, path: str) -> None:
    """Expand the spec once more and save the flat JSONL stream."""
    lake = generate_lake(spec.stack.domain, spec.stack.seed)
    questions = [
        pair.question
        for pair in lake.qa_pairs(per_kind=spec.questions_per_kind)
    ]
    requests = [
        request
        for burst in generate_workload(spec, questions)
        for request in burst.requests
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_jsonl(requests))


def main(argv: Optional[List[str]] = None) -> int:
    """Run the harness; returns 0 PASS / 1 breach / 2 config error."""
    args = build_parser().parse_args(argv)
    try:
        spec = LoadSpec.from_dict(read_document(args.spec, "--spec"))
        slo = SLOSpec.load(args.slo) if args.slo else None
        if args.emit_workload:
            _emit_workload(spec, args.emit_workload)
        report = run_load(spec, slo)
    except (LoadGenError, ReproError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("load %r on %s (seed %d): %d asks over %d sessions"
          % (spec.name, spec.stack.domain, spec.stack.seed, spec.asks,
             spec.sessions))
    for key in _SUMMARY_KEYS:
        if key in report.measurements:
            print("  %-20s %s" % (key, report.measurements[key]))
    for key in sorted(report.measurements):
        if key.startswith("tenant."):
            print("  %-32s %s" % (key, report.measurements[key]))
    if report.verdict is not None:
        print()
        print(report.verdict.render())
    if args.out:
        path = write_report(args.out, bench_payload([report]))
        print("\nreport: %s" % path)
    elif report.verdict is None:
        # No gates and no file: still show the canonical payload so
        # the run leaves a machine-readable trace on stdout.
        print()
        print(to_json(bench_payload([report])), end="")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
