"""Command-line interface for the repro system.

Subcommands:

* ``demo [--domain ecommerce|healthcare] [--seed N]`` — build a
  synthetic lake and answer a sample of benchmark questions, printing
  routes and provenance;
* ``ask --domain D "question"`` — one-off question against a fresh
  lake;
* ``stats --domain D`` — print lake and graph-index statistics;
* ``sql --domain D "SELECT ..."`` — run raw SQL against the lake's
  curated+generated tables;
* ``serve --workload FILE.jsonl [--cache-policy P]`` — run a JSONL
  request workload (questions and writes) through the serving layer's
  caches, batch scheduler and admission control (see
  ``docs/serving.md``);
* ``load --spec SPEC.json [--slo SLO.json]`` — deterministic
  closed-loop load harness with SLO gates: expands a seeded workload
  spec, drives the full server, and exits non-zero on any gate breach
  (see ``docs/serving.md``, "Load testing & SLOs").

Every subcommand accepts ``--trace``: after the command's own output it
prints the recorded span tree (nested stages, wall time, per-span cost
deltas — see ``docs/observability.md``). ``--faults plan.json`` loads a
seeded fault plan plus retry/breaker/budget policies and runs the
command under deterministic chaos (see ``docs/resilience.md``); with
``--trace`` the injected faults, retries and breaker transitions show
up as ``resilience.*`` spans.

Usage: ``python -m repro.cli demo --domain ecommerce --trace``
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import List, Optional

from .bench.runner import (
    DOMAINS, StackConfig, build_stack, read_document,
)
from .errors import LoadGenError, TenancyError
from .obs import Tracer, render_trace


@contextmanager
def _tracing(args, pipeline):
    """Activate a tracer for the command body and print the span tree."""
    if not getattr(args, "trace", False):
        yield None
        return
    tracer = Tracer(meter=pipeline.meter)
    with tracer.activate():
        yield tracer
    print("\ntrace:")
    print(render_trace(tracer))


def _usage_error(message: str) -> SystemExit:
    """Print *message* to stderr; the SystemExit (status 2) to raise."""
    print("error: %s" % message, file=sys.stderr)
    error = SystemExit(message)
    error.code = 2
    return error


def _config(args) -> StackConfig:
    """The stack the flags describe, validated before anything is built.

    A bad flag or file exits 2 with the message a load spec holding the
    same value gets.
    """
    data = {"domain": args.domain, "seed": args.seed}
    for key in ("cache_policy", "batch_size", "session_budget",
                "max_queue_depth"):
        if getattr(args, key, None) is not None:
            data[key] = getattr(args, key)
    try:
        if args.faults:
            data["faults"] = read_document(args.faults, "--faults")
        if getattr(args, "tenants", None):
            data["tenant_registry"] = read_document(args.tenants,
                                                    "--tenants")
        return StackConfig.from_dict(data)
    except LoadGenError as exc:
        raise _usage_error(str(exc)) from exc


def _tenant(config: StackConfig, tenant_id: str):
    """*tenant_id*'s context in the configured registry (exit 2 if
    unregistered; the permissive default registry knows ``default``)."""
    try:
        return config.tenants.context(tenant_id)
    except TenancyError as exc:
        raise _usage_error(str(exc)) from exc


def _build(args):
    """(lake, pipeline) for a command that answers without serving."""
    lake, pipeline, _server = build_stack(_config(args), serve=False)
    return lake, pipeline


def cmd_tenants(args) -> int:
    """List or validate tenant registry spec files."""
    from .tenancy import TenantRegistry, validate_registry_data

    status = 0
    for path in args.files:
        try:
            data = read_document(path, "registry")
        except LoadGenError as exc:
            print(exc)
            return 2
        findings = validate_registry_data(data)
        if findings:
            status = 1
            print("%s: %d finding(s)" % (path, len(findings)))
            for finding in findings:
                print("  " + finding)
            continue
        registry = TenantRegistry.from_dict(data)
        print("%s: ok (%d tenant(s))" % (path, len(registry.contexts)))
        if args.list:
            for tenant_id in registry.tenant_ids():
                print("  " + registry.context(tenant_id).describe())
    return status


def cmd_demo(args) -> int:
    """Answer a benchmark sample with routing details."""
    lake, pipeline = _build(args)
    pairs = lake.qa_pairs(per_kind=2)
    correct = 0
    with _tracing(args, pipeline):
        for pair in pairs:
            answer = pipeline.answer(pair.question)
            ok = pair.is_correct(answer)
            correct += ok
            print("[%s] %s" % ("ok " if ok else "ERR", pair.question))
            print("      -> %s  (route=%s)" % (
                answer.text or "<abstain>", answer.metadata.get("route")))
        print("\n%d/%d correct" % (correct, len(pairs)))
    return 0


def cmd_ask(args) -> int:
    """Answer one user question."""
    config = _config(args)
    context = _tenant(config, args.tenant)
    _lake, pipeline, _server = build_stack(config, serve=False)
    if args.explain_plan:
        print(pipeline.explain(args.question, tenant=context))
        return 0
    if not context.is_permissive:
        # Governed path: compile + execute under the tenant's RLS /
        # scope predicates (the entropy surface stays single-tenant).
        with _tracing(args, pipeline):
            answer = pipeline.answer(args.question, tenant=context)
            print(answer.text or "<abstain>")
            if answer.provenance:
                print("provenance: %s" % "; ".join(answer.provenance[:3]))
        return 0 if not answer.abstained else 1
    with _tracing(args, pipeline):
        answer, estimate = pipeline.answer_with_uncertainty(args.question)
        print(answer.text or "<abstain>")
        if answer.provenance:
            print("provenance: %s" % "; ".join(answer.provenance[:3]))
        if estimate is not None:
            print("semantic entropy: %.3f (%d clusters / %d samples)%s" % (
                estimate.entropy, estimate.n_clusters, estimate.n_samples,
                "  ** NEEDS REVIEW **"
                if answer.metadata.get("needs_review") else "",
            ))
    return 0 if not answer.abstained else 1


def cmd_stats(args) -> int:
    """Print lake and index statistics."""
    lake, pipeline = _build(args)
    print("tables: %s" % ", ".join(pipeline.db.table_names()))
    for name in pipeline.db.table_names():
        count = pipeline.db.execute(
            "SELECT COUNT(*) FROM %s" % name
        ).scalar()
        print("  %-16s %6d rows" % (name, count))
    print("text documents: %d (%d chunks)" % (
        len(pipeline.text_store), pipeline.text_store.n_chunks))
    print("json documents: %d" % len(pipeline.doc_store))
    stats = pipeline.graph.stats()
    print("graph: %(n_nodes)d nodes / %(n_edges)d edges "
          "(%(n_chunks)d chunks, %(n_entities)d entities, "
          "%(n_records)d records, %(n_components)d components)" % stats)
    return 0


def cmd_session(args) -> int:
    """Conversational mode: read questions from stdin, one per line.

    Follow-ups ("And in Q3?") resolve against the previous question;
    blank line or EOF ends the session.
    """
    from .qa import QASession

    _, pipeline = _build(args)
    session = QASession(pipeline)
    stream = args._stdin if args._stdin is not None else sys.stdin
    with _tracing(args, pipeline):
        for raw in stream:
            question = raw.strip()
            if not question:
                break
            answer = session.ask(question)
            resolved = answer.metadata.get("rewritten")
            if resolved:
                print("(resolved: %s)" % resolved)
            print(answer.text or "<abstain>")
    return 0


def cmd_sql(args) -> int:
    """Run raw SQL against the lake database."""
    _, pipeline = _build(args)
    with _tracing(args, pipeline):
        result = pipeline.db.execute(args.query)
        print(result.pretty(max_rows=args.max_rows))
    return 0


def cmd_serve(args) -> int:
    """Serve a JSONL workload through the caching query server."""
    from .serving import load_workload

    config = _config(args)
    _tenant(config, args.tenant)  # an unregistered --tenant fails here
    requests = load_workload(args.workload)
    if args.tenant != "default":
        # Run every record that did not name its own tenant as the
        # requested one; records with explicit tenants keep theirs.
        from dataclasses import replace as _replace

        requests = [
            _replace(request, tenant=args.tenant)
            if request.tenant == "default" else request
            for request in requests
        ]
    _lake, pipeline, server = build_stack(config)
    with _tracing(args, pipeline):
        for result in server.serve(requests):
            if result.op != "ask":
                print("[%s] %s" % (result.op, result.detail))
            elif result.shed:
                print("[shed] %s" % result.answer.metadata.get(
                    "reason", "request shed"))
            else:
                flags = "".join((
                    " (dedup)" if result.deduped else "",
                    " (degraded)"
                    if result.answer.metadata.get("degraded") else "",
                ))
                print("[ask] %s%s" % (result.answer.text or "<abstain>",
                                      flags))
    stats = server.stats()
    print("\nscheduler: %(asks)d asks in %(batches)d batches, "
          "%(deduped)d deduped, %(shed)d shed, %(writes)d writes"
          % stats["scheduler"])
    for tier in ("answer", "plan", "retrieval"):
        counters = stats["cache"].get(tier)
        if counters:
            print("cache.%-9s hits %d  misses %d  evictions %d  "
                  "invalidations %d" % (
                      tier, counters["hits"], counters["misses"],
                      counters["evictions"], counters["invalidations"],
                  ))
    tenants = stats.get("tenants", {})
    if len(tenants) > 1 or args.tenant != "default":
        for tenant_id, record in sorted(tenants.items()):
            line = "tenant.%-10s requests %d  shed %d" % (
                tenant_id, record.get("requests", 0),
                record.get("shed", 0))
            if "quota_spent" in record:
                line += "  quota %d/%d" % (record["quota_spent"],
                                           record["quota_capacity"])
            if "answer_hits" in record:
                line += "  answer hits %d/%d" % (
                    record["answer_hits"], record["answer_lookups"])
            print(line)
    return 0


def cmd_load(argv: List[str]) -> int:
    """Run the closed-loop load harness with optional SLO gating."""
    from .loadgen import cli as loadgen_cli

    return loadgen_cli.main(argv)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLM-driven unified semantic queries (paper repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", default="ecommerce", choices=DOMAINS)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--trace", action="store_true",
                       help="print the span tree after the command")
        p.add_argument("--faults", default=None, metavar="PLAN.json",
                       help="run under a deterministic fault plan "
                            "(JSON; see docs/resilience.md)")

    def tenant_flags(p):
        p.add_argument("--tenants", default=None, metavar="SPEC.json",
                       help="tenant registry spec (see "
                            "docs/governance.md); omit for the "
                            "permissive default registry")
        p.add_argument("--tenant", default="default", metavar="ID",
                       help="run as this tenant (default: the "
                            "permissive 'default' tenant)")

    demo = sub.add_parser("demo", help=cmd_demo.__doc__)
    common(demo)
    demo.set_defaults(func=cmd_demo)

    ask = sub.add_parser("ask", help=cmd_ask.__doc__)
    common(ask)
    tenant_flags(ask)
    ask.add_argument("question")
    ask.add_argument("--explain-plan", action="store_true",
                     help="print the compiled federated plan DAG, "
                          "how its arms run and the engines' dry "
                          "runs instead of answering")
    ask.set_defaults(func=cmd_ask)

    stats = sub.add_parser("stats", help=cmd_stats.__doc__)
    common(stats)
    stats.set_defaults(func=cmd_stats)

    sql = sub.add_parser("sql", help=cmd_sql.__doc__)
    common(sql)
    sql.add_argument("query")
    sql.add_argument("--max-rows", type=int, default=20)
    sql.set_defaults(func=cmd_sql)

    session = sub.add_parser("session", help=cmd_session.__doc__)
    common(session)
    session.set_defaults(func=cmd_session, _stdin=None)

    serve = sub.add_parser("serve", help=cmd_serve.__doc__)
    common(serve)
    tenant_flags(serve)
    serve.add_argument("--workload", required=True, metavar="FILE.jsonl",
                       help="JSONL request stream (see docs/serving.md)")
    serve.add_argument("--cache-policy", default="full",
                       dest="cache_policy", metavar="POLICY",
                       help="'none', 'full', or a comma list of "
                            "answer,plan,retrieval")
    serve.add_argument("--batch-size", type=int, default=8)
    serve.add_argument("--session-budget", type=int, default=None,
                       metavar="WORK_UNITS",
                       help="per-session lifetime work budget")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       metavar="N",
                       help="questions allowed to queue between writes")
    serve.set_defaults(func=cmd_serve)

    # load owns its flags: main() hands everything after the
    # subcommand to loadgen.cli, so no flag is declared twice
    # (``repro load -h`` prints the harness's own help).
    load = sub.add_parser("load", help=cmd_load.__doc__, add_help=False)
    load.set_defaults(delegate=cmd_load)

    tenants = sub.add_parser("tenants", help=cmd_tenants.__doc__)
    tenants.add_argument("files", nargs="+", metavar="SPEC.json",
                         help="tenant registry spec files to validate")
    tenants.add_argument("--list", action="store_true",
                         help="also print each tenant's governance "
                              "summary")
    tenants.set_defaults(func=cmd_tenants)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if hasattr(args, "delegate"):
        return args.delegate(rest)
    if rest:
        parser.error("unrecognized arguments: %s" % " ".join(rest))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
