"""TableQA engine: answer questions by synthesized queries.

This is both (a) the engine the hybrid pipeline runs over curated *and
generated* tables, and (b) — restricted to curated tables — the
Text-to-SQL baseline of E2, which by construction cannot see facts that
only exist in unstructured text.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from ..errors import ExecutionError, PlanError, SynthesisError
from ..obs import span
from ..semql.catalog import QuestionFrame, SchemaCatalog
from ..semql.compiler import QueryCompiler
from ..semql.logical import FilterSpec, QuerySpec
from ..semql.synthesizer import OperatorSynthesizer
from ..storage.relational.database import Database
from ..storage.relational.executor import ResultSet
from ..tenancy import TenantContext
from .answer import ANSWER_SYSTEM_TEXT2SQL, Answer


class TableQAEngine:
    """Answer NL questions over one relational database."""

    def __init__(self, db: Database, catalog: Optional[SchemaCatalog] = None,
                 system_name: str = ANSWER_SYSTEM_TEXT2SQL):
        self._db = db
        self._catalog = catalog or SchemaCatalog(db)
        self._synthesizer = OperatorSynthesizer(self._catalog)
        self._compiler = QueryCompiler(db)
        self._system = system_name
        self._plan_cache: Optional[Any] = None

    def set_plan_cache(self, cache: Optional[Any]) -> None:
        """Install a synthesized-plan cache (or None to remove it).

        *cache* is duck-typed: ``get(key) -> Optional[QuerySpec]`` and
        ``put(key, spec)``, where the key is the question string or —
        when the caller passes ``plan_key`` to :meth:`answer` — the
        federated plan's canonical :meth:`~repro.qa.plan.FederatedPlan.
        signature`. Synthesis is deterministic over a fixed schema, so
        a cached plan re-executes against live tables — the serving
        layer invalidates on schema change, not on data change.
        """
        self._plan_cache = cache

    @property
    def catalog(self) -> SchemaCatalog:
        """The schema catalog (for registering synonyms/joins)."""
        return self._catalog

    def refresh(self) -> None:
        """Rebuild the value index after tables changed."""
        self._catalog.build_value_index()

    # ------------------------------------------------------------------
    def answer(self, question: str,
               plan_key: Optional[Any] = None,
               tenant: Optional[TenantContext] = None,
               frame: Optional[QuestionFrame] = None) -> Answer:
        """Synthesize, compile, execute; abstains on unbound questions.

        *plan_key* overrides the plan-cache key — the executor passes
        the federated plan's :meth:`~repro.qa.plan.FederatedPlan.
        signature` so the serving plan tier keys off one principled
        identity instead of the raw question string.

        *tenant* (a :class:`~repro.tenancy.TenantContext`, optional)
        applies row-level security *before* execution: a synthesized
        spec touching a table outside the tenant's catalog becomes a
        typed abstention, and every table with mandated RLS conjuncts
        has them appended to the spec's filters. Specs are cached in
        their governed form — callers pass tenant-scoped ``plan_key``s,
        so a cached spec always carries the right tenant's predicates.

        *frame* is the catalog's analysis of *question*
        (:meth:`~repro.semql.catalog.SchemaCatalog.frame`), handed to
        synthesis so a routed question is not analysed twice; without
        one, synthesis builds its own.
        """
        key = plan_key if plan_key is not None else question
        with span("qa.tableqa") as sp:
            try:
                spec = None
                if self._plan_cache is not None:
                    spec = self._plan_cache.get(key)
                    sp.set("plan_cached", spec is not None)
                if spec is None:
                    spec = self._synthesizer.synthesize(question,
                                                        frame=frame)
                    if tenant is not None:
                        blocked = self._invisible_tables(spec, tenant)
                        if blocked:
                            sp.set("abstained", True)
                            return Answer.abstain(
                                self._system,
                                reason="tenancy: table(s) %s outside "
                                "tenant %r's catalog" % (
                                    ", ".join(blocked),
                                    tenant.tenant_id,
                                ),
                            ).with_metadata(tenancy="blocked")
                        spec = _inject_rls(spec, tenant)
                    if self._plan_cache is not None:
                        self._plan_cache.put(key, spec)
                result = self._compiler.execute(spec)
            except (SynthesisError, PlanError, ExecutionError) as exc:
                sp.set("abstained", True)
                return Answer.abstain(self._system, reason=str(exc))
            sp.set("abstained", False)
            sp.set("rows", len(result.rows))
            return self._verbalize(question, spec.describe(), result)

    @staticmethod
    def _invisible_tables(spec: QuerySpec,
                          tenant: TenantContext) -> list:
        """Tables the spec touches outside the tenant's catalog."""
        touched = [spec.table] + [join.table for join in spec.joins]
        return sorted(
            {t for t in touched if not tenant.table_visible(t)}
        )

    def _verbalize(self, question: str, plan_text: str,
                   result: ResultSet) -> Answer:
        provenance = ("sql:%s" % plan_text,)
        if len(result.columns) == 1 and len(result.rows) == 1:
            value = result.rows[0][0]
            if value is None:
                return Answer.abstain(
                    self._system, reason="query returned NULL"
                )
            return Answer(
                text=_format_value(value), value=value, confidence=0.9,
                grounded=True, system=self._system, provenance=provenance,
                metadata={"plan": plan_text},
            )
        if not result.rows:
            return Answer(
                text="no matching rows", value=[], confidence=0.6,
                grounded=True, system=self._system, provenance=provenance,
                metadata={"plan": plan_text},
            )
        if len(result.columns) == 1:
            values = [row[0] for row in result.rows]
            return Answer(
                text=", ".join(_format_value(v) for v in values),
                value=values, confidence=0.85, grounded=True,
                system=self._system, provenance=provenance,
                metadata={"plan": plan_text},
            )
        rows = result.to_dicts()
        text = "; ".join(
            ", ".join("%s=%s" % (k, _format_value(v)) for k, v in row.items())
            for row in rows[:5]
        )
        return Answer(
            text=text, value=rows, confidence=0.8, grounded=True,
            system=self._system, provenance=provenance,
            metadata={"plan": plan_text},
        )


def _inject_rls(spec: QuerySpec, tenant: TenantContext) -> QuerySpec:
    """Append the tenant's mandated conjuncts for every touched table.

    Injection is idempotent (filters are deduplicated), so re-governing
    an already-governed spec — e.g. one loaded from a tenant-scoped
    plan cache — is a no-op. An RLS column the table does not have
    fails closed downstream: the compiler raises ``PlanError`` and the
    engine abstains.
    """
    touched = [spec.table] + [join.table for join in spec.joins]
    extra = []
    for table in touched:
        for rule in tenant.rules_for(table):
            extra.append(FilterSpec(rule.column, rule.op, rule.value))
    if not extra:
        return spec
    filters = tuple(dict.fromkeys(tuple(spec.filters) + tuple(extra)))
    return replace(spec, filters=filters)


def _format_value(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return "%.4g" % value
    return str(value)
