"""Per-layer probes, applied from outside for the traced round only.

:data:`PROBES` lists ``(layer, span, module, target, mode)`` rows. A
target is a public class method (patched on the class, so engines a
rebuild creates stay probed) or a module function (every ``repro.*``
module global that *is* the original object is rebound, so
``from .stemmer import stem`` call sites are covered too). Nothing in
the program is edited and the untraced rounds never import this file.

Each probed call records a span — probe index, start, end, parent span,
request id (the timed call's index; -1 set-up, -2 warm-up) and self
time. A span's self time is its duration minus what its child spans
cover. Hot leaves (``stem``, ``words``, ``tokenize``) keep only a call
count and busy/self time per request kind. A target that no longer
resolves is listed under ``probe_missing`` and skipped.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN, LEAF, CONTEXT, ITER = "span", "leaf", "context", "iter"

#: (layer, span, module, target, mode). Layers are package names.
PROBES: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("text", "stem", "repro.text.stemmer", "stem", LEAF),
    ("text", "words", "repro.text.tokenizer", "words", LEAF),
    ("text", "tokenize", "repro.text.tokenizer", "tokenize", LEAF),
    ("text", "recognize", "repro.text.ner", "EntityRecognizer.recognize",
     SPAN),
    ("text", "pos.tag", "repro.text.pos", "tag", SPAN),
    ("text", "chunk_document", "repro.text.chunker",
     "Chunker.chunk_document", SPAN),
    ("slm", "embed", "repro.slm.model", "SmallLanguageModel.embed", SPAN),
    ("slm", "embed_batch", "repro.slm.model",
     "SmallLanguageModel.embed_batch", SPAN),
    ("slm", "tag_entities", "repro.slm.model",
     "SmallLanguageModel.tag_entities", SPAN),
    ("slm", "generate", "repro.slm.model", "SmallLanguageModel.generate",
     SPAN),
    ("slm", "sample_answers", "repro.slm.model",
     "SmallLanguageModel.sample_answers", SPAN),
    ("slm", "entails", "repro.slm.model", "SmallLanguageModel.entails",
     SPAN),
    ("retrieval", "retrieve", "repro.retrieval.topology",
     "TopologyRetriever.retrieve", SPAN),
    ("retrieval", "index", "repro.retrieval.topology",
     "TopologyRetriever.index", SPAN),
    ("graphindex", "add_chunks", "repro.graphindex.builder",
     "GraphIndexBuilder.add_chunks", SPAN),
    ("graphindex", "add_table", "repro.graphindex.builder",
     "GraphIndexBuilder.add_table", SPAN),
    ("graphindex", "add_documents", "repro.graphindex.builder",
     "GraphIndexBuilder.add_documents", SPAN),
    ("graphindex", "build", "repro.graphindex.builder",
     "GraphIndexBuilder.build", SPAN),
    ("graphindex", "bfs", "repro.graphindex.hetgraph",
     "HeterogeneousGraph.bfs", SPAN),
    ("extraction", "generate", "repro.extraction.table_gen",
     "TableGenerator.generate", SPAN),
    ("extraction", "generate_into", "repro.extraction.table_gen",
     "TableGenerator.generate_into", SPAN),
    ("semql", "synthesize", "repro.semql.synthesizer",
     "OperatorSynthesizer.synthesize", SPAN),
    ("semql", "to_sql", "repro.semql.compiler", "QueryCompiler.to_sql",
     SPAN),
    ("semql", "execute", "repro.semql.compiler", "QueryCompiler.execute",
     SPAN),
    ("storage.relational", "db.execute",
     "repro.storage.relational.database", "Database.execute", SPAN),
    ("storage.document", "doc.put", "repro.storage.document.store",
     "DocumentStore.put", SPAN),
    ("storage.document", "doc.scan", "repro.storage.document.store",
     "DocumentStore.scan", ITER),
    ("storage.document", "doc.find_equal", "repro.storage.document.store",
     "DocumentStore.find_equal", SPAN),
    ("storage.textstore", "text.add", "repro.storage.textstore",
     "TextStore.add", SPAN),
    ("qa", "route", "repro.qa.federation", "FederatedRouter.route", SPAN),
    ("qa", "plan.compile", "repro.qa.executor", "PlanExecutor.compile",
     SPAN),
    ("qa", "plan.execute", "repro.qa.executor", "PlanExecutor.execute",
     SPAN),
    ("qa", "tableqa.answer", "repro.qa.tableqa", "TableQAEngine.answer",
     SPAN),
    ("qa", "textqa.answer", "repro.qa.textqa", "TextQAEngine.answer", SPAN),
    ("qa", "pipeline.answer", "repro.qa.pipeline",
     "HybridQAPipeline.answer", SPAN),
    ("qa", "pipeline.build", "repro.qa.pipeline", "HybridQAPipeline.build",
     SPAN),
    ("qa", "pipeline.generate_table", "repro.qa.pipeline",
     "HybridQAPipeline.generate_table", SPAN),
    ("qa", "pipeline.ingest_incremental", "repro.qa.pipeline",
     "HybridQAPipeline.ingest_incremental", SPAN),
    ("resilience", "question", "repro.resilience.backend",
     "ResilienceManager.question", CONTEXT),
    ("resilience", "shield", "repro.resilience.backend",
     "ResilienceManager.shield", SPAN),
    ("tenancy", "check_tenancy", "repro.tenancy.check", "check_tenancy",
     SPAN),
    ("serving", "serve", "repro.serving.server", "QueryServer.serve", SPAN),
    ("serving", "scheduler.run", "repro.serving.scheduler",
     "BatchScheduler.run", SPAN),
    ("serving", "admit", "repro.serving.admission",
     "AdmissionController.admit", SPAN),
    ("serving", "answers.get", "repro.serving.cache", "AnswerCache.get",
     SPAN),
    ("serving", "answers.put", "repro.serving.cache", "AnswerCache.put",
     SPAN),
)

#: The benchmark's own root span around set-up, warm-up and each call.
ROOT = -1

SPAN_FIELDS = ("probe", "start_us", "end_us", "parent", "request",
               "self_us")


class _TimedContext:
    """Context-manager proxy: enter and exit are spans, the body is not."""

    def __init__(self, inner: Any, timed: Callable[[Callable, tuple], Any]):
        self._inner = inner
        self._timed = timed

    def __enter__(self) -> Any:
        return self._timed(self._inner.__enter__, ())

    def __exit__(self, *exc: Any) -> Any:
        return self._timed(self._inner.__exit__, exc)


class Tracer:
    """Installs the probes and holds what they record, in memory."""

    def __init__(self):
        # span: [probe, start, end, parent, request, self]
        self.spans: List[List[Any]] = []
        # (probe, bucket) -> [calls, busy seconds, self seconds]
        self.leaves: Dict[Tuple[int, str], List[float]] = {}
        self.probe_missing: List[str] = []
        self.request = -1
        self.bucket = "setup"
        # open frames: [span id or None for leaves, child cover]
        self._stack: List[List[Any]] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()

    # -- roots ---------------------------------------------------------
    def begin(self, bucket: str, request: int) -> None:
        """Open the root span of one timed call (or set-up / warm-up)."""
        self.bucket = bucket
        self.request = request
        span = [ROOT, 0.0, 0.0, -1, request, 0.0]
        self.spans.append(span)
        self._stack.append([len(self.spans) - 1, 0.0])
        span[1] = time.perf_counter()

    def end(self) -> None:
        """Close the root span opened by :meth:`begin`."""
        now = time.perf_counter()
        span_id, cover = self._stack.pop()
        span = self.spans[span_id]
        span[2] = now
        span[5] = now - span[1] - cover

    # -- wrappers ------------------------------------------------------
    def _timed(self, probe: int) -> Callable[[Callable, tuple], Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed(fn: Callable, args: tuple, kwargs: Optional[dict] = None):
            parent = stack[-1][0] if stack else -1
            if parent is None:
                # A leaf frame carries no span id: hang the span on the
                # nearest enclosing span instead.
                parent = next((f[0] for f in reversed(stack)
                               if f[0] is not None), -1)
            span = [probe, 0.0, 0.0, parent, self.request, 0.0]
            spans.append(span)
            frame = [len(spans) - 1, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **(kwargs or {}))
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
                span[5] = end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
        return timed

    def _span_wrapper(self, probe: int, fn: Callable) -> Callable:
        timed = self._timed(probe)

        def span_probe(*args: Any, **kwargs: Any) -> Any:
            return timed(fn, args, kwargs)
        return span_probe

    def _context_wrapper(self, probe: int, fn: Callable) -> Callable:
        timed = self._timed(probe)

        def context_probe(*args: Any, **kwargs: Any) -> Any:
            return _TimedContext(fn(*args, **kwargs), timed)
        return context_probe

    def _account_leaf(self, probe: int, frame: List[Any],
                      busy: float) -> None:
        cell = self.leaves.get((probe, self.bucket))
        if cell is None:
            cell = self.leaves[(probe, self.bucket)] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += busy
        cell[2] += busy - frame[1]
        if self._stack:
            self._stack[-1][1] += busy

    def _leaf_wrapper(self, probe: int, fn: Callable) -> Callable:
        stack, clock, account = (self._stack, time.perf_counter,
                                 self._account_leaf)

        def leaf_probe(*args: Any, **kwargs: Any) -> Any:
            frame = [None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                account(probe, frame, busy)
        return leaf_probe

    def _iter_wrapper(self, probe: int, fn: Callable) -> Callable:
        """Generator functions: time spent producing items, as a leaf."""
        stack, clock, account = (self._stack, time.perf_counter,
                                 self._account_leaf)

        def iter_probe(*args: Any, **kwargs: Any) -> Any:
            inner = iter(fn(*args, **kwargs))
            busy = 0.0
            frame = [None, 0.0]
            try:
                while True:
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += clock() - start
                        stack.pop()
                    yield item
            finally:
                account(probe, frame, busy)
        return iter_probe

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        """Patch every resolvable probe target."""
        makers = {SPAN: self._span_wrapper, LEAF: self._leaf_wrapper,
                  CONTEXT: self._context_wrapper, ITER: self._iter_wrapper}
        for probe, (_layer, _span, module_name, target, mode) in \
                enumerate(PROBES):
            label = "%s:%s" % (module_name, target)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.probe_missing.append(label)
                continue
            owner, _, attr = target.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = (holder.__dict__.get(attr) if isinstance(holder, type)
                        else getattr(holder, attr, None))
            if not inspect.isfunction(original):
                self.probe_missing.append(label)
                continue
            wrapper = makers[mode](probe, original)
            wrapper.__name__ = getattr(original, "__name__", attr)
            wrapper.__doc__ = getattr(original, "__doc__", None)
            if owner:
                self._patch(holder, attr, original, wrapper)
                continue
            for name, other in list(sys.modules.items()):
                if other is None or not (name == "repro"
                                         or name.startswith("repro.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, holder: Any, attr: str, original: Any,
               wrapper: Any) -> None:
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    # -- reading -------------------------------------------------------
    def check_nesting(self) -> List[str]:
        """Violations of 'child inside parent, self time >= 0'."""
        problems = []
        slack = 1e-6
        for index, span in enumerate(self.spans):
            if span[5] < -slack:
                problems.append("span %d has negative self time" % index)
            if span[3] >= 0:
                parent = self.spans[span[3]]
                if span[1] < parent[1] - slack or span[2] > parent[2] + slack:
                    problems.append("span %d leaves its parent" % index)
        for (probe, bucket), cell in self.leaves.items():
            if cell[2] < -slack or cell[2] > cell[1] + slack:
                problems.append("leaf %s/%s self time out of range"
                                % (PROBES[probe][1], bucket))
        return problems

    def dump(self, max_spans: int) -> Dict[str, Any]:
        """The trace-file document (spans capped at *max_spans*)."""
        origin = self.origin

        def row(span: List[Any]) -> List[Any]:
            return [span[0], round((span[1] - origin) * 1e6, 1),
                    round((span[2] - origin) * 1e6, 1), span[3], span[4],
                    round(span[5] * 1e6, 1)]

        return {
            "fields": list(SPAN_FIELDS),
            "probes": [[layer, span, "%s:%s" % (module, target), mode]
                       for layer, span, module, target, mode in PROBES],
            "root_probe": ROOT,
            "spans_total": len(self.spans),
            "spans_written": min(len(self.spans), max_spans),
            "spans": [row(s) for s in self.spans[:max_spans]],
            "leaves": [
                {"probe": probe, "span": PROBES[probe][1], "bucket": bucket,
                 "calls": cell[0], "busy_ms": cell[1] * 1e3,
                 "self_ms": cell[2] * 1e3}
                for (probe, bucket), cell in sorted(self.leaves.items())
            ],
            "probe_missing": list(self.probe_missing),
        }
