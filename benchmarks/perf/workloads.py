"""Seeded inputs for the four workloads: lakes, op streams, gold.

Everything here is a function of ``(workload, seed, seconds)`` only, so
the same arguments give the same stream — pinned by
:attr:`Stream.inputs_sha256`. The benchmark draws its own Zipf, burst
and write streams (``repro.loadgen`` is part of the program under
test, not of the benchmark) and touches the program through the
contact surface listed in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.serving import ServeRequest

WORKLOADS = ("ask_text", "ask_table", "serve_hot", "serve_churn")

#: Rounds per run: every round rebuilds both stacks and replays the
#: same stream, so each timed call is sampled once per round.
ROUNDS = 5

ECOMMERCE, HEALTHCARE = 0, 1
DOMAINS = ("ecommerce", "healthcare")

TEXT_KINDS = ("unstructured_fact", "comparison_multi_entity")
TABLE_KINDS = ("structured_entity", "structured_agg",
               "cross_modal_multi_entity")

#: Asks per second of timed budget, measured on the unmodified program
#: at the commit that added the benchmark (2-core box). ``--seconds``
#: times these gives the stream length, so a run's timed part lasts
#: about ``--seconds`` there while the stream stays a pure function of
#: its arguments (a wall-clock cut-off would make the counts differ
#: from round to round and from run to run).
ASKS_PER_SECOND = {
    "ask_text": 27.0,
    "ask_table": 215.0,
    "serve_hot": 44000.0,
    "serve_churn": 700.0,
}

BURST = 8            # asks per serve() call
SESSIONS = 4
ZIPF_EXPONENT = 1.1
SERVE_PER_KIND = 2   # qa_pairs(per_kind=2): 10 questions per domain
#: serve_churn: one write after every 10 bursts. With a write every 5,
#: about half the bursts hold a miss and p50 flips between a hit
#: (0.2 ms) and a recompute (4-5 ms) from seed to seed; at 10 it is
#: 35-40%, so p50 is a hit and p95 a recompute.
WRITE_EVERY = 10
WRITE_ROTATION = ("sql", "add_doc", "sql", "add_text")
WARMUP_ASKS = 10

#: Entity-free sentences for add_doc / add_text payloads: they pay the
#: whole write path (chunking, tagging, graph rebuild, table
#: regeneration, re-index) and move no gold answer.
_DISTRACTORS = (
    "The loading dock was repainted over the long weekend.",
    "Parking permits are renewed at the front office every spring.",
    "The cafeteria menu now lists a vegetarian option on weekdays.",
    "Maintenance replaced the hallway lighting on the second floor.",
    "The quarterly fire drill finished ahead of schedule.",
    "Visitors are asked to sign the log book at reception.",
    "The shuttle timetable changes when daylight saving ends.",
)


def lake_specs(seed: int) -> Tuple[LakeSpec, HealthSpec]:
    """The two lake specs every round builds (sizes fixed by the issue)."""
    return (LakeSpec(n_products=24, seed=seed),
            HealthSpec(n_drugs=12, n_patients=48, seed=seed))


def make_lake(domain: int, seed: int) -> Any:
    """Generate one domain's lake."""
    spec = lake_specs(seed)[domain]
    if domain == ECOMMERCE:
        return generate_ecommerce_lake(spec)
    return generate_healthcare_lake(spec)


def make_lakes(seed: int) -> Tuple[Any, Any]:
    """Generate both lakes (index 0 e-commerce, 1 healthcare)."""
    return make_lake(ECOMMERCE, seed), make_lake(HEALTHCARE, seed)


@dataclasses.dataclass(frozen=True)
class Call:
    """One timed call: an ``answer``, a ``serve(burst)`` or a write.

    ``golds`` align with ``questions``; under writes each gold is the
    pair as the benchmark's own mirror says it must score *at this
    point of the stream*.
    """

    kind: str                       # "ask" | "sql" | "add_doc" | "add_text"
    domain: int
    questions: Tuple[str, ...] = ()
    golds: Tuple[Any, ...] = ()     # QAPair per question
    requests: Tuple[ServeRequest, ...] = ()   # serve_* only

    @property
    def asks(self) -> int:
        return len(self.questions)


@dataclasses.dataclass
class Stream:
    """A workload's full input: warm-up calls, timed calls, digest."""

    workload: str
    seed: int
    seconds: float
    warmup: List[Call]
    calls: List[Call]
    inputs_sha256: str

    @property
    def serving(self) -> bool:
        return self.workload.startswith("serve_")

    @property
    def asks(self) -> int:
        return sum(call.asks for call in self.calls)


# ----------------------------------------------------------------------
# Gold under writes
# ----------------------------------------------------------------------
class FactMirror:
    """The benchmark's own copy of one domain's fact table.

    ``serve_churn`` inserts rows into ``sales`` / ``trials``; the mirror
    receives the same rows and recomputes the gold of the structured
    pool questions from them (sum / count / mean per key), so an answer
    served from before the write scores wrong.
    """

    def __init__(self, domain: int, lake: Any):
        self.domain = domain
        self.year = lake.spec.year
        if domain == ECOMMERCE:
            self.rows = [dict(row) for row in lake.sales]
            self.entity_id = {p["name"]: p["pid"] for p in lake.products}
            self.group_of = {p["pid"]: p["manufacturer"]
                             for p in lake.products}
        else:
            self.rows = [dict(row) for row in lake.trials]
            self.entity_id = {d["name"]: d["did"] for d in lake.drugs}
            self.group_of = {}
        self.next_id = 900000

    def insert(self, entity: str, quarter: str, rng: random.Random,
               mirror: bool = True) -> str:
        """One INSERT statement; the row also lands in the mirror."""
        self.next_id += 1
        if self.domain == ECOMMERCE:
            row = {"sid": self.next_id, "pid": self.entity_id[entity],
                   "quarter": quarter, "year": self.year,
                   "amount": round(rng.uniform(50.0, 500.0), 2)}
            statement = "INSERT INTO sales VALUES (%d, %d, '%s', %d, %.2f)" % (
                row["sid"], row["pid"], quarter, self.year, row["amount"])
        else:
            row = {"tid": self.next_id, "did": self.entity_id[entity],
                   "quarter": quarter, "year": self.year,
                   "enrolled": rng.randint(20, 200),
                   "efficacy": round(rng.uniform(0.3, 0.95), 2)}
            statement = (
                "INSERT INTO trials VALUES (%d, %d, '%s', %d, %d, %.2f)" % (
                    row["tid"], row["did"], quarter, self.year,
                    row["enrolled"], row["efficacy"]))
        if mirror:
            self.rows.append(row)
        return statement

    def gold_value(self, pair: Any) -> Optional[float]:
        """The pair's gold recomputed from the mirror (None: not affected
        by fact-table writes)."""
        meta = pair.metadata
        if pair.kind not in ("structured_entity", "structured_agg"):
            return None
        rows = [r for r in self.rows if r["quarter"] == meta["quarter"]]
        if self.domain == ECOMMERCE:
            if pair.kind == "structured_entity":
                pid = self.entity_id[meta["product"]]
                rows = [r for r in rows if r["pid"] == pid]
            elif "manufacturer" in meta:
                rows = [r for r in rows
                        if self.group_of[r["pid"]] == meta["manufacturer"]]
            elif pair.question.startswith("How many"):
                return float(len(rows))
            return round(sum(r["amount"] for r in rows), 2)
        if pair.kind == "structured_entity":
            did = self.entity_id[meta["drug"]]
            values = [r["efficacy"] for r in rows if r["did"] == did]
            return sum(values) / len(values)
        return float(sum(r["enrolled"] for r in rows))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(1e-6, abs(b) * 1e-6)


class _GoldBook:
    """Current gold per pool question, refreshed after every sql write."""

    def __init__(self, mirrors: Sequence[FactMirror],
                 pools: Sequence[Sequence[Any]]):
        self.mirrors = mirrors
        self.pools = pools
        self.current: List[Dict[str, Any]] = [
            {pair.question: pair for pair in pool} for pool in pools
        ]
        for domain, pool in enumerate(pools):
            for pair in pool:
                value = mirrors[domain].gold_value(pair)
                if value is not None and not _close(value, pair.answer_value):
                    raise AssertionError(
                        "mirror gold %r != lake gold %r for %r" % (
                            value, pair.answer_value, pair.question))

    def refresh(self, domain: int) -> None:
        for pair in self.pools[domain]:
            value = self.mirrors[domain].gold_value(pair)
            held = self.current[domain][pair.question]
            if value is not None and not _close(value, held.answer_value):
                self.current[domain][pair.question] = dataclasses.replace(
                    pair, answer_value=value)

    def gold(self, domain: int, question: str) -> Any:
        return self.current[domain][question]


# ----------------------------------------------------------------------
# Stream generators
# ----------------------------------------------------------------------
def _pooled(lakes: Sequence[Any], kinds: Sequence[str]) -> List[Tuple[int, Any]]:
    """(domain, pair) for every distinct question of *kinds*."""
    out: List[Tuple[int, Any]] = []
    seen = set()
    for domain, lake in enumerate(lakes):
        for pair in lake.qa_pairs(per_kind=10 ** 6):
            if pair.kind in kinds and (domain, pair.question) not in seen:
                seen.add((domain, pair.question))
                out.append((domain, pair))
    return out


def _ask_call(domain: int, pair: Any) -> Call:
    return Call("ask", domain, (pair.question,), (pair,))


def _stratified(pool: Sequence[Tuple[int, Any]], n: int, rng: random.Random,
                distinct: bool) -> List[Tuple[int, Any]]:
    """About *n* draws from *pool*, each (domain, kind) cell keeping its
    share of the pool.

    A comparison costs twice a fact lookup and e-commerce asks cost more
    than healthcare ones, so the mix decides the mean and where p95
    falls. Holding it fixed leaves the seed to choose *which* questions
    are asked, not what kind of stream it is. *distinct* draws without
    replacement.
    """
    cells: Dict[Tuple[int, str], List[Tuple[int, Any]]] = {}
    for domain, pair in pool:
        cells.setdefault((domain, pair.kind), []).append((domain, pair))
    picked: List[Tuple[int, Any]] = []
    for key in sorted(cells):
        members = cells[key]
        count = max(1, int(round(n * len(members) / len(pool))))
        if distinct:
            rng.shuffle(members)
            picked += members[:count]
        else:
            picked += [rng.choice(members) for _ in range(count)]
    rng.shuffle(picked)
    return picked


def _ask_stream(workload: str, lakes: Sequence[Any], rng: random.Random,
                n: int) -> Tuple[List[Call], List[Call]]:
    if workload == "ask_text":
        # Every distinct question at most once: nothing repeats, so no
        # cache below the pipeline can help. Warm-up asks questions the
        # timed stream does not, unless --seconds takes the whole pool.
        pool = _pooled(lakes, TEXT_KINDS)
        timed = _stratified(pool, n, rng, distinct=True)
        asked = {(domain, pair.question) for domain, pair in timed}
        rest = [(domain, pair) for domain, pair in pool
                if (domain, pair.question) not in asked]
        warm = _stratified(rest or pool, WARMUP_ASKS, rng, distinct=True)
    else:
        pool = _pooled(lakes, TABLE_KINDS)
        timed = _stratified(pool, n, rng, distinct=False)
        warm = _stratified(pool, WARMUP_ASKS, rng, distinct=False)
    return ([_ask_call(d, p) for d, p in warm],
            [_ask_call(d, p) for d, p in timed])


def _zipf_weights(n: int, exponent: float) -> List[float]:
    """Cumulative Zipf weights of ranks 1..n, for ``random.choices``."""
    return list(itertools.accumulate(
        1.0 / rank ** exponent for rank in range(1, n + 1)))


def _rank_order(pairs: Sequence[Any]) -> List[Any]:
    """Zipf rank order of a serve pool: round-robin over the kinds.

    Which kind of question is hot decides what a hit copies and what a
    recompute after a write costs. A fixed order of kinds keeps that
    the same on every seed; the seed still picks the questions.
    """
    by_kind: Dict[str, List[Any]] = {}
    for pair in pairs:
        by_kind.setdefault(pair.kind, []).append(pair)
    ordered: List[Any] = []
    for index in range(max(len(members) for members in by_kind.values())):
        ordered += [members[index] for members in by_kind.values()
                    if index < len(members)]
    return ordered


def _ask_request(question: str, session: str,
                 interned: Dict[Tuple[str, str], ServeRequest]) -> ServeRequest:
    """One shared (frozen) request per distinct (question, session): a
    long stream then costs the benchmark process little memory, and
    ``peak_rss_mb`` stays a measure of the program."""
    key = (question, session)
    if key not in interned:
        interned[key] = ServeRequest(op="ask", payload={"question": question},
                                     session=session)
    return interned[key]


def _burst(domain: int, pool: Sequence[Any], zipf: Sequence[float],
           schedule: random.Random, book: _GoldBook,
           interned: Dict[Tuple[str, str], ServeRequest]) -> Call:
    questions = tuple(pair.question for pair in
                      schedule.choices(pool, cum_weights=zipf, k=BURST))
    requests = tuple(
        _ask_request(q, "s%d" % schedule.randrange(SESSIONS), interned)
        for q in questions)
    golds = tuple(book.gold(domain, q) for q in questions)
    return Call("ask", domain, questions, golds, requests)


def _write(kind: str, domain: int, index: int, pool: Sequence[Any],
           mirror: FactMirror, rng: random.Random,
           mirrored: bool) -> Call:
    if kind == "sql":
        targets = [p for p in pool if p.kind == "structured_entity"]
        target = rng.choice(targets)
        entity = target.metadata.get("product") or target.metadata["drug"]
        payload = {"statement": mirror.insert(
            entity, target.metadata["quarter"], rng, mirror=mirrored)}
    elif kind == "add_doc":
        payload = {"doc_id": "bench-doc-%05d" % index,
                   "document": {"memo": rng.choice(_DISTRACTORS),
                                "desk": "desk-%d" % rng.randrange(9)}}
    else:
        payload = {"doc_id": "bench-text-%05d" % index,
                   "text": " ".join(rng.sample(_DISTRACTORS, 3))}
    return Call(kind, domain,
                requests=(ServeRequest(op=kind, payload=payload),))


def _serve_stream(workload: str, lakes: Sequence[Any], rng: random.Random,
                  n_bursts: int,
                  skip_mirror_write: Optional[int]) -> Tuple[List[Call],
                                                             List[Call]]:
    # The seed chooses the data (lakes, hence the pool questions and
    # their gold, and the write payloads); the schedule (which ranks
    # and sessions a burst draws, which domain it goes to) is the same
    # on every seed. serve_churn's tail is a sparse mixture (how many
    # text questions the first bursts after a write happen to hold), so
    # with a seeded schedule its p95 differs by 10-17% from seed to seed
    # for no reason the program has a say in.
    schedule = random.Random(workload)
    pools = [_rank_order(lake.qa_pairs(per_kind=SERVE_PER_KIND))
             for lake in lakes]
    mirrors = [FactMirror(domain, lake) for domain, lake in enumerate(lakes)]
    book = _GoldBook(mirrors, pools)
    zipf = [_zipf_weights(len(pool), ZIPF_EXPONENT) for pool in pools]
    interned: Dict[Tuple[str, str], ServeRequest] = {}
    # Warm-up: one pass over each pool, so every tier is filled.
    warm = []
    for domain, pool in enumerate(pools):
        for start in range(0, len(pool), BURST):
            chunk = pool[start:start + BURST]
            warm.append(Call(
                "ask", domain, tuple(p.question for p in chunk),
                tuple(chunk),
                tuple(_ask_request(p.question, "warmup", interned)
                      for p in chunk)))
    churn = workload == "serve_churn"
    if churn:
        # Whole cycles only: every write kind lands on every domain
        # equally often (an add_text costs twice as much on one lake as
        # on the other, so a coin here would swing the throughput).
        cycle = WRITE_EVERY * len(WRITE_ROTATION) * len(lakes)
        n_bursts = max(cycle, n_bursts // cycle * cycle)
    calls: List[Call] = []
    writes = sql_writes = 0
    for index in range(max(1, n_bursts)):
        domain = schedule.randrange(len(lakes))
        calls.append(_burst(domain, pools[domain], zipf[domain], schedule,
                            book, interned))
        if churn and (index + 1) % WRITE_EVERY == 0:
            kind = WRITE_ROTATION[writes % len(WRITE_ROTATION)]
            domain = writes // len(WRITE_ROTATION) % len(lakes)
            mirrored = True
            if kind == "sql":
                mirrored = sql_writes != skip_mirror_write
                sql_writes += 1
            calls.append(_write(kind, domain, writes, pools[domain],
                                mirrors[domain], rng, mirrored))
            if kind == "sql":
                book.refresh(domain)
            writes += 1
    return warm, calls


def _digest(seed: int, seconds: float, calls: Sequence[Call]) -> str:
    """sha256 over the lake specs and every generated op with its gold.

    Fed one call at a time: one document of a long stream would be the
    process's memory peak, and ``peak_rss_mb`` is meant for the program.
    """
    digest = hashlib.sha256()

    def feed(part: Any) -> None:
        digest.update(json.dumps(part, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))

    feed({"lakes": [dataclasses.asdict(spec) for spec in lake_specs(seed)],
          "seconds": seconds})
    for call in calls:
        feed([call.kind, call.domain, list(call.questions),
              [[g.answer_value, g.answer_text] for g in call.golds],
              [[r.op, r.session, r.payload] for r in call.requests]])
    return digest.hexdigest()


def generate(workload: str, seed: int, seconds: float,
             skip_mirror_write: Optional[int] = None) -> Stream:
    """The stream of *workload* for ``(seed, seconds)``.

    *skip_mirror_write* leaves the n-th ``sql`` write out of the gold
    mirror; only the self-test uses it, to show that a stale answer
    would be scored wrong.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (workload, ", ".join(WORKLOADS)))
    if seconds <= 0:
        raise ValueError("--seconds must be positive")
    lakes = make_lakes(seed)
    # One RNG stream per workload, independent of the lakes' own.
    rng = random.Random("%s:%d" % (workload, seed))
    asks = ASKS_PER_SECOND[workload] * seconds / ROUNDS
    if workload.startswith("ask_"):
        warm, calls = _ask_stream(workload, lakes, rng, int(round(asks)))
    else:
        warm, calls = _serve_stream(workload, lakes, rng,
                                    int(round(asks / BURST)),
                                    skip_mirror_write)
    return Stream(workload, seed, seconds, warm, calls,
                  _digest(seed, seconds, warm + calls))
