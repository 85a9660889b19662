"""Synthetic healthcare (EHR) data lake with ground truth.

The paper's second motivating domain: a clinical-trials table and a
patients table (structured), lab-event JSON logs (semi-structured) and
clinical progress notes (unstructured) that mention per-drug
adverse-event rate changes. Mirrors :mod:`.ecommerce` so every
experiment can run on two domains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...errors import BenchmarkError
from .queries import (
    KIND_COMPARISON, KIND_CROSS_MODAL, KIND_STRUCTURED_AGG,
    KIND_STRUCTURED_ENTITY, KIND_UNSTRUCTURED_FACT, QAPair, RetrievalQuery,
)

_DRUG_STEMS = (
    "Cardio", "Neuro", "Hepato", "Immuno", "Onco", "Derma", "Pulmo",
    "Gastro", "Nephro", "Osteo",
)
_DRUG_SUFFIXES = ("zol", "mab", "pril", "statin", "cillin", "vir", "dine")
_SITES = ("Mercy General", "Lakeside Clinic", "Summit Medical",
          "Riverview Hospital")
_CONDITIONS = ("hypertension", "arthritis", "asthma", "diabetes",
               "migraine")

_UP_TEMPLATES = (
    "Adverse events for {drug} increased {pct}% in {quarter} {year}.",
    "In {quarter} {year}, reported side effects of {drug} rose {pct}%.",
)
_DOWN_TEMPLATES = (
    "Adverse events for {drug} decreased {pct}% in {quarter} {year}.",
    "In {quarter} {year}, reported side effects of {drug} fell {pct}%.",
)
_FILLER = (
    "The patient tolerated the morning rounds well.",
    "Vital signs remained within the expected reference ranges.",
    "Dietary guidance was reviewed with the care team.",
    "Follow-up appointments were scheduled at the front desk.",
    "The nursing staff updated the medication administration record.",
)

QUARTERS = ("Q1", "Q2", "Q3", "Q4")


@dataclass
class HealthSpec:
    """Size/noise knobs for the EHR lake."""

    n_drugs: int = 8
    n_patients: int = 30
    n_quarters: int = 4
    year: int = 2024
    notes_noise: float = 0.0
    seed: int = 11

    def __post_init__(self):
        if self.n_drugs < 2:
            raise BenchmarkError("need at least 2 drugs")
        if not 1 <= self.n_quarters <= 4:
            raise BenchmarkError("n_quarters must be in [1, 4]")


@dataclass
class AdverseEventFact:
    """Gold: one planted adverse-event change fact."""

    drug: str
    quarter: str
    year: int
    change_percent: float
    doc_id: str
    noisy: bool = False

    def gold_record(self) -> Dict[str, Any]:
        """Gold extraction record (shares E4's attribute vocabulary)."""
        return {
            "subject": self.drug.lower(),
            "change_percent": self.change_percent,
            "quarter": self.quarter,
            "year": self.year,
            "direction": "up" if self.change_percent >= 0 else "down",
        }


@dataclass
class HealthcareLake:
    """Materialized EHR lake plus gold labels."""

    spec: HealthSpec
    drugs: List[Dict[str, Any]] = field(default_factory=list)
    patients: List[Dict[str, Any]] = field(default_factory=list)
    trials: List[Dict[str, Any]] = field(default_factory=list)
    lab_docs: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    note_texts: List[Tuple[str, str]] = field(default_factory=list)
    adverse_facts: List[AdverseEventFact] = field(default_factory=list)

    def sql_statements(self) -> List[str]:
        """CREATE/INSERT statements for the curated tables."""
        statements = [
            "CREATE TABLE drugs (did INT PRIMARY KEY, name TEXT, "
            "name_key TEXT, condition TEXT)",
            "CREATE TABLE patients (patient_id TEXT PRIMARY KEY, age INT, "
            "site TEXT)",
            "CREATE TABLE trials (tid INT PRIMARY KEY, did INT, "
            "quarter TEXT, year INT, enrolled INT, efficacy FLOAT)",
        ]
        for drug in self.drugs:
            statements.append(
                "INSERT INTO drugs VALUES (%d, '%s', '%s', '%s')" % (
                    drug["did"], drug["name"], drug["name"].lower(),
                    drug["condition"],
                )
            )
        for patient in self.patients:
            statements.append(
                "INSERT INTO patients VALUES ('%s', %d, '%s')" % (
                    patient["patient_id"], patient["age"], patient["site"],
                )
            )
        for trial in self.trials:
            statements.append(
                "INSERT INTO trials VALUES (%d, %d, '%s', %d, %d, %.2f)" % (
                    trial["tid"], trial["did"], trial["quarter"],
                    trial["year"], trial["enrolled"], trial["efficacy"],
                )
            )
        return statements

    def drug_names(self) -> List[str]:
        """All drug surface names (for gazetteers)."""
        return [d["name"] for d in self.drugs]

    def gold_extraction_records(
        self, include_noisy: bool = False
    ) -> List[Dict[str, Any]]:
        """Gold records for planted facts (optionally the vague ones too)."""
        return [
            f.gold_record() for f in self.adverse_facts
            if include_noisy or not f.noisy
        ]

    # ------------------------------------------------------------------
    def qa_pairs(self, per_kind: int = 6,
                 seed: Optional[int] = None) -> List[QAPair]:
        """A balanced QA suite over the EHR lake."""
        rng = random.Random(self.spec.seed if seed is None else seed)
        pairs: List[QAPair] = []
        trials_by_key = {
            (t["did"], t["quarter"]): t for t in self.trials
        }
        combos = [
            (d, q) for d in self.drugs
            for q in QUARTERS[: self.spec.n_quarters]
        ]
        rng.shuffle(combos)
        for drug, quarter in combos[:per_kind]:
            trial = trials_by_key[(drug["did"], quarter)]
            pairs.append(QAPair(
                question="What is the average efficacy of %s in %s?"
                         % (drug["name"], quarter),
                kind=KIND_STRUCTURED_ENTITY,
                answer_value=trial["efficacy"],
                metadata={"drug": drug["name"], "quarter": quarter},
            ))
        for quarter in QUARTERS[: self.spec.n_quarters][:per_kind]:
            total = sum(
                t["enrolled"] for t in self.trials
                if t["quarter"] == quarter
            )
            pairs.append(QAPair(
                question="Find the total enrolled of all trials in %s."
                         % quarter,
                kind=KIND_STRUCTURED_AGG,
                answer_value=float(total),
                metadata={"quarter": quarter},
            ))
        clean = [f for f in self.adverse_facts if not f.noisy]
        rng.shuffle(clean)
        for fact in clean[:per_kind]:
            pairs.append(QAPair(
                question="How much did side effects of %s change in %s %d?"
                         % (fact.drug, fact.quarter, fact.year),
                kind=KIND_UNSTRUCTURED_FACT,
                answer_value=abs(fact.change_percent),
                relevant_docs=(fact.doc_id,),
                metadata={"drug": fact.drug, "quarter": fact.quarter,
                          "magnitude": True},
            ))
        by_condition: Dict[str, List[AdverseEventFact]] = {}
        name_to_drug = {d["name"]: d for d in self.drugs}
        for fact in clean:
            condition = name_to_drug[fact.drug]["condition"]
            by_condition.setdefault(condition, []).append(fact)
        cross = []
        for condition in sorted(by_condition):
            facts = by_condition[condition]
            mean_change = sum(f.change_percent for f in facts) / len(facts)
            cross.append(QAPair(
                question="What is the average side-effect change of drugs "
                         "for %s?" % condition,
                kind=KIND_CROSS_MODAL,
                answer_value=round(mean_change, 6),
                relevant_docs=tuple(sorted(f.doc_id for f in facts)),
                metadata={"condition": condition},
            ))
        rng.shuffle(cross)
        pairs.extend(cross[:per_kind])

        # Two-drug side-effect comparisons (the paper's intro example:
        # "Compare the efficacy of Drug A with patient-reported side
        # effects").
        by_key = {(f.drug, f.quarter): f for f in clean}
        drugs = sorted({d for d, _ in by_key})
        comparisons: List[QAPair] = []
        for quarter in QUARTERS[: self.spec.n_quarters]:
            present = [d for d in drugs if (d, quarter) in by_key]
            for i in range(0, len(present) - 1, 2):
                fact_a = by_key[(present[i], quarter)]
                fact_b = by_key[(present[i + 1], quarter)]
                if fact_a.change_percent == fact_b.change_percent:
                    continue
                winner = fact_a.drug if fact_a.change_percent > \
                    fact_b.change_percent else fact_b.drug
                comparisons.append(QAPair(
                    question="Compare the side-effect change of %s and "
                             "%s in %s %d." % (
                                 fact_a.drug, fact_b.drug, quarter,
                                 self.spec.year),
                    kind=KIND_COMPARISON,
                    answer_text="%s is higher" % winner.lower(),
                    relevant_docs=(fact_a.doc_id, fact_b.doc_id),
                    metadata={"winner": winner.lower()},
                ))
        rng.shuffle(comparisons)
        pairs.extend(comparisons[:per_kind])
        return pairs

    def retrieval_queries(self, n: int = 16,
                          seed: Optional[int] = None) -> List[RetrievalQuery]:
        """Drug-anchored retrieval queries with gold documents."""
        rng = random.Random(self.spec.seed + 1 if seed is None else seed)
        by_drug: Dict[str, List[str]] = {}
        for fact in self.adverse_facts:
            by_drug.setdefault(fact.drug, []).append(fact.doc_id)
        queries = [
            RetrievalQuery(
                query="What happened with side effects of %s?" % drug,
                relevant_docs=set(doc_ids),
                n_entities=1,
            )
            for drug, doc_ids in sorted(by_drug.items())
        ]
        rng.shuffle(queries)
        return queries[:n]

    def indirect_retrieval_queries(self) -> List[RetrievalQuery]:
        """Condition-level queries whose gold notes never mention the
        condition — reachable only through the drug catalog."""
        by_drug: Dict[str, List[str]] = {}
        for fact in self.adverse_facts:
            by_drug.setdefault(fact.drug, []).append(fact.doc_id)
        by_condition: Dict[str, set] = {}
        for drug in self.drugs:
            docs = set(by_drug.get(drug["name"], ()))
            if docs:
                by_condition.setdefault(
                    drug["condition"], set()
                ).update(docs)
        return [
            RetrievalQuery(
                query="How did side effects develop for %s treatments?"
                      % condition,
                relevant_docs=docs,
                n_entities=1,
                query_class="indirect",
            )
            for condition, docs in sorted(by_condition.items())
        ]


def generate_healthcare_lake(
    spec: Optional[HealthSpec] = None,
) -> HealthcareLake:
    """Materialize an EHR lake from *spec* (deterministic per seed)."""
    spec = spec or HealthSpec()
    rng = random.Random(spec.seed)
    lake = HealthcareLake(spec=spec)

    names = [
        stem + suffix for stem in _DRUG_STEMS for suffix in _DRUG_SUFFIXES
    ]
    rng.shuffle(names)
    if spec.n_drugs > len(names):
        raise BenchmarkError("at most %d drugs supported" % len(names))
    for did in range(1, spec.n_drugs + 1):
        lake.drugs.append({
            "did": did,
            "name": names[did - 1],
            "condition": rng.choice(_CONDITIONS),
        })
    for i in range(spec.n_patients):
        lake.patients.append({
            "patient_id": "PAT-%04d" % (i + 1),
            "age": rng.randint(18, 90),
            "site": rng.choice(_SITES),
        })
    tid = 0
    for drug in lake.drugs:
        for quarter in QUARTERS[: spec.n_quarters]:
            tid += 1
            lake.trials.append({
                "tid": tid,
                "did": drug["did"],
                "quarter": quarter,
                "year": spec.year,
                "enrolled": rng.randint(20, 200),
                "efficacy": round(rng.uniform(0.3, 0.95), 2),
            })
    for i in range(min(40, spec.n_patients)):
        patient = rng.choice(lake.patients)
        drug = rng.choice(lake.drugs)
        lake.lab_docs.append((
            "lab-%03d" % i,
            {
                "patient": patient["patient_id"],
                "drug": drug["name"],
                "panel": rng.choice(["cbc", "metabolic", "lipid"]),
                "flag": rng.choice(["normal", "high", "low"]),
            },
        ))
    doc_index = 0
    for drug in lake.drugs:
        for quarter in QUARTERS[: spec.n_quarters]:
            doc_id = "note-%03d" % doc_index
            doc_index += 1
            pct = round(rng.uniform(2.0, 30.0), 0)
            going_up = rng.random() < 0.5
            signed = pct if going_up else -pct
            noisy = rng.random() < spec.notes_noise
            if noisy:
                body = "Side effect reports were vaguely discussed."
            else:
                template = rng.choice(
                    _UP_TEMPLATES if going_up else _DOWN_TEMPLATES
                )
                body = template.format(
                    drug=drug["name"], pct=int(pct), quarter=quarter,
                    year=spec.year,
                )
            filler = rng.sample(_FILLER, 2)
            lake.note_texts.append(
                (doc_id, " ".join([filler[0], body, filler[1]]))
            )
            lake.adverse_facts.append(AdverseEventFact(
                drug=drug["name"], quarter=quarter, year=spec.year,
                change_percent=signed, doc_id=doc_id, noisy=noisy,
            ))
    return lake
