"""Run measurement suite, computed purely from the event log plus the scenario.

Reports are a function of the audit trail: committed state is replayed from
store/commit events, so a written log file is enough to recompute every field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

from .errors import EmptyReferenceError, NoTerminateError
from .runlog import RunLog
from .scenario import Scenario

REPORT_SCHEMA_VERSION = 1

# Excluded from byte-for-byte reproducibility comparisons.
TIMESTAMP_FIELD = "generated_at"


@dataclass(frozen=True)
class RunReport:
    factual_coverage: float
    compliance_accuracy: float | None
    redundancy_penalty: float
    revision_rate: float
    coherence_mean: float
    relevance_mean: float
    completion_time: float
    counts: dict[str, int]

    def to_dict(self, timestamp: str | None = None) -> dict:
        """Every field but an unset compliance_accuracy, the schema version and a timestamp."""
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            TIMESTAMP_FIELD: timestamp if timestamp is not None else datetime.now(timezone.utc).isoformat(),
        }
        doc.update((f.name, getattr(self, f.name)) for f in fields(self))
        if self.compliance_accuracy is None:
            del doc["compliance_accuracy"]
        return doc

    def to_json(self, timestamp: str | None = None) -> str:
        return json.dumps(self.to_dict(timestamp), sort_keys=True, indent=2) + "\n"


def factual_coverage(emitted: Iterable[str], reference: Iterable[str]) -> float:
    """Fraction of the reference fact set present in the emitted union."""
    reference_set = set(reference)
    if not reference_set:
        raise EmptyReferenceError("reference fact set is empty")
    return len(set(emitted) & reference_set) / len(reference_set)


def compliance_accuracy(
    committed_facts: Mapping[str, frozenset[str]], gold: Mapping[str, str]
) -> float | None:
    """Fraction of compliance tasks whose committed facts contain the gold fact.

    The gold map's keys define which tasks are compliance queries; returns None
    when there are none.
    """
    if not gold:
        return None
    hits = sum(
        1 for task_id, fact in gold.items() if fact in committed_facts.get(task_id, frozenset())
    )
    return hits / len(gold)


def redundancy_penalty(
    committed_fact_sets: Sequence[frozenset[str]],
    contradiction_pairs: Iterable[tuple[str, str]] = (),
) -> float:
    """(duplicate emissions + 2 * realized contradiction pairs) / total emissions.

    A duplicate is any fact instance beyond its first occurrence across the
    committed outputs, taken in commit-version order; a contradiction pair is
    realized when both facts appear somewhere in the committed union. Clamped
    to [0, 1]; an empty committed state scores 0.
    """
    total = sum(len(facts) for facts in committed_fact_sets)
    if total == 0:
        return 0.0
    seen: set[str] = set()
    duplicates = 0
    for facts in committed_fact_sets:
        for fact in facts:
            if fact in seen:
                duplicates += 1
        seen |= facts
    realized = sum(1 for a, b in contradiction_pairs if a in seen and b in seen)
    return min(1.0, (duplicates + 2 * realized) / total)


def revision_rate(log: RunLog) -> float:
    """Reassign events per task (task count taken from the dispatch trail)."""
    task_ids = {e.payload["task_id"] for e in log.by_kind("dispatch")}
    if not task_ids:
        return 0.0
    return len(log.by_kind("reassign")) / len(task_ids)


def completion_time(log: RunLog) -> float:
    """Virtual time from the first dispatch to termination."""
    terminates = log.by_kind("terminate")
    if not terminates:
        raise NoTerminateError("run log has no terminate event")
    dispatches = log.by_kind("dispatch")
    if not dispatches:
        return 0.0
    return terminates[-1].virtual_time - dispatches[0].virtual_time


def committed_state(log: RunLog) -> list[dict]:
    """Replay the log into the final committed entries, commit-version order.

    Each item carries the commit payload plus the emitted_facts recorded by the
    matching store event.
    """
    stores = {
        (e.payload["task_id"], e.payload["agent_id"], e.payload["attempt"]): e.payload
        for e in log.by_kind("store")
    }
    final: dict[str, dict] = {}
    for event in log.by_kind("commit"):
        payload = dict(event.payload)
        key = (payload["task_id"], payload["agent_id"], payload["attempt"])
        payload["emitted_facts"] = frozenset(stores[key]["emitted_facts"])
        final[payload["task_id"]] = payload
    return sorted(final.values(), key=lambda p: p["version"])


def parallel_fanouts(log: RunLog) -> int:
    """Number of parallel routing decisions (distinct fan-out groups)."""
    groups = {
        (e.payload["task_id"], e.payload["attempt"])
        for e in log.by_kind("dispatch")
        if e.payload["mode"] == "parallel"
    }
    return len(groups)


def build_report(log: RunLog, scenario: Scenario) -> RunReport:
    """Compute the full measurement suite for one completed run."""
    committed = committed_state(log)
    fact_sets = [entry["emitted_facts"] for entry in committed]
    union: set[str] = set()
    for facts in fact_sets:
        union |= facts

    reference = scenario.reference_facts()
    coverage = factual_coverage(union, reference) if reference else 0.0
    compliance = compliance_accuracy(
        {entry["task_id"]: entry["emitted_facts"] for entry in committed},
        scenario.gold_answers,
    )
    scores = [entry["score"] for entry in committed if entry.get("score")]
    coherence_mean = (
        sum(s["coherence"] for s in scores) / len(scores) if scores else 0.0
    )
    relevance_mean = (
        sum(s["relevance"] for s in scores) / len(scores) if scores else 0.0
    )

    return RunReport(
        factual_coverage=coverage,
        compliance_accuracy=compliance,
        redundancy_penalty=redundancy_penalty(fact_sets, scenario.contradiction_pairs),
        revision_rate=revision_rate(log),
        coherence_mean=coherence_mean,
        relevance_mean=relevance_mean,
        completion_time=completion_time(log),
        counts={
            "tasks": len(scenario.tasks),
            "dispatches": len(log.by_kind("dispatch")),
            "parallel_fanouts": parallel_fanouts(log),
            "feedback_messages": len(log.by_kind("feedback")),
        },
    )
