"""Run measurement suite, computed purely from the event log plus the scenario.

Reports are a function of the audit trail: committed state is replayed from
store/commit events, so a written log file is enough to recompute every field.
"""

from __future__ import annotations

import json
import time
from math import fsum, modf
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from ._record import Frozen
from .errors import EmptyReferenceError, NoTerminateError
from .runlog import RunEvent, RunLog
from .scenario import Scenario

REPORT_SCHEMA_VERSION = 1

# Excluded from byte-for-byte reproducibility comparisons.
TIMESTAMP_FIELD = "generated_at"


def utc_timestamp(t: float | None = None) -> str:
    """`datetime.fromtimestamp(t, timezone.utc).isoformat()`, `t` by default now, without importing `datetime`."""
    fraction, whole = modf(time.time() if t is None else t)
    seconds, micros = divmod(int(whole) * 1_000_000 + round(fraction * 1e6), 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


class RunReport(Frozen):
    __slots__ = _fields = (
        "factual_coverage", "compliance_accuracy", "redundancy_penalty", "revision_rate",
        "coherence_mean", "relevance_mean", "completion_time", "counts",
    )

    def __init__(
        self, factual_coverage: float, compliance_accuracy: float | None, redundancy_penalty: float,
        revision_rate: float, coherence_mean: float, relevance_mean: float, completion_time: float,
        counts: dict[str, int],
    ) -> None:
        self._fill(
            factual_coverage, compliance_accuracy, redundancy_penalty, revision_rate, coherence_mean, relevance_mean,
            completion_time, counts,
        )

    def to_dict(self, timestamp: str | None = None) -> dict:
        """Every field but an unset compliance_accuracy, the schema version and a timestamp."""
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            TIMESTAMP_FIELD: timestamp if timestamp is not None else utc_timestamp(),
        }
        doc.update(zip(self._fields, self._values()))
        if self.compliance_accuracy is None:
            del doc["compliance_accuracy"]
        return doc

    def to_json(self, timestamp: str | None = None) -> str:
        """`json.dumps(self.to_dict(timestamp), sort_keys=True, indent=2) + "\\n"`, from leaves the C
        encoder writes: `indent` selects the pure-Python one, which leaves a reference cycle."""
        return _indented(self.to_dict(timestamp), "\n") + "\n"


def _indented(doc: dict, pad: str) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)` of nested dicts, each line after the first starting `pad`."""
    inner = pad + "  "
    items = ",".join(
        f"{inner}{json.dumps(key)}: {_indented(value, inner) if isinstance(value, dict) else json.dumps(value)}"
        for key, value in sorted(doc.items())
    )
    return f"{{{items}{pad}}}" if items else "{}"


def factual_coverage(emitted: Iterable[str], reference: Iterable[str]) -> float:
    """Fraction of the reference fact set present in the emitted union."""
    reference_set = reference if isinstance(reference, (set, frozenset)) else set(reference)
    if not reference_set:
        raise EmptyReferenceError("reference fact set is empty")
    return len(reference_set.intersection(emitted)) / len(reference_set)


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
    return _redundancy(committed_fact_sets, set().union(*committed_fact_sets), contradiction_pairs)


def _redundancy(fact_sets: Sequence[frozenset[str]], seen: set[str], pairs: Iterable[tuple[str, str]]) -> float:
    total = sum(map(len, fact_sets))  # `seen` is the union of `fact_sets`
    if total == 0:
        return 0.0
    realized = sum(1 for a, b in pairs if a in seen and b in seen)
    # each distinct fact's first emission is the only one that is no duplicate
    return min(1.0, (total - len(seen) + 2 * realized) / total)


def revision_rate(log: RunLog, tasks: int | None = None) -> float:
    """Reassign events per task (task count taken from the dispatch trail unless given)."""
    if tasks is None:
        tasks, _ = _dispatch_trail(log.by_kind("dispatch"))
    return len(log.by_kind("reassign")) / tasks if tasks else 0.0


def completion_time(log: RunLog) -> float:
    """Virtual time from the first dispatch to termination."""
    terminates = log.by_kind("terminate")
    if not terminates:
        raise NoTerminateError("run log has no terminate event")
    dispatches = log.by_kind("dispatch")
    if not dispatches:
        return 0.0
    return terminates[-1].virtual_time - dispatches[0].virtual_time


def _dispatch_trail(dispatches: list[RunEvent]) -> tuple[int, int]:
    """(distinct tasks, parallel fan-out groups) of the dispatch events, in one pass."""
    tasks: set[str] = set()
    fanouts: set[tuple[str, int]] = set()
    for event in dispatches:
        payload = event.payload
        tasks.add(payload["task_id"])
        if payload["mode"] == "parallel":
            fanouts.add((payload["task_id"], payload["attempt"]))
    return len(tasks), len(fanouts)


def committed_state(log: RunLog) -> list[tuple[str, frozenset[str], dict | None]]:
    """Replay the log into (task id, emitted facts, score) of each final winner, in version order.

    Each winner's store event is the one `RunLog.committed_store` finds.
    """
    final = {event.payload["task_id"]: event.payload for event in log.by_kind("commit")}
    return [
        (commit["task_id"], frozenset(log.committed_store(commit)["emitted_facts"]), commit.get("score"))
        for commit in sorted(final.values(), key=itemgetter("version"))
    ]


def build_report(log: RunLog, scenario: Scenario) -> RunReport:
    """Compute the full measurement suite for one completed run."""
    committed = committed_state(log)
    fact_sets = [facts for _, facts, _ in committed]
    seen = set().union(*fact_sets)
    reference = scenario.reference_facts()
    coverage = factual_coverage(seen, reference) if reference else 0.0
    compliance = compliance_accuracy(
        {task_id: facts for task_id, facts, _ in committed}, scenario.gold_answers
    )
    scores = [score for _, _, score in committed if score]
    coherence_mean = fsum(map(itemgetter("coherence"), scores)) / len(scores) if scores else 0.0
    relevance_mean = fsum(map(itemgetter("relevance"), scores)) / len(scores) if scores else 0.0
    dispatches = log.by_kind("dispatch")
    tasks, fanouts = _dispatch_trail(dispatches)

    return RunReport(
        factual_coverage=coverage,
        compliance_accuracy=compliance,
        redundancy_penalty=_redundancy(fact_sets, seen, scenario.contradiction_pairs),
        revision_rate=revision_rate(log, tasks),
        coherence_mean=coherence_mean,
        relevance_mean=relevance_mean,
        completion_time=completion_time(log),
        counts={
            "tasks": len(scenario.tasks),
            "dispatches": len(dispatches),
            "parallel_fanouts": fanouts,
            "feedback_messages": len(log.by_kind("feedback")),
        },
    )
