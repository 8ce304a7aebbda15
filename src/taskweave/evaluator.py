"""Evaluator: scores candidates, adjudicates parallel attempts, reviews committed state.

Scoring is cached on memory entries so identical keys are never rescored.
Review emits revision requests for committed entries whose factuality falls
below the threshold (severity = 1 - factuality) and for realized contradiction
pairs (severity 1.0, against the later-committed entry).
"""

from __future__ import annotations

from .errors import EmptyCandidateSetError
from .feedback import FeedbackMessage
from .graph import TaskGraph, TaskSpec, TaskStatus
from .memory import EntryKey, MemoryEntry, SharedMemory
from .scoring import ScoreBreakdown, Scorer, ScoringWeights, combine

DEFAULT_FACT_THRESHOLD = 0.6

EVALUATOR_ID = "evaluator"


class Evaluator:
    def __init__(
        self,
        memory: SharedMemory,
        scorer: Scorer,
        weights: ScoringWeights | None = None,
        domain_weights: dict[str, ScoringWeights] | None = None,
        fact_threshold: float = DEFAULT_FACT_THRESHOLD,
        contradiction_pairs: list[tuple[str, str]] | None = None,
    ) -> None:
        self.memory = memory
        self.scorer = scorer
        self.weights = weights if weights is not None else ScoringWeights()
        self.domain_weights = dict(domain_weights or {})
        self.fact_threshold = fact_threshold
        self.contradiction_pairs = list(contradiction_pairs or [])
        self._msg_counter = 0

    def weights_for(self, task: TaskSpec) -> ScoringWeights:
        """Per-domain weights when a marker has an override, defaults otherwise."""
        for marker in sorted(task.domain_markers):
            if marker in self.domain_weights:
                return self.domain_weights[marker]
        return self.weights

    def score_entry(self, entry: MemoryEntry, task: TaskSpec) -> ScoreBreakdown:
        """Score a stored candidate, caching the breakdown on the entry."""
        if entry.score is None:
            coherence, factuality, relevance = self.scorer.components(entry.output, task)
            entry.score = combine(coherence, factuality, relevance, self.weights_for(task))
        return entry.score

    def select_best(self, candidate_keys: list[EntryKey], graph: TaskGraph) -> EntryKey:
        """Argmax-composite winner among stored candidates.

        Ties break on (agent id, attempt, version) ascending, all independent of
        the scores themselves.
        """
        if not candidate_keys:
            raise EmptyCandidateSetError("select_best needs at least one candidate")

        def rank(key: EntryKey) -> tuple[float, str, int, int]:
            entry = self.memory.entry(key)
            breakdown = self.score_entry(entry, graph.task(entry.task_id))
            return (-breakdown.composite, entry.agent_id, entry.attempt, entry.version)

        return min(candidate_keys, key=rank)

    def review(self, graph: TaskGraph) -> list[FeedbackMessage]:
        """Inspect committed state and emit structured critiques.

        Only entries whose task is currently committed are examined, so a task
        already reopened for revision is not charged twice while its fix is in
        flight. Deterministic given memory contents and configuration.
        """
        messages: list[FeedbackMessage] = []
        # commit order, so the last holder of a fact is the later-committed one
        reviewable = [
            entry
            for entry in self.memory.committed_entries()
            if graph.status(entry.task_id) is TaskStatus.COMMITTED
        ]

        for entry in sorted(reviewable, key=lambda e: e.version):
            breakdown = self.score_entry(entry, graph.task(entry.task_id))
            if breakdown.factuality < self.fact_threshold:
                messages.append(
                    self._revision_request(
                        entry,
                        severity=1.0 - breakdown.factuality,
                        note=f"factuality {breakdown.factuality:.3f} below threshold",
                    )
                )

        for fact_a, fact_b in self.contradiction_pairs:
            holders = [
                e
                for e in reviewable
                if fact_a in e.output.emitted_facts or fact_b in e.output.emitted_facts
            ]
            # the mismatch must span two entries, not sit inside a single output
            if (
                len(holders) < 2
                or not any(fact_a in e.output.emitted_facts for e in holders)
                or not any(fact_b in e.output.emitted_facts for e in holders)
            ):
                continue
            messages.append(
                self._revision_request(
                    holders[-1],
                    severity=1.0,
                    note=f"contradictory facts {fact_a!r} / {fact_b!r} across committed outputs",
                )
            )
        return messages

    def _revision_request(
        self, entry: MemoryEntry, severity: float, note: str
    ) -> FeedbackMessage:
        self._msg_counter += 1
        return FeedbackMessage(
            id=f"fb-{self._msg_counter}",
            sender=EVALUATOR_ID,
            target=entry.agent_id,
            task_id=entry.task_id,
            referenced_version=entry.version,
            severity=severity,
            note=note,
        )
