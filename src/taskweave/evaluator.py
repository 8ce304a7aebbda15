"""Evaluator: scores candidates, commits each task's winner, reviews committed state.

Scoring is cached on memory entries so identical keys are never rescored.
Review emits revision requests for committed entries whose factuality falls
below the threshold (severity = 1 - factuality) and for realized contradiction
pairs (severity 1.0, against the later-committed entry). Each critique is sent
once per (referenced version, note).

Review is a delta, as in semi-naive evaluation: `commit` files each winner as
it commits it, and review checks only the winners filed since the previous
review that scored below the threshold, the only ones it can critique, so it
sends the critiques a check of every winner would. Contradiction pairs read an
index, kept at commit too, of the winners holding each fact a pair names. A
winner committed through `SharedMemory.commit` directly is not seen by review.
"""

from __future__ import annotations

from .errors import EmptyCandidateSetError, ScorerUnavailableError, UnknownEntryError
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
        self._sent: set[tuple[int, str]] = set()
        # Filed at commit: how many commits were made, the failing winners not yet checked
        # while committed, and for each fact a pair names, its holders' tasks mapped to the
        # rank of their latest commit.
        self._commits = 0
        self._unchecked: dict[str, MemoryEntry] = {}
        self._holders: dict[str, dict[str, int]] = {
            fact: {} for pair in self.contradiction_pairs for fact in pair
        }
        self._pair_facts = frozenset(self._holders)

    def weights_for(self, task: TaskSpec) -> ScoringWeights:
        """Per-domain weights when a marker has an override, defaults otherwise."""
        if not self.domain_weights:
            return self.weights
        for marker in sorted(task.domain_markers):
            if marker in self.domain_weights:
                return self.domain_weights[marker]
        return self.weights

    def score_entry(self, entry: MemoryEntry, task: TaskSpec) -> ScoreBreakdown:
        """Score a stored candidate of `task`, caching the breakdown on the entry; a candidate of
        another task raises UnknownEntryError, and a component that is NaN or outside [0, 1]
        raises ScorerUnavailableError."""
        if entry.task_id != task.id:  # its weights and reference would be the wrong task's
            raise UnknownEntryError(f"no entry {entry.key!r} for task {task.id!r}")
        if entry.score is None:
            coherence, factuality, relevance = self.scorer.components(entry.output, task)
            if not (0.0 <= coherence <= 1.0 and 0.0 <= factuality <= 1.0 and 0.0 <= relevance <= 1.0):
                triple = (coherence, factuality, relevance)
                raise ScorerUnavailableError(f"scorer gave {entry.key!r} components {triple!r} outside [0, 1]")
            entry.score = combine(coherence, factuality, relevance, self.weights_for(task))
        return entry.score

    def select_best(self, candidate_keys: list[EntryKey], task: TaskSpec) -> EntryKey:
        """Argmax-composite winner among stored candidates.

        Ties break on (agent id, attempt, version) ascending, all independent of
        the scores themselves.
        """
        if not candidate_keys:
            raise EmptyCandidateSetError("select_best needs at least one candidate")

        def rank(key: EntryKey) -> tuple[float, str, int, int]:
            entry = self.memory.entry(key)
            breakdown = self.score_entry(entry, task)
            return (-breakdown.composite, entry.agent_id, entry.attempt, entry.version)

        return min(candidate_keys, key=rank)

    def commit(self, task: TaskSpec, candidate_keys: list[EntryKey]) -> MemoryEntry:
        """Commit the task's winner among the candidates and file it for review; returns its entry.

        A fan-out's winner is `select_best`'s pick. Every candidate is scored before memory
        changes, so a ScorerUnavailableError leaves memory and the filed winners as they were.
        """
        key = candidate_keys[0] if len(candidate_keys) == 1 else self.select_best(candidate_keys, task)
        entry = self.memory.entry(key)
        score = self.score_entry(entry, task)
        demoted = self.memory.commit(task.id, key)
        # a later commit of the same task overwrites what an earlier one filed
        if score.factuality < self.fact_threshold:
            self._unchecked[task.id] = entry
        else:  # a passing winner replaces a failing one filed before it
            self._unchecked.pop(task.id, None)
        if demoted is not None:  # a winner committed past the evaluator was never filed
            for fact in demoted.output.emitted_facts & self._pair_facts:
                self._holders[fact].pop(task.id, None)
        for fact in entry.output.emitted_facts & self._pair_facts:
            self._holders[fact][task.id] = self._commits
        self._commits += 1
        return entry

    def review(self, graph: TaskGraph) -> list[FeedbackMessage]:
        """Inspect committed state and emit the critiques not sent before.

        Only entries whose task is currently committed are examined, so a task
        already reopened for revision is not charged twice while its fix is in
        flight; a winner skipped that way is checked once its task is committed
        again. Deterministic given memory contents and configuration.
        """
        messages: list[FeedbackMessage] = []
        if self._unchecked:
            status, committed = graph.status, TaskStatus.COMMITTED
            due = [e for e in self._unchecked.values() if status(e.task_id) is committed]
            for entry in sorted(due, key=lambda e: e.version):
                del self._unchecked[entry.task_id]
                factuality = entry.score.factuality
                note = f"factuality {factuality:.3f} below threshold"
                self._revision_request(messages, entry, severity=1.0 - factuality, note=note)

        for fact_a, fact_b in self.contradiction_pairs:
            if not self._holders[fact_a] or not self._holders[fact_b]:
                continue
            holders_a = self._committed_holders(fact_a, graph)
            holders_b = self._committed_holders(fact_b, graph)
            holders = {**holders_a, **holders_b}
            # the mismatch must span two entries, not sit inside a single output
            if len(holders) < 2 or not holders_a or not holders_b:
                continue
            last = max(holders, key=holders.__getitem__)
            self._revision_request(
                messages,
                self.memory.committed_entry(last),
                severity=1.0,
                note=f"contradictory facts {fact_a!r} / {fact_b!r} across committed outputs",
            )
        return messages

    def _committed_holders(self, fact: str, graph: TaskGraph) -> dict[str, int]:
        """Tasks whose winner holds `fact` and that are committed now, with their commit rank."""
        return {
            task_id: rank
            for task_id, rank in self._holders[fact].items()
            if graph.status(task_id) is TaskStatus.COMMITTED
        }

    def _revision_request(
        self, messages: list[FeedbackMessage], entry: MemoryEntry, severity: float, note: str
    ) -> None:
        """Append a critique of `entry` to `messages`, unless it was sent before."""
        if (entry.version, note) in self._sent:
            return
        self._sent.add((entry.version, note))
        messages.append(
            FeedbackMessage(
                id=f"fb-{len(self._sent)}",
                sender=EVALUATOR_ID,
                target=entry.agent_id,
                task_id=entry.task_id,
                referenced_version=entry.version,
                severity=severity,
                note=note,
            )
        )
