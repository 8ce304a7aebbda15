"""Evaluator: scores candidates, adjudicates parallel attempts, reviews committed state.

Scoring is cached on memory entries so identical keys are never rescored.
Review emits revision requests for committed entries whose factuality falls
below the threshold (severity = 1 - factuality) and for realized contradiction
pairs (severity 1.0, against the later-committed entry). Each critique is sent
once per (referenced version, note).

Review is a delta over the memory's commit record, as in semi-naive
evaluation: factuality is checked for the winners committed since the
previous review only, and contradiction pairs read an index of the winners
holding each fact a pair names.
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
        self._sent: set[tuple[int, str]] = set()
        # Replay state over memory.commits_since: how many commits were read, the
        # winners read but not yet checked while committed, and for each fact a
        # pair names, its holders' tasks mapped to the rank of their latest commit.
        self._commits_read = 0
        self._unchecked: dict[str, MemoryEntry] = {}
        self._holders: dict[str, dict[str, int]] = {
            fact: {} for pair in self.contradiction_pairs for fact in pair
        }

    def weights_for(self, task: TaskSpec) -> ScoringWeights:
        """Per-domain weights when a marker has an override, defaults otherwise."""
        if not self.domain_weights:
            return self.weights
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
        """Inspect committed state and emit the critiques not sent before.

        Only entries whose task is currently committed are examined, so a task
        already reopened for revision is not charged twice while its fix is in
        flight; a winner skipped that way is checked once its task is committed
        again. Deterministic given memory contents and configuration.
        """
        self._read_commits()
        messages: list[FeedbackMessage] = []
        due = [e for e in self._unchecked.values() if graph.status(e.task_id) is TaskStatus.COMMITTED]
        for entry in sorted(due, key=lambda e: e.version):
            del self._unchecked[entry.task_id]
            breakdown = self.score_entry(entry, graph.task(entry.task_id))
            if breakdown.factuality < self.fact_threshold:
                self._revision_request(
                    messages,
                    entry,
                    severity=1.0 - breakdown.factuality,
                    note=f"factuality {breakdown.factuality:.3f} below threshold",
                )

        for fact_a, fact_b in self.contradiction_pairs:
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

    def _read_commits(self) -> None:
        """Bring the unchecked winners and the holders index up to the commit record."""
        commits = self.memory.commits_since(self._commits_read)
        # a later commit of the same task overwrites what an earlier one set
        for rank, (entry, demoted) in enumerate(commits, self._commits_read):
            task_id = entry.task_id
            self._unchecked[task_id] = entry
            if demoted is not None:
                for fact in demoted.output.emitted_facts & self._holders.keys():
                    del self._holders[fact][task_id]
            for fact in entry.output.emitted_facts & self._holders.keys():
                self._holders[fact][task_id] = rank
        self._commits_read += len(commits)

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
