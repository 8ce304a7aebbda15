"""Agent abstraction and the deterministic scripted implementation used in tests.

A scripted agent replays a behavior table keyed by (task id, attempt index), so a
run is a pure function of the scenario. It is the only agent implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import NoScriptedBehaviorError
from .graph import TaskSpec

if TYPE_CHECKING:
    from .memory import MemoryView

UNSEEN_MARKER_PERFORMANCE = 0.5
DEFAULT_ADAPT_DECREMENT = 0.1
_INF = float("inf")
_new_tuple = tuple.__new__


class CandidateOutput(NamedTuple):
    """One agent's attempt at one task; (task_id, agent_id, attempt) is unique per run."""

    task_id: str
    agent_id: str
    attempt: int
    content: str
    emitted_facts: frozenset[str]
    declared_confidence: float
    produced_at: float

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.task_id, self.agent_id, self.attempt)


class _BehaviorFields(NamedTuple):  # the fields; BehaviorRow.__new__ has the defaults
    content: str
    emitted_facts: frozenset[str]
    declared_confidence: float
    latency: float
    annotated_scores: tuple[float, float, float] | None
    contingent_facts: tuple[tuple[str, str], ...]


class BehaviorRow(_BehaviorFields):
    """Scripted response for one (task, attempt) pair.

    contingent_facts model memory-derived insight: each (trigger, fact) pair emits
    `fact` only when `trigger` is visible in the agent's memory view at execution
    time. With memory sharing disabled the view is empty and none of them fire.

    Every way to build a row checks it: the constructor, and `_make` and
    `_replace`, which go through it.
    """

    __slots__ = ()

    def __new__(
        cls,
        content: str,
        emitted_facts: Iterable[str] = frozenset(),
        declared_confidence: float = 0.5,
        latency: float = 1.0,
        annotated_scores: tuple[float, float, float] | None = None,
        contingent_facts: tuple[tuple[str, str], ...] = (),
    ) -> BehaviorRow:
        if not isinstance(emitted_facts, frozenset):
            emitted_facts = frozenset(emitted_facts)
        if not 0.0 <= declared_confidence <= 1.0:
            raise ValueError("declared_confidence must be in [0, 1]")
        if not 0.0 <= latency < _INF:
            raise ValueError(f"latency must be finite and nonnegative, got {latency}")
        if annotated_scores is not None:
            for component in annotated_scores:
                if not 0.0 <= component <= 1.0:
                    raise ValueError("annotated score components must be in [0, 1]")
        return _new_tuple(
            cls,
            (content, emitted_facts, declared_confidence, latency, annotated_scores, contingent_facts),
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> BehaviorRow:
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)


def check_capacity(capacity: object) -> None:
    """Raise ValueError unless `capacity` is an int, not a bool, of at least 1."""
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise ValueError("capacity must be a positive integer")


class AgentProfile:
    """Routing metadata for one agent: capabilities, capacity, load, history."""

    __slots__ = ("id", "capabilities", "capacity", "load", "historical_performance")

    def __init__(
        self,
        id: str,
        capabilities: frozenset[str] = frozenset(),
        capacity: int = 1,
        load: int = 0,
        historical_performance: dict[str, float] = {},  # copied below, never kept
    ) -> None:
        check_capacity(capacity)
        self.id = id
        self.capabilities = capabilities
        self.capacity = capacity
        self.load = load
        # a clamped copy, so that adapt_strategy never edits the caller's mapping
        self.historical_performance = {m: min(1.0, max(0.0, v)) for m, v in historical_performance.items()}

    @property
    def has_spare_capacity(self) -> bool:
        return self.load < self.capacity


class ScriptedAgent:
    """Deterministic agent that replays a scenario behavior table."""

    def __init__(self, profile: AgentProfile, behavior: dict[tuple[str, int], BehaviorRow]):
        self.profile = profile
        self.behavior = behavior

    def execute(
        self, task: TaskSpec, memory_view: MemoryView, attempt: int, start: float
    ) -> CandidateOutput:
        """Produce the scripted output for (task.id, attempt).

        Raises NoScriptedBehaviorError on a missing row; an agent never fabricates
        output to mask a scenario gap.
        """
        row = self._row(task.id, attempt)
        facts = row.emitted_facts
        if row.contingent_facts:
            visible = memory_view.committed_facts()
            fired = {fact for trigger, fact in row.contingent_facts if trigger in visible}
            if fired:
                facts = facts | fired
        return _new_tuple(  # by position and without the constructor's Python frame
            CandidateOutput,
            (task.id, self.profile.id, attempt, row.content, facts, row.declared_confidence, start + row.latency),
        )

    def declared_confidence(self, task: TaskSpec) -> float:
        """Confidence declared for a first attempt at the task; 0 without a row."""
        row = self.behavior.get((task.id, 0))
        return row.declared_confidence if row is not None else 0.0

    def latency(self, task: TaskSpec, attempt: int) -> float:
        return self._row(task.id, attempt).latency

    def _row(self, task_id: str, attempt: int) -> BehaviorRow:
        row = self.behavior.get((task_id, attempt))
        if row is None:
            raise NoScriptedBehaviorError(
                f"agent {self.profile.id!r} has no behavior for task {task_id!r}"
                f" attempt {attempt}"
            )
        return row


def adapt_strategy(
    profile: AgentProfile,
    task_markers: frozenset[str],
    decrement: float = DEFAULT_ADAPT_DECREMENT,
) -> AgentProfile:
    """Apply a revision request to an agent's routing metadata.

    Every domain marker of the task the feedback refers to loses `decrement`
    historical performance (clamped at 0). This mutates only routing metadata,
    never scripted outputs.
    """
    for marker in task_markers:
        current = profile.historical_performance.get(marker, UNSEEN_MARKER_PERFORMANCE)
        profile.historical_performance[marker] = max(0.0, current - decrement)
    return profile
