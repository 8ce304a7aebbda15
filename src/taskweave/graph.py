"""Task decomposition as a directed acyclic dependency graph with per-task lifecycle.

The graph shape is frozen at construction; only task statuses (ready, committed,
needs_revision) mutate afterwards, and only through the transition methods below.
A single writer (the orchestrator) is assumed for mutation; reads are safe anywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import (
    CycleError,
    DuplicateIdError,
    InvalidTransitionError,
    UnknownDependencyError,
)


class TaskStatus(str, Enum):
    READY = "ready"
    COMMITTED = "committed"
    NEEDS_REVISION = "needs_revision"


# The members as globals: a global costs a fraction of an Enum class attribute lookup.
_READY, _COMMITTED, _NEEDS_REVISION = TaskStatus.READY, TaskStatus.COMMITTED, TaskStatus.NEEDS_REVISION


@dataclass(frozen=True)
class TaskSpec:
    """Immutable task descriptor as declared by a scenario."""

    id: str
    description: str = ""
    domain_markers: frozenset[str] = frozenset()
    ambiguity: float = 0.0
    expected_effort: int = 0
    reference_facts: frozenset[str] = frozenset()
    depends_on: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("task id must be non-empty")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ValueError(f"ambiguity must be in [0, 1], got {self.ambiguity}")
        if self.expected_effort < 0:
            raise ValueError("expected_effort must be nonnegative")


@dataclass
class TaskGraph:
    """Dependency DAG over TaskSpecs; a task consumes the output of each task
    its `depends_on` names.

    Each task is ready, committed or needs_revision, and starts ready; `_blocked`
    counts its dependencies that are not committed. `_ready` holds the assignable
    tasks: ready or needs_revision with no blocked dependency, kept as Kahn's
    algorithm keeps its ready set. A dependency on an id outside the graph raises
    UnknownDependencyError; a dependency cycle raises CycleError.
    """

    tasks: dict[str, TaskSpec] = field(default_factory=dict)
    _status: dict[str, TaskStatus] = field(init=False, repr=False)
    _blocked: dict[str, int] = field(init=False, repr=False)
    _ready: set[str] = field(init=False, repr=False)
    _consumers: dict[str, tuple[str, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._status = dict.fromkeys(self.tasks, TaskStatus.READY)
        self._blocked = {tid: len(task.depends_on) for tid, task in self.tasks.items()}
        self._ready = {tid for tid, blocked in self._blocked.items() if not blocked}
        cycle = find_cycle(self.tasks)
        if cycle:
            raise CycleError(cycle)
        self._consumers = {tid: tuple(ids) for tid, ids in _consumer_index(self.tasks).items()}

    def task(self, task_id: str) -> TaskSpec:
        return self.tasks[task_id]

    def status(self, task_id: str) -> TaskStatus:
        return self._status[task_id]

    def dependents(self, task_id: str) -> tuple[str, ...]:
        """Direct downstream consumers of task_id, in id order."""
        return self._consumers[task_id]

    def ready_tasks(self) -> set[str]:
        """Tasks assignable right now.

        A task is assignable when its status is ready or needs_revision and every
        dependency is committed.
        """
        return set(self._ready)

    def all_committed(self) -> bool:
        return all(s is TaskStatus.COMMITTED for s in self._status.values())

    def mark_committed(self, task_id: str) -> None:
        """Commit an assignable task; each dependent has one uncommitted dependency less."""
        status, ready = self._status, self._ready
        if task_id not in ready:
            current = status.get(task_id)
            if current is not _READY and current is not _NEEDS_REVISION:
                raise _transition_error(task_id, current, "ready or needs_revision")
            raise InvalidTransitionError(f"task {task_id!r} has uncommitted dependencies")
        ready.remove(task_id)
        status[task_id] = _COMMITTED
        blocked = self._blocked
        for dep_id in self._consumers[task_id]:
            blocked[dep_id] -= 1
            if not blocked[dep_id] and status[dep_id] is not _COMMITTED:
                ready.add(dep_id)

    def mark_needs_revision(self, task_id: str) -> set[str]:
        """Reopen a committed task for revision.

        Returns the ids of direct dependents that are already committed. Those
        stay committed (no cascade); the caller logs them as stale, and nothing
        re-reviews them because of it.
        """
        current = self._status.get(task_id)
        if current is not _COMMITTED:
            raise _transition_error(task_id, current, "committed")
        self._status[task_id] = _NEEDS_REVISION
        if not self._blocked[task_id]:
            self._ready.add(task_id)
        stale = set()
        for dep_id in self.dependents(task_id):
            self._blocked[dep_id] += 1
            self._ready.discard(dep_id)
            if self._status[dep_id] is _COMMITTED:
                stale.add(dep_id)
        return stale

    def topological_order(self) -> tuple[str, ...]:
        """Deterministic topological ordering; ties broken by task id."""
        indegree = {tid: len(task.depends_on) for tid, task in self.tasks.items()}
        ready = [tid for tid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            tid = heapq.heappop(ready)
            order.append(tid)
            for dep_id in self.dependents(tid):
                indegree[dep_id] -= 1
                if indegree[dep_id] == 0:
                    heapq.heappush(ready, dep_id)
        return tuple(order)


def _transition_error(task_id: str, current: TaskStatus | None, expected: str) -> InvalidTransitionError:
    """The error for a transition from `current`, None for a task outside the graph."""
    if current is None:
        return InvalidTransitionError(f"unknown task {task_id!r}")
    return InvalidTransitionError(f"task {task_id!r} is {current.value}, expected {expected}")


def build_graph(specs: Iterable[TaskSpec]) -> TaskGraph:
    """Construct a validated TaskGraph from task descriptors.

    Raises DuplicateIdError, UnknownDependencyError, or CycleError (citing one
    cycle).
    """
    tasks: dict[str, TaskSpec] = {}
    for spec in specs:
        if spec.id in tasks:
            raise DuplicateIdError(f"duplicate task id {spec.id!r}")
        tasks[spec.id] = spec

    return TaskGraph(tasks=tasks)


def find_cycle(tasks: Mapping[str, TaskSpec]) -> tuple[str, ...]:
    """One dependency cycle as a closed path, or () when acyclic, without building a graph.

    Raises UnknownDependencyError as TaskGraph does. When each task's
    dependencies all come before it in `tasks` order, there is neither, and one
    pass of subset tests shows it without the index or the walk.
    """
    seen: set[str] = set()
    for tid, task in tasks.items():
        if not task.depends_on <= seen:
            return _first_cycle(_consumer_index(tasks))
        seen.add(tid)
    return ()


def _consumer_index(tasks: Mapping[str, TaskSpec]) -> dict[str, list[str]]:
    """Each id's direct consumers in id order.

    A dependency on an id outside `tasks` raises UnknownDependencyError, citing
    the first such task in `tasks` order.
    """
    order = sorted(tasks)
    consumers: dict[str, list[str]] = {tid: [] for tid in order}
    try:
        for tid in order:  # in id order, so each list is sorted as it grows
            for dep in tasks[tid].depends_on:
                consumers[dep].append(tid)
    except KeyError:
        task = next(task for task in tasks.values() if not task.depends_on <= tasks.keys())
        unknown = min(task.depends_on - tasks.keys())
        raise UnknownDependencyError(f"task {task.id!r} depends on unknown id {unknown!r}") from None
    return consumers


def _first_cycle(consumers: Mapping[str, Sequence[str]]) -> tuple[str, ...]:
    """One cycle of the consumer index as a closed path, or () when acyclic.

    Depth-first from each unvisited id in sorted order, consumers in their
    index order. The walk keeps its own stack, so a long dependency chain does
    not run into the interpreter's recursion limit.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(consumers, WHITE)
    for root in sorted(consumers):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        pending = [iter(consumers[root])]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GRAY:
                    return tuple(path[path.index(nxt):]) + (nxt,)
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    pending.append(iter(consumers[nxt]))
                    break
            else:
                pending.pop()
                color[path.pop()] = BLACK
    return ()
