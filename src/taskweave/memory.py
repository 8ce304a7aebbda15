"""Append-only blackboard of candidate and committed outputs.

Every stored output stays retrievable for the whole run (losing parallel
candidates included); at most one entry per task is committed at any instant.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass

from .agents import CandidateOutput
from .errors import DuplicateKeyError, UnknownEntryError
from .scoring import ScoreBreakdown

EntryKey = tuple[str, str, int]


@dataclass(slots=True)
class MemoryEntry:
    key: EntryKey
    output: CandidateOutput
    version: int
    score: ScoreBreakdown | None = None

    @property
    def task_id(self) -> str:
        return self.key[0]

    @property
    def agent_id(self) -> str:
        return self.key[1]

    @property
    def attempt(self) -> int:
        return self.key[2]


class MemoryView:
    """Read handle agents receive at execute time.

    The view is live: it reads the store's fact counts, so a commit made after
    the view was taken shows in it. Hold one for a single wave only; every
    execute of a wave finishes before the wave's first commit.
    """

    def __init__(self, fact_counts: Mapping[str, int]):
        self._fact_counts = fact_counts

    def committed_facts(self) -> Set[str]:
        """Facts emitted by at least one current winner: a live set, not a snapshot."""
        return self._fact_counts.keys()


class SharedMemory:
    """Versioned, append-only store of every candidate output.

    Versions are dense (the n-th stored entry has version n) and `_by_key` is in version order.
    `_committed` maps each task to its winner, in commit order. `_commits` records every
    commit call's entry and the winner it demoted (None for a task's first commit), in call
    order. `_fact_counts` counts the winners emitting each fact; a fact no winner emits has
    no key.
    """

    def __init__(self) -> None:
        self._by_key: dict[EntryKey, MemoryEntry] = {}
        self._committed: dict[str, MemoryEntry] = {}
        self._commits: list[tuple[MemoryEntry, MemoryEntry | None]] = []
        self._fact_counts: dict[str, int] = {}

    def store(self, output: CandidateOutput) -> int:
        """Store a candidate under its own key and a fresh version; keys are never overwritten."""
        by_key = self._by_key
        key = output.key
        if key in by_key:
            raise DuplicateKeyError(f"memory key {key!r} already stored")
        version = len(by_key) + 1
        by_key[key] = MemoryEntry(key, output, version)
        return version

    def candidates(self, task_id: str) -> list[MemoryEntry]:
        """All entries for a task, committed or not, in version order."""
        return [entry for entry in self._by_key.values() if entry.task_id == task_id]

    def commit(self, task_id: str, key: EntryKey) -> MemoryEntry:
        """Mark one entry as the task's committed output, demoting any previous winner."""
        entry = self._by_key.get(key)
        if entry is None or entry.key[0] != task_id:
            raise UnknownEntryError(f"no entry {key!r} for task {task_id!r}")
        previous = self._committed.pop(task_id, None)
        counts = self._fact_counts
        if previous is not None:
            for fact in previous.output.emitted_facts:
                if counts[fact] == 1:
                    del counts[fact]
                else:
                    counts[fact] -= 1
        self._committed[task_id] = entry
        self._commits.append((entry, previous))
        for fact in entry.output.emitted_facts:
            counts[fact] = counts.get(fact, 0) + 1
        return entry

    def committed_entry(self, task_id: str) -> MemoryEntry | None:
        return self._committed.get(task_id)

    def committed_count(self) -> int:  # tasks with a committed entry
        return len(self._committed)

    def committed_entries(self) -> list[MemoryEntry]:
        """Every currently committed entry, in commit order (a re-commit moves a task last)."""
        return list(self._committed.values())

    def commits_since(self, start: int) -> list[tuple[MemoryEntry, MemoryEntry | None]]:
        """(committed entry, demoted winner or None) of every commit call from the `start`-th
        on (0-based), in call order.

        A later call may have demoted an entry in the list; `committed_entry` says which
        entry is the winner now.
        """
        return self._commits[start:]

    def entry(self, key: EntryKey) -> MemoryEntry:
        entry = self._by_key.get(key)
        if entry is None:
            raise UnknownEntryError(f"no entry {key!r}")
        return entry

    def has_version(self, version: int) -> bool:
        return 1 <= version <= len(self._by_key)

    def view(self) -> MemoryView:
        return MemoryView(self._fact_counts)

    def empty_view(self) -> MemoryView:
        return MemoryView({})

    def __len__(self) -> int:
        return len(self._by_key)
