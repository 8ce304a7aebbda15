"""Append-only blackboard of candidate and committed outputs.

Every stored output stays retrievable for the whole run (losing parallel
candidates included); at most one entry per task is committed at any instant.
An optional JSON-lines audit file receives one line per store and per commit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .agents import CandidateOutput
from .errors import DuplicateKeyError, UnknownEntryError
from .scoring import ScoreBreakdown

EntryKey = tuple[str, str, int]


@dataclass
class MemoryEntry:
    key: EntryKey
    output: CandidateOutput
    version: int
    committed: bool = False
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

    def to_audit_dict(self) -> dict:
        """Serialize with the exact audit-log field names."""
        return {
            "task_id": self.task_id,
            "agent_id": self.agent_id,
            "attempt": self.attempt,
            "version": self.version,
            "committed": self.committed,
            "emitted_facts": sorted(self.output.emitted_facts),
            "declared_confidence": self.output.declared_confidence,
            "score": self.score.to_dict() if self.score is not None else None,
        }


class MemoryView:
    """Read handle agents receive at execute time."""

    def __init__(self, entries: list[MemoryEntry]):
        self._entries = entries

    def committed_facts(self) -> frozenset[str]:
        """Union of emitted facts across the entries committed when the view was taken."""
        facts: set[str] = set()
        for entry in self._entries:
            facts |= entry.output.emitted_facts
        return frozenset(facts)


class SharedMemory:
    """Versioned, append-only store of every candidate output.

    Versions are dense (the n-th stored entry has version n) and `_by_key` is in version order.
    `_committed` maps each task to its winner, in commit order.
    """

    def __init__(self, audit_path: str | Path | None = None) -> None:
        self._by_key: dict[EntryKey, MemoryEntry] = {}
        self._committed: dict[str, MemoryEntry] = {}
        self._audit_path = Path(audit_path) if audit_path is not None else None
        if self._audit_path is not None:
            self._audit_path.write_text("", encoding="utf-8")

    def store(self, key: EntryKey, output: CandidateOutput) -> int:
        """Store a candidate under a fresh version; keys are never overwritten."""
        if key in self._by_key:
            raise DuplicateKeyError(f"memory key {key!r} already stored")
        entry = MemoryEntry(key=key, output=output, version=len(self._by_key) + 1)
        self._by_key[key] = entry
        self._write_audit(entry)
        return entry.version

    def candidates(self, task_id: str) -> list[MemoryEntry]:
        """All entries for a task, committed or not, in version order."""
        return [entry for entry in self._by_key.values() if entry.task_id == task_id]

    def commit(self, task_id: str, key: EntryKey) -> MemoryEntry:
        """Mark one entry as the task's committed output, demoting any previous winner."""
        entry = self._by_key.get(key)
        if entry is None or entry.task_id != task_id:
            raise UnknownEntryError(f"no entry {key!r} for task {task_id!r}")
        previous = self._committed.pop(task_id, None)
        if previous is not None:
            previous.committed = False
        entry.committed = True
        self._committed[task_id] = entry
        self._write_audit(entry)
        return entry

    def committed_entry(self, task_id: str) -> MemoryEntry | None:
        return self._committed.get(task_id)

    def committed_entries(self) -> list[MemoryEntry]:
        """Every currently committed entry, in commit order (a re-commit moves a task last)."""
        return list(self._committed.values())

    def entry(self, key: EntryKey) -> MemoryEntry:
        entry = self._by_key.get(key)
        if entry is None:
            raise UnknownEntryError(f"no entry {key!r}")
        return entry

    def has_version(self, version: int) -> bool:
        return 1 <= version <= len(self._by_key)

    def view(self) -> MemoryView:
        return MemoryView(self.committed_entries())

    def empty_view(self) -> MemoryView:
        return MemoryView([])

    def __len__(self) -> int:
        return len(self._by_key)

    def _write_audit(self, entry: MemoryEntry) -> None:
        if self._audit_path is None:
            return
        with self._audit_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry.to_audit_dict(), sort_keys=True) + "\n")
