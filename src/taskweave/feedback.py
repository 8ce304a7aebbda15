"""Ordered in-process message channel for structured critiques.

Messages are immutable revision requests that reference a concrete stored
output version. The bus hands back everything pending at once, grouped by
target agent, in publish order within each target.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DanglingReferenceError
from .memory import SharedMemory

DEFAULT_SEVERITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class FeedbackMessage:
    id: str
    sender: str
    target: str
    task_id: str
    referenced_version: int
    severity: float
    note: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("severity must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "from": self.sender,
            "target": self.target,
            "task_id": self.task_id,
            "referenced_version": self.referenced_version,
            "kind": "revision_request",
            "severity": self.severity,
            "note": self.note,
        }


class FeedbackBus:
    """Pending messages over shared memory references."""

    def __init__(self, memory: SharedMemory):
        self._memory = memory
        self._pending: list[FeedbackMessage] = []

    def publish(self, msg: FeedbackMessage) -> None:
        """Enqueue a message; its referenced version must exist in memory."""
        if not self._memory.has_version(msg.referenced_version):
            raise DanglingReferenceError(
                f"feedback {msg.id!r} references unknown memory version"
                f" {msg.referenced_version}"
            )
        self._pending.append(msg)

    def drain(self) -> list[FeedbackMessage]:
        """Remove and return every pending message, by target, publish order within one."""
        if not self._pending:
            return []
        drained = sorted(self._pending, key=lambda msg: msg.target)
        self._pending.clear()
        return drained
