"""Ordered event trail of a run, serializable as JSON lines.

Every observable action (dispatch, store, commit, feedback, reassign,
terminate) lands here with its virtual timestamp; metrics are computed from
this trail alone, and byte-identical logs are the reproducibility contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

EVENT_KINDS = ("dispatch", "store", "commit", "feedback", "reassign", "terminate")

# The encoder `json.dumps(obj, sort_keys=True)` builds on every call, built once.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


class RunEvent(NamedTuple):
    virtual_time: float
    kind: str
    payload: dict

    def to_dict(self) -> dict:
        return {"virtual_time": self.virtual_time, "kind": self.kind, "payload": self.payload}


@dataclass
class RunLog:
    events: list[RunEvent] = field(default_factory=list)

    def append(self, kind: str, virtual_time: float, payload: dict) -> RunEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if self.events and virtual_time < self.events[-1].virtual_time:
            raise ValueError("virtual_time must be nondecreasing")
        event = RunEvent(virtual_time, kind, payload)
        self.events.append(event)
        return event

    def by_kind(self, kind: str) -> list[RunEvent]:
        return [e for e in self.events if e.kind == kind]

    def to_jsonl(self) -> str:
        """One `json.dumps(event.to_dict(), sort_keys=True)` line per event."""
        lines = [_ENCODE(e.to_dict()) for e in self.events]
        lines.append("")
        return "\n".join(lines)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, text: str) -> RunLog:
        log = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            doc = json.loads(line)
            log.append(doc["kind"], doc["virtual_time"], doc["payload"])
        return log
