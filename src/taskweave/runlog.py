"""Ordered event trail of a run, serializable as JSON lines.

Every observable action (dispatch, store, commit, feedback, reassign,
terminate) lands here with its virtual timestamp; metrics are computed from
this trail alone, and byte-identical logs are the reproducibility contract.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from math import isfinite
from pathlib import Path
from typing import NamedTuple

from ._files import write_blocks
from ._record import Record
from .errors import UnknownEntryError

EVENT_KINDS = ("dispatch", "store", "commit", "feedback", "reassign", "terminate")
_INF = float("inf")
_new_tuple = tuple.__new__
_BLOCK = 256  # events `write` encodes at a time: its memory is one block's, not the whole log's

# The encoder `json.dumps(obj, sort_keys=True)` builds on every call, built once.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


class RunEvent(NamedTuple):
    virtual_time: float
    kind: str
    payload: dict

    def to_dict(self) -> dict:
        return {"virtual_time": self.virtual_time, "kind": self.kind, "payload": self.payload}


# Templates for the payloads that make up nearly all of a log, writing the bytes
# `_ENCODE` writes with what `json` itself uses: `_str` and the int and float
# reprs. A payload fits if it is a dict with exactly the template's key count
# and keys (else KeyError) and values of exactly the written types (else
# TypeError): ints that are not bools, finite floats, a list of strings, and a
# store's `committed` false and `score` null, as the run writes them.
_KEY_COUNTS = {"dispatch": 5, "store": 8, "commit": 5}


def _num(v: object, kind: type) -> str:
    """`repr(v)` if `v` is exactly a `kind` (so a bool is no int) and finite."""
    if type(v) is not kind or kind is float and not isfinite(v):
        raise TypeError
    return repr(v)


def _score(s: object) -> str:
    if type(s) is not dict or len(s) != 4:
        raise TypeError
    return (
        f'{{"coherence": {_num(s["coherence"], float)}, "composite": {_num(s["composite"], float)}, '
        f'"factuality": {_num(s["factuality"], float)}, "relevance": {_num(s["relevance"], float)}}}'
    )


def _finite(token: str) -> float:
    """A JSON float, or the `NaN` and `Infinity` tokens `json` reads, if finite."""
    if not isfinite(value := float(token)):
        raise ValueError(f"non-finite number {token} in a run log")
    return value


def dumps_payload(kind: str, p: dict) -> str:
    """`json.dumps(p, sort_keys=True)`."""
    if type(p) is dict and len(p) == _KEY_COUNTS.get(kind):
        try:
            head = f'{{"agent_id": {_str(p["agent_id"])}, "attempt": {_num(p["attempt"], int)}, '
            if kind == "dispatch":
                mode, task_id, wave = _str(p["mode"]), _str(p["task_id"]), _num(p["wave"], int)
                return f'{head}"mode": {mode}, "task_id": {task_id}, "wave": {wave}}}'
            tail = f'"task_id": {_str(p["task_id"])}, "version": {_num(p["version"], int)}}}'
            if kind == "commit":
                return f'{head}"score": {_score(p["score"])}, {tail}'
            facts = p["emitted_facts"]
            if p["committed"] is False and p["score"] is None and type(facts) is list:
                return (
                    f'{head}"committed": false, "declared_confidence": {_num(p["declared_confidence"], float)}, '
                    f'"emitted_facts": [{", ".join(map(_str, facts))}], "score": null, {tail}'
                )
        except (KeyError, TypeError):
            pass
    return _ENCODE(p)


class RunLog(Record):
    _fields = ("events",)
    __slots__ = ("events", "_kinds")  # `_kinds`: the events by kind, in order

    def __init__(self, events: list[RunEvent] | None = None) -> None:
        self.events = [] if events is None else events
        self._kinds = {kind: [e for e in self.events if e.kind == kind] for kind in EVENT_KINDS}

    def append(self, kind: str, virtual_time: float, payload: dict) -> RunEvent:
        same_kind = self._kinds.get(kind)
        if same_kind is None:
            raise ValueError(f"unknown event kind {kind!r}")
        events = self.events
        # a NaN fails every comparison
        if not (events[-1].virtual_time <= virtual_time < _INF if events else -_INF < virtual_time < _INF):
            raise ValueError(f"virtual_time must be finite and nondecreasing, got {virtual_time!r}")
        event = _new_tuple(RunEvent, (virtual_time, kind, payload))
        events.append(event)
        same_kind.append(event)
        return event

    def by_kind(self, kind: str) -> list[RunEvent]:
        """A new list of the events of one kind, in log order."""
        return list(self._kinds.get(kind, ()))

    def committed_store(self, commit: dict) -> dict:
        """The payload of the store event a commit payload names by version.

        Store versions are dense and in log order, so it is the `version`-th store
        event; UnknownEntryError unless its task, agent and attempt match the commit.
        """
        stores, version = self._kinds["store"], commit["version"]
        store = stores[version - 1].payload if type(version) is int and 0 < version <= len(stores) else {}
        key = (commit["task_id"], commit["agent_id"], commit["attempt"])
        if (store.get("task_id"), store.get("agent_id"), store.get("attempt")) != key:
            raise UnknownEntryError(
                f"commit of task {key[0]!r} names version {version!r}, but no matching store event has it"
            )
        return store

    def to_jsonl(self, start: int = 0, stop: int | None = None) -> str:
        """One `json.dumps(event.to_dict(), sort_keys=True)` line per event of `events[start:stop]`."""
        lines = [
            f'{{"kind": {_str(kind)}, "payload": {dumps_payload(kind, p)}, "virtual_time": {t!r}}}'
            if type(t) is float and isfinite(t)
            else _ENCODE({"virtual_time": t, "kind": kind, "payload": p})
            for t, kind, p in self.events[start:stop]
        ]
        lines.append("")
        return "\n".join(lines)

    def write(self, path: str | Path) -> None:
        """Write `to_jsonl()` to `path`, encoding `_BLOCK` events at a time. A payload `json` cannot
        encode, which only a log built by hand holds, raises after the blocks before it are
        written, so old bytes can stay after them, as after a killed write."""
        write_blocks(path, (self.to_jsonl(i, i + _BLOCK) for i in range(0, len(self.events), _BLOCK)))

    @classmethod
    def from_jsonl(cls, text: str) -> RunLog:
        log = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            doc = json.loads(line, parse_constant=_finite, parse_float=_finite)
            log.append(doc["kind"], doc["virtual_time"], doc["payload"])
        return log
