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


# Templates for the payloads of the shapes the run writes, writing the bytes
# `_ENCODE` writes with what `json` itself uses: `_str` and the int and float
# reprs. A payload fits if it is a dict with exactly the template's key count
# and keys (else KeyError) and values of exactly the written types: strings
# (else TypeError), ints that are not bools, finite floats, lists of strings,
# and a store's `committed` false and `score` null. Any other goes to `_ENCODE`.
_KEY_COUNTS = {"dispatch": 5, "store": 8, "commit": 5, "feedback": 8, "reassign": 5, "terminate": 3}
EVENT_KINDS = tuple(_KEY_COUNTS)  # the kinds a log holds


def _finite(token: str) -> float:
    """A JSON float, or the `NaN` and `Infinity` tokens `json` reads, if finite."""
    if not isfinite(value := float(token)):
        raise ValueError(f"non-finite number {token} in a run log")
    return value


def dumps_payload(kind: str, p: dict) -> str:
    """`json.dumps(p, sort_keys=True)`."""
    if type(p) is not dict or len(p) != _KEY_COUNTS.get(kind):
        return _ENCODE(p)
    try:
        if kind == "dispatch":
            attempt, wave = p["attempt"], p["wave"]
            if type(attempt) is type(wave) is int:
                return (
                    f'{{"agent_id": {_str(p["agent_id"])}, "attempt": {attempt!r}, "mode": {_str(p["mode"])}, '
                    f'"task_id": {_str(p["task_id"])}, "wave": {wave!r}}}'
                )
        elif kind == "store":
            attempt, version, facts, confidence = p["attempt"], p["version"], p["emitted_facts"], p["declared_confidence"]
            if (
                type(attempt) is type(version) is int and type(confidence) is float and isfinite(confidence)
                and type(facts) is list and p["committed"] is False and p["score"] is None
            ):
                return (
                    f'{{"agent_id": {_str(p["agent_id"])}, "attempt": {attempt!r}, "committed": false, '
                    f'"declared_confidence": {confidence!r}, "emitted_facts": [{", ".join(map(_str, facts))}], '
                    f'"score": null, "task_id": {_str(p["task_id"])}, "version": {version!r}}}'
                )
        elif kind == "commit":
            attempt, version, s = p["attempt"], p["version"], p["score"]
            if type(attempt) is type(version) is int and type(s) is dict and len(s) == 4:
                c, m, f, r = s["coherence"], s["composite"], s["factuality"], s["relevance"]
                if (
                    type(c) is type(m) is type(f) is type(r) is float
                    and isfinite(c) and isfinite(m) and isfinite(f) and isfinite(r)
                ):
                    return (
                        f'{{"agent_id": {_str(p["agent_id"])}, "attempt": {attempt!r}, "score": {{"coherence": {c!r}, '
                        f'"composite": {m!r}, "factuality": {f!r}, "relevance": {r!r}}}, '
                        f'"task_id": {_str(p["task_id"])}, "version": {version!r}}}'
                    )
        elif kind == "feedback":
            version, severity = p["referenced_version"], p["severity"]
            if type(version) is int and type(severity) is float and isfinite(severity):
                return (
                    f'{{"from": {_str(p["from"])}, "id": {_str(p["id"])}, "kind": {_str(p["kind"])}, '
                    f'"note": {_str(p["note"])}, "referenced_version": {version!r}, "severity": {severity!r}, '
                    f'"target": {_str(p["target"])}, "task_id": {_str(p["task_id"])}}}'
                )
        elif kind == "reassign":
            attempt, stale = p["attempt"], p["stale"]
            if type(attempt) is int and type(stale) is list:
                return (
                    f'{{"agent_id": {_str(p["agent_id"])}, "attempt": {attempt!r}, "reason": {_str(p["reason"])}, '
                    f'"stale": [{", ".join(map(_str, stale))}], "task_id": {_str(p["task_id"])}}}'
                )
        else:
            dispatches, waves = p["dispatches"], p["waves"]
            if type(dispatches) is type(waves) is int:
                return f'{{"dispatches": {dispatches!r}, "reason": {_str(p["reason"])}, "waves": {waves!r}}}'
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
            virtual_time = doc["virtual_time"]
            if type(virtual_time) not in (float, int):  # a `true` would pass `append`
                raise ValueError(f"virtual_time must be a number, got {virtual_time!r} in a run log")
            log.append(doc["kind"], virtual_time, doc["payload"])
        return log
