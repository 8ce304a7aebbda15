"""The run records and behavior rows: immutable tuples whose dict forms, and the log's JSON lines, keep their bytes."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskweave import BehaviorRow, CandidateOutput, RunEvent, RunLog
from taskweave.orchestrator import DocumentSection
from taskweave.scoring import ScoreBreakdown

RECORDS = [
    RunEvent(1.5, "store", {"task_id": "t1", "emitted_facts": ["f1"]}),
    CandidateOutput("t1", "a1", 0, "text", frozenset({"f1"}), 0.8, 2.0),
    ScoreBreakdown(0.5, 0.25, 1.0, 0.55),
    DocumentSection("t1", "text", frozenset({"f1"})),
    BehaviorRow("text", frozenset({"f1"}), 0.8, 2.0, (0.5, 0.25, 1.0), (("f1", "f2"),)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_reject_attribute_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_dict_forms_are_unchanged():
    event = RunEvent(virtual_time=1.5, kind="store", payload={"task_id": "t1"})
    assert event.to_dict() == {"virtual_time": 1.5, "kind": "store", "payload": {"task_id": "t1"}}
    assert list(event.to_dict()) == ["virtual_time", "kind", "payload"]
    score = ScoreBreakdown(coherence=0.5, factuality=0.25, relevance=1.0, composite=0.55)
    assert score.to_dict() == {"coherence": 0.5, "factuality": 0.25, "relevance": 1.0, "composite": 0.55}
    assert list(score.to_dict()) == ["coherence", "factuality", "relevance", "composite"]
    output = CandidateOutput("t1", "a1", 2, "text", frozenset(), 0.8, 2.0)
    assert output.key == ("t1", "a1", 2)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def per_event_lines(log: RunLog) -> str:
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in log.events)


@given(
    st.lists(
        st.tuples(
            st.floats(0, 1e6, allow_nan=False),
            st.sampled_from(["dispatch", "store", "commit", "feedback", "reassign", "terminate"]),
            st.dictionaries(st.text(max_size=8), json_values, max_size=4),
        ),
        max_size=5,
    )
)
def test_to_jsonl_matches_per_event_dumps(events):
    log = RunLog()
    for virtual_time, kind, payload in sorted(events, key=lambda e: e[0]):
        log.append(kind, virtual_time, payload)
    assert log.to_jsonl() == per_event_lines(log)


def test_to_jsonl_matches_per_event_dumps_on_awkward_values():
    log = RunLog()
    log.append("feedback", 1e-05, {"note": "naïve – “quoted” ✓ \u0000", "severity": 1e-05})
    log.append("store", 2.0, {"score": {"z": {"b": [1.0, -0.0, 1e300]}, "a": None}, "emitted_facts": []})
    log.append("terminate", 2.0, {"reason": "completed", "big": 10**30})
    assert log.to_jsonl() == per_event_lines(log)
    assert RunLog().to_jsonl() == ""
