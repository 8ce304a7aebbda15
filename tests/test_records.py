"""The run records and behavior rows: immutable tuples whose dict forms, and the log's JSON lines, keep their bytes."""

from __future__ import annotations

import functools
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskweave import BehaviorRow, CandidateOutput, Orchestrator, RunEvent, RunLog
from taskweave import runlog
from taskweave.orchestrator import DocumentSection
from taskweave.runlog import EVENT_KINDS, dumps_payload
from taskweave.scenario import load_scenario
from taskweave.scoring import ScoreBreakdown

from conftest import CANONICAL_SCENARIOS
from test_golden_digests import load_perfbench_run

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


# -- the per-kind templates, against json.dumps --------------------------------------

HOT_KINDS = EVENT_KINDS  # every kind has a template for the payloads of the run's shape

TEXT = (
    st.sampled_from(["", "naïve – ✓", "“quoted”", '"', "\\", "\x00\x1f\x7f\n", "\ud800", "a\udfffb"])
    | st.text(st.characters(exclude_categories=()), max_size=6)  # lone surrogates included
)
INTS = st.sampled_from([0, -1, 10**30, -(10**30)]) | st.integers()
FLOATS = (
    st.sampled_from([1e-7, 1e16, -0.0, 0.1 + 0.2, 1e300, 5e-324])
    | st.floats(allow_nan=False, allow_infinity=False)
)
# What may stand where the run puts a string, an int, a float, a bool or a list.
OFF_TYPE = st.sampled_from([True, False, None, 0, 1, 1.0, 10**30, "1", math.nan, math.inf, -math.inf, [], {}])
SCORE_NAMES = ("coherence", "factuality", "relevance", "composite")
SCORE = st.fixed_dictionaries({name: FLOATS for name in SCORE_NAMES})
PAYLOADS = {  # the payloads the run writes, and store payloads it never writes: committed true, or a score
    "dispatch": st.fixed_dictionaries(
        {"task_id": TEXT, "agent_id": TEXT, "attempt": INTS, "mode": TEXT, "wave": INTS}
    ),
    "store": st.fixed_dictionaries(
        {"task_id": TEXT, "agent_id": TEXT, "attempt": INTS, "version": INTS, "committed": st.booleans(),
         "emitted_facts": st.lists(TEXT, max_size=3), "declared_confidence": FLOATS,
         "score": st.none() | SCORE}
    ),
    "commit": st.fixed_dictionaries(
        {"task_id": TEXT, "agent_id": TEXT, "attempt": INTS, "version": INTS, "score": SCORE}
    ),
    "feedback": st.fixed_dictionaries(
        {"id": TEXT, "from": TEXT, "target": TEXT, "task_id": TEXT, "referenced_version": INTS, "kind": TEXT,
         "severity": FLOATS, "note": TEXT}
    ),
    "reassign": st.fixed_dictionaries(
        {"task_id": TEXT, "agent_id": TEXT, "attempt": INTS, "reason": TEXT, "stale": st.lists(TEXT, max_size=3)}
    ),
    "terminate": st.fixed_dictionaries({"reason": TEXT, "waves": INTS, "dispatches": INTS}),
}
CHANGES = [None, None, None, "value", "time", "score value", "score key", "facts", "extra key", "missing key",
           "renamed key"]


@st.composite
def hot_events(draw):
    """An event of the run's shape, of any kind, or one with a value, type or key off."""
    kind = draw(st.sampled_from(HOT_KINDS))
    payload = draw(PAYLOADS[kind])
    virtual_time = draw(FLOATS)
    score = payload.get("score")
    change = draw(st.sampled_from(CHANGES))
    if change == "value":
        payload[draw(st.sampled_from(sorted(payload)))] = draw(OFF_TYPE)
    elif change == "time":
        virtual_time = draw(OFF_TYPE)
    elif change == "score value" and score is not None:
        score[draw(st.sampled_from(SCORE_NAMES))] = draw(OFF_TYPE)
    elif change == "score key" and score is not None:
        if draw(st.booleans()):
            score["extra"] = 0.5
        else:
            del score[draw(st.sampled_from(SCORE_NAMES))]
    elif change == "facts" and kind in ("store", "reassign"):
        key = "emitted_facts" if kind == "store" else "stale"
        facts = payload[key]
        payload[key] = draw(st.sampled_from([tuple(facts), set(facts), [*facts, 1], [*facts, None]]))
    elif change == "extra key":
        payload[draw(TEXT | st.just(1))] = draw(INTS)
    elif change in ("missing key", "renamed key"):
        value = payload.pop(draw(st.sampled_from(sorted(payload))))
        if change == "renamed key":
            payload[draw(TEXT)] = value
    return virtual_time, kind, payload


def outcome(encode, *args):
    """What `encode(*args)` returns, or the type of the exception it raises."""
    try:
        return encode(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


DUMPS = functools.partial(json.dumps, sort_keys=True)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hot_events())
def test_each_hot_event_encodes_as_json_dumps(event):
    virtual_time, kind, payload = event
    log = RunLog()
    if isinstance(virtual_time, (int, float)) and math.isfinite(virtual_time):
        log.append(kind, virtual_time, payload)
    else:  # NaN and ±inf are refused, and a time that is no number does not compare
        with pytest.raises(ValueError if isinstance(virtual_time, float) else TypeError):
            log.append(kind, virtual_time, payload)
        # a log built from its events is not checked, and still encodes as json does
        log = RunLog(events=[RunEvent(virtual_time, kind, payload)])
    expected = outcome(DUMPS, log.events[0].to_dict())
    assert outcome(log.to_jsonl) == (expected + "\n" if isinstance(expected, str) else expected)
    assert outcome(dumps_payload, kind, payload) == outcome(DUMPS, payload)


def test_awkward_values_in_the_run_shape_take_the_templates(monkeypatch):
    payloads = {
        "dispatch": {"task_id": "t\u00e9", "agent_id": 'a"1', "attempt": 10**30, "mode": "parallel", "wave": 0},
        "store": {"task_id": "t\x00", "agent_id": "a1", "attempt": 0, "version": 1, "committed": False,
                  "emitted_facts": ["\ud800", "f\\2", "✓"], "declared_confidence": 1e-7, "score": None},
        "commit": {"task_id": "t1", "agent_id": "a1", "attempt": 0, "version": 1,
                   "score": {"coherence": -0.0, "factuality": 1e16, "relevance": 0.1 + 0.2, "composite": 0.5}},
        "feedback": {"id": "fb-\u2713", "from": "evaluator", "target": "a\x7f", "task_id": "t1",
                     "referenced_version": 10**30, "kind": "revision_request", "severity": 5e-324,
                     "note": 'fact "f1" \udfff'},
        "reassign": {"task_id": "t1", "agent_id": "a\n", "attempt": -1, "reason": "quality_gate",
                     "stale": ["t\u00e9", ""]},
        "terminate": {"reason": "completed", "waves": 0, "dispatches": 10**30},
    }
    expected = {kind: DUMPS(payload) for kind, payload in payloads.items()}
    monkeypatch.setattr(runlog, "_ENCODE", None)  # the fallback is not reached
    assert {kind: dumps_payload(kind, payload) for kind, payload in payloads.items()} == expected


def bundled_and_bench_runs(tmp_path):
    """(scenario, config) of the bundled scenarios and the bench shapes at 30 tasks, under every variant."""
    bench = load_perfbench_run()
    paths = list(CANONICAL_SCENARIOS)
    for name, shape in bench.SHAPES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(bench.synth.dumps(bench.synth.generate(shape.scaled(30), 1)), encoding="utf-8")
        paths.append(path)
    for path in paths:
        scenario = load_scenario(path)
        for variant in bench.VARIANTS:
            yield scenario, bench.make_item(path, scenario, variant).config


def test_no_hot_event_of_the_bundled_or_bench_runs_takes_the_fallback(monkeypatch, tmp_path):
    fallback = []
    encode = runlog._ENCODE
    monkeypatch.setattr(runlog, "_ENCODE", lambda obj: fallback.append(obj) or encode(obj))
    runs, kinds = 0, set()
    for scenario, config in bundled_and_bench_runs(tmp_path):
        log = Orchestrator(scenario, config).run().log
        text = log.to_jsonl()
        assert fallback == []  # every event of every run is hot
        assert text == per_event_lines(log)
        kinds.update(e.kind for e in log.events)
        runs += 1
    assert runs == 6 * 5
    assert kinds == set(HOT_KINDS)


# -- the per-kind event lists, against a scan of the log -----------------------------------

APPENDS = st.lists(
    st.tuples(
        st.sampled_from([*EVENT_KINDS, "bogus"]),
        st.integers(0, 3).map(float),  # times repeat and step back
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    ),
    max_size=30,
)


@given(APPENDS)
def test_by_kind_is_the_log_filtered_by_kind_after_every_append(appends):
    log = RunLog()
    for kind, virtual_time, payload in appends:
        try:
            log.append(kind, virtual_time, payload)
        except ValueError:  # an unknown kind or a time going backwards
            pass
        for k in (*EVENT_KINDS, "bogus"):
            assert log.by_kind(k) == [e for e in log.events if e.kind == k]
    rebuilt = RunLog(events=list(log.events))
    for k in EVENT_KINDS:
        assert rebuilt.by_kind(k) == log.by_kind(k)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("earlier", [[], [0.0], [5.0, 5.0]])
def test_append_refuses_a_time_that_is_not_finite(bad, earlier):
    log = RunLog()
    for virtual_time in earlier:
        log.append("dispatch", virtual_time, {})
    with pytest.raises(ValueError, match="finite and nondecreasing"):
        log.append("store", bad, {})
    assert [e.virtual_time for e in log.events] == earlier
    log.append("commit", 6.0, {})  # a NaN let through would have let any time follow
    with pytest.raises(ValueError, match="nondecreasing"):
        log.append("commit", 1.0, {})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("position", [0, 2])
def test_from_jsonl_refuses_a_line_whose_time_is_not_finite(token, position):
    lines = [f'{{"kind": "dispatch", "payload": {{}}, "virtual_time": {t}}}' for t in ("0.0", "1.0", "2.0")]
    assert len(RunLog.from_jsonl("\n".join(lines)).events) == 3
    lines[position] = lines[position].replace(f"{position}.0", token)
    with pytest.raises(ValueError, match=f"non-finite number {re.escape(token)}"):
        RunLog.from_jsonl("\n".join(lines))


@pytest.mark.parametrize("token", ["true", '"1"'])
def test_from_jsonl_refuses_a_line_whose_time_is_no_number(token):
    # `append` takes True as a time, since -inf < True < inf; a string it compares with a TypeError
    line = f'{{"kind": "dispatch", "payload": {{}}, "virtual_time": {token}}}'
    with pytest.raises(ValueError, match=f"virtual_time must be a number, got {re.escape(repr(json.loads(token)))}"):
        RunLog.from_jsonl(line)


def test_from_jsonl_reads_an_int_time():
    (event,) = RunLog.from_jsonl('{"kind": "dispatch", "payload": {}, "virtual_time": 0}').events
    assert (type(event.virtual_time), event.virtual_time) == (int, 0)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_from_jsonl_refuses_a_commit_whose_score_is_not_finite(token):
    # `to_jsonl` would write such a number back as a token that is not JSON
    score = {"coherence": 0.5, "composite": 0.5, "factuality": 0.5, "relevance": 0.5}
    payload = {"agent_id": "a", "attempt": 0, "score": score, "task_id": "t1", "version": 1}
    line = json.dumps({"kind": "commit", "payload": payload, "virtual_time": 0.0}, sort_keys=True)
    assert RunLog.from_jsonl(line).events[0].payload == payload
    with pytest.raises(ValueError, match=f"non-finite number {re.escape(token)}"):
        RunLog.from_jsonl(line.replace('"factuality": 0.5', f'"factuality": {token}'))


@pytest.mark.parametrize("path", CANONICAL_SCENARIOS, ids=lambda p: p.stem)
def test_a_written_log_of_a_bundled_run_reads_back_equal(path, tmp_path):
    log = Orchestrator(load_scenario(path)).run().log
    log.write(tmp_path / "run.jsonl")
    assert RunLog.from_jsonl((tmp_path / "run.jsonl").read_text(encoding="utf-8")) == log


# -- the log written in blocks, against to_jsonl ----------------------------------------------

B = runlog._BLOCK
SCORE_OF_RUN = {"coherence": 0.5, "composite": 0.55, "factuality": 0.25, "relevance": 1.0}


def run_shaped_log(size: int, fallback_at=()) -> RunLog:
    """`size` dispatch, store and commit events of the run's shape, each encoded by its template,
    but a feedback event, which `json` encodes, at each index in `fallback_at`."""
    log = RunLog()
    for i in range(size):
        kind = "feedback" if i in fallback_at else HOT_KINDS[i % 3]
        head = {"task_id": f"t{i // 3}", "agent_id": "a1", "attempt": 0}
        log.append(kind, float(i // 3), {
            "dispatch": {**head, "mode": "single", "wave": i // 3},
            "store": {**head, "version": i // 3 + 1, "committed": False, "emitted_facts": [f"f{i}", "f0"],
                      "declared_confidence": 0.8, "score": None},
            "commit": {**head, "version": i // 3 + 1, "score": SCORE_OF_RUN},
            "feedback": {"task_id": f"t{i // 3}", "note": "a critique ✓", "severity": 0.5},
        }[kind])
    return log


@pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("fallback_at", [(), (B // 2,), (B - 1, B)], ids=["templates", "fallback inside", "fallback at edge"])
def test_write_writes_the_bytes_of_to_jsonl(tmp_path, size, fallback_at):
    log = run_shaped_log(size, fallback_at)
    log.write(tmp_path / "run.jsonl")
    assert (tmp_path / "run.jsonl").read_bytes() == log.to_jsonl().encode("utf-8")


@given(st.integers(0, 40), st.lists(st.integers(0, 45), max_size=4))
def test_to_jsonl_of_consecutive_ranges_concatenates_to_the_whole(size, cuts):
    log = run_shaped_log(size, fallback_at=(size // 2,))
    bounds = [0, *sorted(cuts), None]
    assert "".join(log.to_jsonl(start, stop) for start, stop in zip(bounds, bounds[1:])) == log.to_jsonl()


def test_writing_a_log_holds_one_block_of_it_not_the_whole(tmp_path):
    log = run_shaped_log(12_000, fallback_at=range(0, 12_000, 50))
    path = tmp_path / "run.jsonl"
    tracemalloc.start()
    try:
        log.write(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == log.to_jsonl().encode("utf-8")
    assert peak < path.stat().st_size / 4


def test_a_payload_json_cannot_encode_raises_from_write_after_the_blocks_before_it(tmp_path):
    """Only a log built by hand holds such a payload. Its block raises after the blocks before it
    are written and before the file is cut to length, so the old bytes after them stay."""
    log = run_shaped_log(B + 1)
    log.append("feedback", log.events[-1].virtual_time, {"note": object()})
    path = tmp_path / "run.jsonl"
    old = b"~" * (len(log.to_jsonl(0, B + 1).encode("utf-8")) + 100)
    path.write_bytes(old)
    with pytest.raises(TypeError, match="not JSON serializable"):
        log.write(path)
    first = log.to_jsonl(0, B).encode("utf-8")
    assert path.read_bytes() == first + old[len(first):]


def test_the_list_by_kind_returns_is_the_callers_own():
    log = RunLog()
    log.append("dispatch", 0.0, {"task_id": "t1"})
    log.append("store", 1.0, {"task_id": "t1"})
    mine = log.by_kind("dispatch")
    mine.append(mine[0])
    mine.clear()
    assert log.by_kind("dispatch") == [log.events[0]] and len(log.events) == 2
    log.append("dispatch", 2.0, {"task_id": "t2"})
    assert mine == []
