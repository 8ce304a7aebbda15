"""The record classes: plain slotted classes that keep the constructors, equality and
immutability the package's former dataclasses had."""

from __future__ import annotations

import copy
import inspect
import pickle
from datetime import datetime, timezone

import pytest

from taskweave import (
    AgentSpec,
    FeedbackMessage,
    FinalDocument,
    MemoryEntry,
    RunConfig,
    RunEvent,
    RunLog,
    RunReport,
    RunResult,
    Scenario,
    ScoringWeights,
    ScriptedAgent,
    SharedMemory,
    TaskGraph,
    TaskSpec,
)
from taskweave.metrics import TIMESTAMP_FIELD, utc_timestamp
from taskweave.orchestrator import DocumentSection

P, K, REQUIRED = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.empty

# Each constructor's (name, kind, default) as the dataclasses made them. A default of `dict`
# or `list` stands for a `default_factory`: a record built without the argument holds an empty one.
SIGNATURES = {
    TaskSpec: [
        ("id", P, REQUIRED), ("description", P, ""), ("domain_markers", P, frozenset()), ("ambiguity", P, 0.0),
        ("expected_effort", P, 0), ("reference_facts", P, frozenset()), ("depends_on", P, frozenset()),
    ],
    TaskGraph: [("tasks", P, dict)],
    ScriptedAgent: [
        ("id", P, REQUIRED), ("capabilities", P, frozenset()), ("capacity", P, 1),
        ("historical_performance", P, dict), ("behavior", P, dict),
    ],
    AgentSpec: [
        ("id", P, REQUIRED), ("capabilities", P, frozenset()), ("capacity", P, 1),
        ("historical_performance", P, dict), ("behavior", P, dict),
    ],
    Scenario: [
        ("name", P, ""), ("description", P, ""), ("tasks", P, ()), ("agents", P, ()), ("contradiction_pairs", P, ()),
        ("gold_answers", P, dict), ("static_assignments", P, dict), ("defaults", P, dict),
    ],
    ScoringWeights: [("alpha", P, 0.3), ("beta", P, 0.4), ("gamma", P, 0.3)],
    FeedbackMessage: [
        ("id", P, REQUIRED), ("sender", P, REQUIRED), ("target", P, REQUIRED), ("task_id", P, REQUIRED),
        ("referenced_version", P, REQUIRED), ("severity", P, REQUIRED), ("note", P, ""),
    ],
    MemoryEntry: [("key", P, REQUIRED), ("output", P, REQUIRED), ("version", P, REQUIRED), ("score", P, None)],
    RunLog: [("events", P, list)],
    RunReport: [
        (name, P, REQUIRED)
        for name in (
            "factual_coverage", "compliance_accuracy", "redundancy_penalty", "revision_rate",
            "coherence_mean", "relevance_mean", "completion_time", "counts",
        )
    ],
    RunConfig: [
        ("seed", P, 0), ("theta", P, 0.7), ("k", P, 3), ("weights", P, ScoringWeights(0.3, 0.4, 0.3)),
        ("domain_weights", P, dict), ("w1", P, 0.7), ("w2", P, 0.3), ("severity_threshold", P, 0.5),
        ("revision_budget", P, 3), ("fact_threshold", P, 0.6), ("adapt_decrement", P, 0.1), ("scorer", P, "lexical"),
        ("scorer_fallback", P, None), ("static", P, False), ("no_feedback", P, False),
        ("no_memory_sharing", P, False), ("no_parallel", P, False),
    ],
    FinalDocument: [("sections", P, REQUIRED)],
    RunResult: [("log", P, REQUIRED), ("report", P, REQUIRED), ("memory", K, REQUIRED), ("graph", K, REQUIRED)],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_each_constructor_keeps_its_parameters_kinds_and_defaults(cls):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.kind) for p in parameters] == [(name, kind) for name, kind, _ in SIGNATURES[cls]]
    built = None
    for parameter, (name, _, default) in zip(parameters, SIGNATURES[cls]):
        if default in (dict, list):  # a factory: the record holds an empty one of its own
            assert parameter.default is not REQUIRED, name
            built = built or cls(*["a" for _, _, value in SIGNATURES[cls] if value is REQUIRED])  # an id
            assert type(getattr(built, name)) is default and not getattr(built, name), name
        else:  # the type too, so that 0, 0.0 and False differ
            assert (type(parameter.default), parameter.default) == (type(default), default), name


def test_a_mutable_default_is_built_afresh_for_each_record():
    assert RunLog().events is not RunLog().events
    assert TaskGraph().tasks is not TaskGraph().tasks
    first, second = ScriptedAgent("a"), ScriptedAgent("a")
    assert first.historical_performance is not second.historical_performance
    first, second = AgentSpec("a"), AgentSpec("a")
    assert first.historical_performance is not second.historical_performance
    assert first.behavior is not second.behavior
    first, second = Scenario(), Scenario()
    for name in ("gold_answers", "static_assignments", "defaults"):
        assert getattr(first, name) is not getattr(second, name), name


def report(coverage: float = 0.5) -> RunReport:
    return RunReport(coverage, None, 0.0, 0.25, 1.0, 0.75, 3.0, {"tasks": 2})


# (fields of one record, fields that differ from them each) per record class with `==`; each
# mixture of the two is a record that builds
SAMPLES = {
    TaskSpec: (dict(id="t1"), dict(id="t2", description="d", domain_markers=frozenset({"m"}), ambiguity=0.5,
                                   expected_effort=1, reference_facts=frozenset({"f"}), depends_on=frozenset({"t0"}))),
    AgentSpec: (dict(id="a1"), dict(id="a2", capabilities=frozenset({"m"}), capacity=2,
                                    historical_performance={"m": 0.5}, behavior={("t1", 0): None})),
    Scenario: (
        dict(tasks=(TaskSpec("t1"),), agents=(AgentSpec("a1"),)),
        dict(name="n", description="d", tasks=(TaskSpec("t1", "d"),), agents=(AgentSpec("a1", capacity=2),),
             contradiction_pairs=(("f1", "f2"),), gold_answers={"t1": "f1"}, static_assignments={"t1": "a1"},
             defaults={"k": 2}),
    ),
    ScoringWeights: (dict(), dict(alpha=0.3 + 1e-10, beta=0.4 + 1e-10, gamma=0.3 + 1e-10)),
    FeedbackMessage: (
        dict(id="m1", sender="e", target="a1", task_id="t1", referenced_version=1, severity=0.5),
        dict(id="m2", sender="f", target="a2", task_id="t2", referenced_version=2, severity=0.75, note="n"),
    ),
    RunLog: (dict(events=[]), dict(events=[RunEvent(0.0, "terminate", {})])),
    RunReport: (
        dict(zip(RunReport._fields, (0.5, None, 0.0, 0.25, 1.0, 0.75, 3.0, {"tasks": 2}))),
        dict(zip(RunReport._fields, (0.75, 1.0, 0.5, 0.5, 0.5, 0.5, 4.0, {"tasks": 3}))),
    ),
    RunConfig: (
        dict(),
        dict(seed=1, theta=0.5, k=2, weights=ScoringWeights(0.5, 0.25, 0.25), domain_weights={"m": ScoringWeights()},
             w1=0.5, w2=0.5, severity_threshold=0.25, revision_budget=2, fact_threshold=0.5, adapt_decrement=0.2,
             scorer="scripted", scorer_fallback="lexical", static=True, no_feedback=True, no_memory_sharing=True,
             no_parallel=True),
    ),
    FinalDocument: (dict(sections=()), dict(sections=(DocumentSection("t1", "text", frozenset({"f"})),))),
    RunResult: (dict(log=RunLog(), report=report()), dict(log=RunLog([RunEvent(0.0, "terminate", {})]), report=report(1.0))),
}
RUN_PARTS = dict(memory=SharedMemory(), graph=TaskGraph())  # RunResult's keyword-only parts: no fields


def build(cls, fields: dict):
    return cls(**fields, **RUN_PARTS) if cls is RunResult else cls(**fields)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    first, other = SAMPLES[cls]
    record, twin = build(cls, first), build(cls, first)
    assert cls._fields == tuple(name for name, kind, _ in SIGNATURES[cls] if kind is P)
    assert record == twin and not record != twin and record is not twin
    assert record != tuple(getattr(record, name) for name in cls._fields)  # no other type is equal
    for name in cls._fields:
        changed = build(cls, {**first, name: other[name]})
        assert getattr(changed, name) == other[name]
        assert changed != record, name
    values = tuple(getattr(record, name) for name in cls._fields)
    if cls is RunLog:  # mutable, so unhashable
        with pytest.raises(TypeError):
            hash(record)
        return
    try:
        expected = hash(values)
    except TypeError:  # a dict or list field: no hash, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected


def test_a_run_result_compares_its_log_and_report_only():
    fields = SAMPLES[RunResult][0]
    assert RunResult(**fields, **RUN_PARTS) == RunResult(**fields, memory=SharedMemory(), graph=TaskGraph())


FROZEN = [cls for cls in SAMPLES if cls is not RunLog]


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_record_refuses_assignment(cls):
    record = build(cls, SAMPLES[cls][1])
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(getattr(record, name) == SAMPLES[cls][1][name] for name in cls._fields)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_record_can_be_copied_and_pickled(cls):
    record = build(cls, SAMPLES[cls][1])
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls and copied == record
        with pytest.raises(AttributeError):
            setattr(copied, cls._fields[0], None)


def test_scenario_equality_ignores_the_cached_fact_union():
    tasks = (TaskSpec("t1", reference_facts=frozenset({"f1"})),)
    cached, fresh = Scenario(tasks=tasks), Scenario(tasks=tasks)
    assert cached.reference_facts() == frozenset({"f1"})
    assert cached.reference_facts() is cached.reference_facts()  # built once, on the first call
    assert cached == fresh


def test_the_mutable_records_take_no_attribute_beyond_their_own():
    records = [TaskGraph(), ScriptedAgent("a"), MemoryEntry(("t1", "a1", 0), None, 1), RunLog()]
    for record in records:
        with pytest.raises(AttributeError):
            record.extra = 1


@pytest.mark.parametrize(
    "t", [0.0, 1_700_000_000.0, 1_700_000_000.25, 1_234_567_890.123456, 2_000_000_000.9999996, 951_782_400.000001]
)
def test_the_report_timestamp_is_the_isoformat_of_datetime(t):
    assert utc_timestamp(t) == datetime.fromtimestamp(t, timezone.utc).isoformat()


def test_a_report_is_stamped_with_the_time_it_is_written():
    stamp = datetime.fromisoformat(report().to_dict()[TIMESTAMP_FIELD])
    assert stamp.tzinfo == timezone.utc
    assert abs((datetime.now(timezone.utc) - stamp).total_seconds()) < 60
