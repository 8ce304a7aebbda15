"""Scripted agent execution, confidence, and strategy adaptation."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskweave import (
    BehaviorRow,
    MemoryView,
    NoScriptedBehaviorError,
    ScriptedAgent,
    SharedMemory,
    adapt_strategy,
)

from conftest import make_agent, make_row, make_task


@pytest.fixture
def empty_view():
    return MemoryView([])


def test_execute_returns_scripted_row(empty_view):
    agent = make_agent(
        "a", rows={("t1", 0): make_row({"f1", "f2"}, confidence=0.9, latency=2.0)}
    ).build()
    out = agent.execute(make_task("t1"), empty_view, attempt=0, start=10.0)
    assert out.key == ("t1", "a", 0)
    assert out.emitted_facts == frozenset({"f1", "f2"})
    assert out.declared_confidence == 0.9
    assert out.produced_at == 12.0


def test_execute_second_attempt_uses_revision_row(empty_view):
    agent = make_agent(
        "a",
        rows={("t1", 0): make_row({"f1"}), ("t1", 1): make_row({"f1", "f2"})},
    ).build()
    out = agent.execute(make_task("t1"), empty_view, attempt=1, start=0.0)
    assert out.attempt == 1
    assert out.emitted_facts == frozenset({"f1", "f2"})


def test_execute_missing_row_fails_loudly(empty_view):
    agent = make_agent("a", rows={("t1", 0): make_row()}).build()
    with pytest.raises(NoScriptedBehaviorError):
        agent.execute(make_task("t1"), empty_view, attempt=1, start=0.0)


def test_execute_is_pure_replay(empty_view):
    spec = make_agent("a", rows={("t1", 0): make_row({"f1"}, latency=3.0)})
    task = make_task("t1")
    first = spec.build().execute(task, empty_view, 0, 5.0)
    second = spec.build().execute(task, empty_view, 0, 5.0)
    assert first == second


def test_contingent_facts_fire_only_when_visible():
    agent_spec = make_agent(
        "a",
        rows={("t2", 0): make_row({"base"}, contingent=[("up1", "derived")])},
    )
    task = make_task("t2")

    memory = SharedMemory()
    upstream = make_agent("u", rows={("t1", 0): make_row({"up1"})}).build()
    out = upstream.execute(make_task("t1"), memory.empty_view(), 0, 0.0)
    memory.store(out)

    # stored but not committed: trigger not visible
    hidden = agent_spec.build().execute(task, memory.view(), 0, 0.0)
    assert hidden.emitted_facts == frozenset({"base"})

    memory.commit("t1", out.key)
    visible = agent_spec.build().execute(task, memory.view(), 0, 0.0)
    assert visible.emitted_facts == frozenset({"base", "derived"})

    blind = agent_spec.build().execute(task, memory.empty_view(), 0, 0.0)
    assert blind.emitted_facts == frozenset({"base"})


@pytest.mark.parametrize("facts", [{"base"}, ["base"]], ids=["set", "list"])
def test_row_built_from_a_set_or_list_emits_frozensets(facts):
    row = BehaviorRow(content="out", emitted_facts=facts, contingent_facts=(("up1", "derived"),))
    assert row.emitted_facts == frozenset({"base"}) and isinstance(row.emitted_facts, frozenset)
    memory = SharedMemory()
    upstream = make_agent("u", rows={("t1", 0): make_row({"up1"})}).build()
    out = upstream.execute(make_task("t1"), memory.empty_view(), 0, 0.0)
    memory.store(out)
    memory.commit("t1", out.key)
    agent = make_agent("a", rows={("t2", 0): row}).build()
    blind = agent.execute(make_task("t2"), memory.empty_view(), 0, 0.0)
    fired = agent.execute(make_task("t2"), memory.view(), 0, 0.0)
    assert isinstance(blind.emitted_facts, frozenset) and blind.emitted_facts == {"base"}
    assert isinstance(fired.emitted_facts, frozenset) and fired.emitted_facts == {"base", "derived"}


def test_declared_confidence_reads_first_attempt_row():
    agent = make_agent("a", rows={("t1", 0): make_row(confidence=0.9)}).build()
    assert agent.declared_confidence(make_task("t1")) == 0.9


def test_declared_confidence_defaults_to_zero_without_row():
    agent = make_agent("a").build()
    assert agent.declared_confidence(make_task("t1")) == 0.0


def test_out_of_range_confidence_rejected_at_row_construction():
    with pytest.raises(ValueError):
        make_row(confidence=1.2)


def test_adapt_strategy_decrements_marker_performance():
    profile = make_agent("a", perf={"legal": 0.8}).build()
    adapt_strategy(profile, frozenset({"legal"}))
    expected = 0.8 - 0.1
    assert profile.historical_performance["legal"] == pytest.approx(expected)


def test_adapt_strategy_clamps_at_zero():
    profile = make_agent("a", perf={"legal": 0.05}).build()
    adapt_strategy(profile, frozenset({"legal"}))
    assert profile.historical_performance["legal"] == 0.0


def test_adapt_strategy_decrements_every_marker():
    profile = make_agent("a", perf={"legal": 0.8, "numeric": 0.6}).build()
    adapt_strategy(profile, frozenset({"legal", "numeric"}))
    assert profile.historical_performance["legal"] == pytest.approx(0.7)
    assert profile.historical_performance["numeric"] == pytest.approx(0.5)


def test_adapt_strategy_unseen_marker_starts_from_default():
    profile = make_agent("a").build()
    adapt_strategy(profile, frozenset({"new"}))
    assert profile.historical_performance["new"] == pytest.approx(0.4)


def test_adapt_strategy_custom_decrement():
    profile = make_agent("a", perf={"legal": 0.8}).build()
    adapt_strategy(profile, frozenset({"legal"}), decrement=0.25)
    assert profile.historical_performance["legal"] == pytest.approx(0.55)


def test_profile_clamps_out_of_range_history():
    profile = make_agent("a", perf={"legal": 1.7, "numeric": -0.2}).build()
    assert profile.historical_performance == {"legal": 1.0, "numeric": 0.0}


def test_profile_leaves_the_callers_history_alone():
    history = {"legal": 1.7, "numeric": 0.6}
    profile = ScriptedAgent("a", historical_performance=history)
    assert history == {"legal": 1.7, "numeric": 0.6}
    adapt_strategy(profile, frozenset({"legal", "numeric"}))
    assert history == {"legal": 1.7, "numeric": 0.6}
    assert profile.historical_performance == pytest.approx({"legal": 0.9, "numeric": 0.5})

    spec = make_agent("a", perf={"legal": 0.8})
    adapt_strategy(spec.build(), frozenset({"legal"}))
    assert spec.historical_performance == {"legal": 0.8}
    assert spec.build().historical_performance == {"legal": 0.8}


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceRow:
    """The row as a checked dataclass: the oracle for every way to build a BehaviorRow."""

    content: str
    emitted_facts: frozenset[str] = frozenset()
    declared_confidence: float = 0.5
    latency: float = 1.0
    annotated_scores: tuple[float, float, float] | None = None
    contingent_facts: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.emitted_facts, frozenset):
            object.__setattr__(self, "emitted_facts", frozenset(self.emitted_facts))
        if not 0.0 <= self.declared_confidence <= 1.0:
            raise ValueError("declared_confidence must be in [0, 1]")
        if not 0.0 <= self.latency < float("inf"):
            raise ValueError(f"latency must be finite and nonnegative, got {self.latency}")
        if self.annotated_scores is not None:
            for component in self.annotated_scores:
                if not 0.0 <= component <= 1.0:
                    raise ValueError("annotated score components must be in [0, 1]")


def verdict(build):
    """The row's fields, or the error it raised."""
    try:
        row = build()
    except ValueError as exc:
        return ("rejected", str(exc))
    assert type(row.emitted_facts) is frozenset
    return tuple(getattr(row, name) for name in FIELDS)


FIELDS = tuple(f.name for f in dataclasses.fields(ReferenceRow))

numbers = st.floats() | st.integers(-2, 3) | st.sampled_from([0.0, 1.0, -0.0, math.inf, -math.inf, math.nan])
facts = st.lists(st.text(max_size=3), max_size=3)
row_fields = st.fixed_dictionaries(
    {
        "content": st.text(max_size=5),
        "emitted_facts": facts | facts.map(set) | facts.map(frozenset) | facts.map(tuple),
        "declared_confidence": numbers,
        "latency": numbers,
        "annotated_scores": st.none() | st.tuples(numbers, numbers, numbers),
        "contingent_facts": st.lists(st.tuples(st.text(max_size=3), st.text(max_size=3)), max_size=2).map(tuple),
    }
)


@given(row_fields)
def test_every_way_to_build_a_row_checks_it_as_the_dataclass_did(values):
    expected = verdict(lambda: ReferenceRow(**values))
    assert verdict(lambda: BehaviorRow(**values)) == expected
    in_order = [values[name] for name in FIELDS]
    assert verdict(lambda: BehaviorRow(*in_order)) == expected
    assert verdict(lambda: BehaviorRow._make(in_order)) == expected
    assert verdict(lambda: BehaviorRow("valid")._replace(**values)) == expected
