"""Feedback bus ordering, reference validation, and severity range."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskweave import (
    CandidateOutput,
    DanglingReferenceError,
    FeedbackBus,
    FeedbackMessage,
    SharedMemory,
)


def seeded_memory(n_versions: int = 3) -> SharedMemory:
    memory = SharedMemory()
    for i in range(n_versions):
        memory.store(
            CandidateOutput(
                task_id="t1",
                agent_id=f"a{i}",
                attempt=0,
                content="x",
                emitted_facts=frozenset(),
                declared_confidence=0.5,
                produced_at=0.0,
            ),
        )
    return memory


def message(
    msg_id="m1",
    target="a0",
    version=1,
    severity=0.8,
):
    return FeedbackMessage(
        id=msg_id,
        sender="evaluator",
        target=target,
        task_id="t1",
        referenced_version=version,
        severity=severity,
    )


def test_publish_then_drain_returns_same_message():
    bus = FeedbackBus(seeded_memory())
    msg = message()
    bus.publish(msg)
    assert bus.drain() == [msg]
    assert bus.drain() == []


def test_per_target_fifo():
    bus = FeedbackBus(seeded_memory())
    m1, m2 = message("m1"), message("m2")
    bus.publish(m1)
    bus.publish(m2)
    assert bus.drain() == [m1, m2]


def test_dangling_reference_rejected():
    bus = FeedbackBus(seeded_memory(1))
    with pytest.raises(DanglingReferenceError):
        bus.publish(message(version=99))


@given(
    st.lists(
        st.tuples(st.sampled_from(["a0", "a1", "a2"]), st.floats(0, 1)),
        max_size=40,
    )
)
def test_fifo_per_target_under_any_publish_interleaving(items):
    memory = seeded_memory()
    bus = FeedbackBus(memory)
    published: dict[str, list[str]] = {"a0": [], "a1": [], "a2": []}
    for i, (target, severity) in enumerate(items):
        msg = message(f"m{i}", target=target, severity=severity)
        bus.publish(msg)
        published[target].append(msg.id)
    # no message lost between publish and drain; grouped by target, order preserved per target
    expected_ids = [msg_id for target in sorted(published) for msg_id in published[target]]
    assert [m.id for m in bus.drain()] == expected_ids
    assert bus.drain() == []


def test_severity_out_of_range_rejected():
    with pytest.raises(ValueError):
        message(severity=1.5)
