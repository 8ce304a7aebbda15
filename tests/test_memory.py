"""Shared memory: versioning, audit guarantees, single-winner commits."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskweave import CandidateOutput, DuplicateKeyError, SharedMemory, UnknownEntryError


def output(task="t1", agent="a", attempt=0, facts=(), conf=0.5, at=0.0):
    return CandidateOutput(
        task_id=task,
        agent_id=agent,
        attempt=attempt,
        content=f"{task}/{agent}/{attempt}",
        emitted_facts=frozenset(facts),
        declared_confidence=conf,
        produced_at=at,
    )


def test_first_store_gets_version_one():
    memory = SharedMemory()
    assert memory.store(output()) == 1


def test_versions_increase_in_store_order():
    memory = SharedMemory()
    v1 = memory.store(output(agent="a"))
    v2 = memory.store(output(agent="b"))
    assert (v1, v2) == (1, 2)


def test_restore_same_key_raises():
    memory = SharedMemory()
    memory.store(output())
    with pytest.raises(DuplicateKeyError):
        memory.store(output())


def test_candidates_unknown_task_is_empty():
    assert SharedMemory().candidates("ghost") == []


def test_candidates_preserve_store_order():
    memory = SharedMemory()
    for agent in ("c", "a", "b"):
        memory.store(output(agent=agent))
    assert [e.agent_id for e in memory.candidates("t1")] == ["c", "a", "b"]


def test_losing_candidates_survive_commit():
    memory = SharedMemory()
    keys = [("t1", agent, 0) for agent in ("a", "b", "c")]
    for key in keys:
        memory.store(output(agent=key[1]))
    memory.commit("t1", keys[1])
    entries = memory.candidates("t1")
    assert len(entries) == 3
    assert [e.committed for e in entries] == [False, True, False]


def test_recommit_demotes_previous_winner():
    memory = SharedMemory()
    memory.store(output(agent="a"))
    memory.store(output(agent="a", attempt=1))
    memory.commit("t1", ("t1", "a", 0))
    memory.commit("t1", ("t1", "a", 1))
    committed = [e for e in memory.candidates("t1") if e.committed]
    assert len(committed) == 1
    assert committed[0].attempt == 1


def test_commit_unknown_key_raises():
    memory = SharedMemory()
    with pytest.raises(UnknownEntryError):
        memory.commit("t1", ("t1", "a", 0))


def test_commit_key_for_wrong_task_raises():
    memory = SharedMemory()
    memory.store(output())
    with pytest.raises(UnknownEntryError):
        memory.commit("t2", ("t1", "a", 0))


def test_has_version_covers_exactly_the_stored_versions():
    memory = SharedMemory()
    assert not memory.has_version(1)
    for attempt in range(3):
        memory.store(output(attempt=attempt))
    assert [v for v in range(-1, 6) if memory.has_version(v)] == [1, 2, 3]


def test_append_only_under_random_interleaving():
    rng = random.Random(13)
    memory = SharedMemory()
    stored = []
    for step in range(200):
        task = f"t{rng.randrange(5)}"
        key = (task, f"a{rng.randrange(4)}", step)
        memory.store(output(task=key[0], agent=key[1], attempt=step))
        stored.append(key)
        if rng.random() < 0.3:
            commit_key = rng.choice(stored)
            memory.commit(commit_key[0], commit_key)
        # single-winner invariant at every observable instant
        for task_id in {k[0] for k in stored}:
            assert sum(e.committed for e in memory.candidates(task_id)) <= 1
    assert len(memory) == 200
    # version order equals store-call order
    versions = [memory.entry(k).version for k in stored]
    assert versions == sorted(versions)


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 2**16)), max_size=60))
def test_winner_map_matches_a_scan_of_entry_flags_and_the_commit_log(ops):
    memory = SharedMemory()
    stored: list = []  # keys in store order, so in version order
    commit_log: list[str] = []  # the task of every commit call
    for is_commit, task_n, pick in ops:
        if is_commit and stored:
            key = stored[pick % len(stored)]
            memory.commit(key[0], key)
            commit_log.append(key[0])
        else:
            key = (f"t{task_n}", "a", len(stored))
            memory.store(output(task=key[0], attempt=key[2], facts={f"f{pick % 5}"}))
            stored.append(key)

        entries = [memory.entry(k) for k in stored]
        for task_id in sorted({k[0] for k in stored} | {"ghost"}):
            scan = [e.key for e in entries if e.task_id == task_id]
            assert [e.key for e in memory.candidates(task_id)] == scan
            winners = [e for e in entries if e.task_id == task_id and e.committed]
            assert len(winners) <= 1
            assert memory.committed_entry(task_id) is (winners[0] if winners else None)
        # a task's place in commit order is that of its latest commit
        last_commit = {task_id: i for i, task_id in enumerate(commit_log)}
        flagged = sorted((e for e in entries if e.committed), key=lambda e: last_commit[e.task_id])
        assert [e.key for e in memory.committed_entries()] == [e.key for e in flagged]
        facts = frozenset().union(*(e.output.emitted_facts for e in flagged))
        assert memory.view().committed_facts() == facts


STEP = st.tuples(st.booleans(), st.integers(0, 3), st.sets(st.sampled_from("abcde"), max_size=3), st.integers(0, 2**16))


@given(st.lists(STEP, max_size=60))
def test_a_held_view_reads_the_union_of_the_current_winners(ops):
    memory = SharedMemory()
    view = memory.view()  # taken once, held across commits and demotions
    stored: list = []
    for is_commit, task_n, facts, pick in ops:
        if is_commit and stored:
            key = stored[pick % len(stored)]
            memory.commit(key[0], key)
        else:
            key = (f"t{task_n}", "a", len(stored))
            memory.store(output(task=key[0], attempt=key[2], facts=facts))
            stored.append(key)
        winners = [memory.entry(k) for k in stored if memory.entry(k).committed]
        assert view.committed_facts() == frozenset().union(*(e.output.emitted_facts for e in winners))
    assert memory.empty_view().committed_facts() == frozenset()


def test_audit_log_write_through(tmp_path):
    audit = tmp_path / "memory.jsonl"
    memory = SharedMemory(audit_path=audit)
    key = ("t1", "a", 0)
    memory.store(output(facts={"f2", "f1"}, conf=0.9))
    memory.commit("t1", key)

    lines = [json.loads(line) for line in audit.read_text().splitlines()]
    assert len(lines) == 2
    store_line, commit_line = lines
    assert store_line == {
        "task_id": "t1",
        "agent_id": "a",
        "attempt": 0,
        "version": 1,
        "committed": False,
        "emitted_facts": ["f1", "f2"],
        "declared_confidence": 0.9,
        "score": None,
    }
    assert commit_line["committed"] is True
    assert commit_line["version"] == 1
