"""Shared memory: versioning, audit guarantees, single-winner commits."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskweave import CandidateOutput, DuplicateKeyError, RunLog, SharedMemory, UnknownEntryError
from taskweave.scoring import ScoreBreakdown


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
    winner = memory.committed_entry("t1")
    assert [e.key for e in entries] == keys
    assert winner.key == keys[1]
    assert [e.key for e in entries if e is not winner] == [keys[0], keys[2]]


def test_recommit_demotes_previous_winner():
    memory = SharedMemory()
    memory.store(output(agent="a"))
    memory.store(output(agent="a", attempt=1))
    memory.commit("t1", ("t1", "a", 0))
    memory.commit("t1", ("t1", "a", 1))
    old, new = memory.entry(("t1", "a", 0)), memory.entry(("t1", "a", 1))
    assert memory.candidates("t1") == [old, new]
    assert memory.committed_entry("t1") is new
    assert memory.commits_since(1) == [(new, old)]


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
        # each task's winner, at every observable instant, is none or one of its stored candidates
        for task_id in {k[0] for k in stored}:
            winner = memory.committed_entry(task_id)
            assert winner is None or any(e is winner for e in memory.candidates(task_id))
    assert len(memory) == 200
    # version order equals store-call order
    versions = [memory.entry(k).version for k in stored]
    assert versions == sorted(versions)


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 2**16)), max_size=60))
def test_winner_map_matches_the_commit_log(ops):
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

        # replay the commit log: each commit demotes the task's last winner and moves it last
        commits = memory.commits_since(0)
        assert [entry.task_id for entry, _ in commits] == commit_log
        winners: dict = {}
        for entry, demoted in commits:
            assert winners.pop(entry.task_id, None) is demoted
            winners[entry.task_id] = entry
        entries = [memory.entry(k) for k in stored]
        for task_id in sorted({k[0] for k in stored} | {"ghost"}):
            scan = [e.key for e in entries if e.task_id == task_id]
            assert [e.key for e in memory.candidates(task_id)] == scan
            assert memory.committed_entry(task_id) is winners.get(task_id)
        assert memory.committed_entries() == list(winners.values())
        facts = frozenset().union(*(e.output.emitted_facts for e in winners.values()))
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
        winners = [memory.committed_entry(task_id) for task_id in {k[0] for k in stored}]
        winners = [winner for winner in winners if winner is not None]
        assert view.committed_facts() == frozenset().union(*(e.output.emitted_facts for e in winners))
    assert memory.empty_view().committed_facts() == frozenset()


def store_event(log, key, facts=(), conf=0.5, at=0.0, version=1):
    """Append the `store` event the run appends for a fresh entry; return its payload."""
    task_id, agent_id, attempt = key
    payload = {
        "task_id": task_id,
        "agent_id": agent_id,
        "attempt": attempt,
        "version": version,
        "committed": False,
        "emitted_facts": sorted(facts),
        "declared_confidence": conf,
        "score": None,
    }
    log.append("store", at, payload)
    return payload


def commit_event(log, store, score):
    """Append the `commit` event the run appends for the entry of a store payload; return its payload."""
    payload = {k: store[k] for k in ("task_id", "agent_id", "attempt", "version")} | {"score": score}
    log.append("commit", log.events[-1].virtual_time, payload)
    return payload


def test_a_commit_replays_to_the_store_event_it_names():
    # an entry's history in the log: its store line, then each commit naming that store by version
    log = RunLog()
    store = store_event(log, ("t1", "a", 0), facts={"f2", "f1"}, conf=0.9)
    score = {"coherence": 0.5, "composite": 0.5, "factuality": 0.5, "relevance": 0.5}
    commit = commit_event(log, store, score)

    assert store == {
        "task_id": "t1",
        "agent_id": "a",
        "attempt": 0,
        "version": 1,
        "committed": False,
        "emitted_facts": ["f1", "f2"],
        "declared_confidence": 0.9,
        "score": None,
    }
    assert commit == {"task_id": "t1", "agent_id": "a", "attempt": 0, "version": 1, "score": score}
    assert log.committed_store(commit) is store
    read = RunLog.from_jsonl(log.to_jsonl())
    assert read.committed_store(read.by_kind("commit")[0].payload) == store


SCORES = st.none() | st.builds(ScoreBreakdown, *[st.sampled_from([0.5, 1.0, -0.0, 1e-7, 1, True, math.nan, None])] * 4)
ODD = st.sampled_from(["a", 0, 1, 0.5, 1e16, True, None, math.inf, "\ud800"])


@settings(max_examples=300, deadline=None)
@given(ODD, ODD, st.sets(st.sampled_from(["f1", "f\"2", "\u00e9"]), max_size=3), ODD, SCORES)
def test_a_written_log_replays_each_commit_to_the_store_payload_at_that_moment(agent, attempt, facts, conf, score):
    """Store and commit an entry whose values may be off the types the templates write; the log
    written and read back holds the store payload as it was at its store, and its commit names it.
    A log holding NaN or inf does not read back."""
    log = RunLog()
    store = store_event(log, ("t1", agent, attempt), facts=facts, conf=conf)
    score = None if score is None else score.to_dict()
    commit = commit_event(log, store, score)
    try:
        json.dumps([store, commit], allow_nan=False)
    except ValueError:  # a log holding NaN or inf is written, but does not read back
        with pytest.raises(ValueError, match="non-finite number"):
            RunLog.from_jsonl(log.to_jsonl())
        return
    read = RunLog.from_jsonl(log.to_jsonl())
    # the JSON text tells a bool from the int it equals
    assert [json.dumps(e.payload, sort_keys=True) for e in read.events] == [
        json.dumps(store, sort_keys=True),
        json.dumps(commit, sort_keys=True),
    ]
    assert json.dumps(read.committed_store(read.by_kind("commit")[0].payload), sort_keys=True) == json.dumps(
        store, sort_keys=True
    )
