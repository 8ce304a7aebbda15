"""Metamorphic relations of a run: two related inputs, and how their run logs must relate.

Each relation checks documented semantics without an oracle for either run.
"""

from __future__ import annotations

import copy
import functools
import json
import random

import pytest

from taskweave import RunConfig, orchestrate
from taskweave.scenario import scenario_from_dict

from conftest import CANONICAL_SCENARIOS
from test_golden_digests import VARIANTS, load_perfbench_run


ORDER_SHAPES = ("deep_dag", "fanout_revise")


@functools.cache
def order_documents() -> dict[str, dict]:
    """The bundled scenario files and two bench shapes at 120 tasks, as parsed documents."""
    bench = load_perfbench_run()
    docs = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in CANONICAL_SCENARIOS}
    return docs | {name: bench.synth.generate(bench.SHAPES[name].scaled(120), 1) for name in ORDER_SHAPES}


def run_config(scenario, variant: str) -> RunConfig:
    return RunConfig().with_overrides(scenario.defaults).with_overrides(VARIANTS[variant][1])


def run_log(doc: dict, variant: str) -> str:
    scenario = scenario_from_dict(doc)
    return orchestrate(scenario, run_config(scenario, variant)).log.to_jsonl()


def rows(doc: dict):
    return [row for agent in doc["agents"] for row in agent.get("behavior", [])]


# Each relation runs on every document of `order_documents` under each of these variants.
each_variant = pytest.mark.parametrize("variant", ["full", "no_parallel", "static", "no_feedback"])
each_document = pytest.mark.parametrize("name", [*(path.stem for path in CANONICAL_SCENARIOS), *ORDER_SHAPES])


@each_variant
@each_document
def test_document_order_changes_no_log_byte(name, variant):
    # Tasks, agents and behavior rows in any order run to the same log. Contradiction
    # pairs keep their order: review reads them in it.
    doc = order_documents()[name]
    expected = run_log(doc, variant)
    for seed in range(3):
        rng, shuffled = random.Random(seed), copy.deepcopy(doc)
        rng.shuffle(shuffled["tasks"])
        rng.shuffle(shuffled["agents"])
        for agent in shuffled["agents"]:
            rng.shuffle(agent.get("behavior", []))
        assert run_log(shuffled, variant) == expected, seed


@each_variant
@each_document
def test_doubling_every_latency_doubles_every_time_and_changes_no_payload(name, variant):
    # Scaling by two is exact in binary floating point, so every sum of latencies doubles exactly
    # and every ordering and tie among completion times is kept.
    doc = order_documents()[name]
    expected = [json.loads(line) for line in run_log(doc, variant).splitlines()]
    doubled = copy.deepcopy(doc)
    for row in rows(doubled):
        row["latency"] = 2 * row.get("latency", 1)
    for event in expected:
        event["virtual_time"] *= 2
    assert [json.loads(line) for line in run_log(doubled, variant).splitlines()] == expected


@each_variant
@each_document
def test_an_order_preserving_renaming_of_task_and_agent_ids_renames_the_log(name, variant):
    doc = order_documents()[name]
    tasks = {task["id"]: f"job_{i:04d}" for i, task in enumerate(sorted(doc["tasks"], key=lambda t: t["id"]))}
    agents = {agent["id"]: f"worker_{i:03d}" for i, agent in enumerate(sorted(doc["agents"], key=lambda a: a["id"]))}
    renamed = copy.deepcopy(doc)
    for task in renamed["tasks"]:
        task["id"] = tasks[task["id"]]
        task["depends_on"] = [tasks[dep] for dep in task.get("depends_on", [])]
    for agent in renamed["agents"]:
        agent["id"] = agents[agent["id"]]
        for row in agent.get("behavior", []):
            row["task_id"] = tasks[row["task_id"]]
    renamed["gold_answers"] = {tasks[t]: fact for t, fact in doc.get("gold_answers", {}).items()}
    renamed["static_assignments"] = {tasks[t]: agents[a] for t, a in doc.get("static_assignments", {}).items()}

    expected = []
    for line in run_log(doc, variant).splitlines():
        event = json.loads(line)
        payload = event["payload"]
        for key, names in (("task_id", tasks), ("agent_id", agents), ("target", agents)):
            if key in payload:
                payload[key] = names[payload[key]]
        if "stale" in payload:
            payload["stale"] = [tasks[t] for t in payload["stale"]]
        expected.append(json.dumps(event, sort_keys=True))
    assert run_log(renamed, variant).splitlines() == expected


@each_variant
@each_document
def test_rows_past_the_revision_budget_and_a_pair_of_facts_no_row_emits_change_no_byte(name, variant):
    doc = order_documents()[name]
    budget = run_config(scenario_from_dict(doc), variant).revision_budget
    expected = run_log(doc, variant)
    padded = copy.deepcopy(doc)
    for agent in padded["agents"]:
        behavior = agent.get("behavior", [])
        # a run's attempts go from 0 to the budget, so a row at attempt + budget + 1 is never read
        behavior += [
            {**row, "attempt": row["attempt"] + budget + 1, "content": "unread", "emitted_facts": ["unread_fact"],
             "latency": 0.5}
            for row in behavior
        ]
    padded["contradiction_pairs"] = [*doc.get("contradiction_pairs", []), ["never_emitted_a", "never_emitted_b"]]
    emitted = {
        fact for row in rows(padded)
        for fact in [*row.get("emitted_facts", []), *(c["emit"] for c in row.get("contingent_facts", []))]
    }
    assert emitted.isdisjoint({"never_emitted_a", "never_emitted_b"})
    assert run_log(padded, variant) == expected


@each_variant
@each_document
def test_swapping_the_facts_of_every_contradiction_pair_changes_only_feedback_notes(name, variant):
    # Review treats the two facts of a pair alike; only a critique's note names them, in the pair's order.
    doc = order_documents()[name]
    pairs = doc.get("contradiction_pairs", [])
    swapped = {**doc, "contradiction_pairs": [[b, a] for a, b in pairs]}
    note = "contradictory facts {!r} / {!r} across committed outputs".format
    renote = {note(a, b): note(b, a) for a, b in pairs}
    expected = [json.loads(line) for line in run_log(doc, variant).splitlines()]
    for event in expected:
        if event["kind"] == "feedback":
            event["payload"]["note"] = renote.get(event["payload"]["note"], event["payload"]["note"])
    assert [json.loads(line) for line in run_log(swapped, variant).splitlines()] == expected
