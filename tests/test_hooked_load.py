"""`load_scenario` builds rows, tasks and agents as the JSON decoder closes them.

Held against `scenario_from_dict(json.loads(text))`, the plain parse and build it
replaces on a valid file and falls back to on any fault: a file loads to the same
scenario, with the same types, and an invalid file fails with the same error.
"""

from __future__ import annotations

import copy
import json
import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings

from taskweave import RunConfig, ScenarioParseError, ScenarioValidationError, orchestrate
from taskweave import scenario as scenario_module
from taskweave.agents import BehaviorRow
from taskweave.graph import TaskSpec
from taskweave.scenario import AgentSpec, load_scenario, scenario_from_dict

from conftest import CANONICAL_SCENARIOS
from test_golden_digests import load_perfbench_run
from test_scenario import MINIMAL
from test_scenario_builder import (
    POOLED, RICH, BENCH_SHAPES, bench_document, check_one_object_per_value, mutated_documents, single_faults,
    two_fault_documents, typed, valid_documents,
)

HYPOTHESIS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def outcome(build):
    """A build's scenario, exact types and all, or the path and message of its error."""
    try:
        return typed(build())
    except ScenarioValidationError as exc:
        return (exc.path, exc.message)


def loaded(file, text: str):
    file.write_text(text, encoding="utf-8")
    return outcome(lambda: load_scenario(file))


def parsed(text: str):
    return outcome(lambda: scenario_from_dict(json.loads(text)))


def check_same(file, doc) -> None:
    text = json.dumps(doc, indent=2)
    assert loaded(file, text) == parsed(text)
    assert scenario_module._POOL == {}


@pytest.mark.parametrize(
    "text",
    [path.read_text(encoding="utf-8") for path in CANONICAL_SCENARIOS]
    + [json.dumps(bench_document(shape), indent=2) for shape in BENCH_SHAPES]
    + [json.dumps(MINIMAL), json.dumps(RICH)],
    ids=[*(path.stem for path in CANONICAL_SCENARIOS), *BENCH_SHAPES, "minimal", "rich"],
)
def test_a_file_loads_to_the_scenario_its_plain_parse_builds(tmp_path, text):
    result = loaded(tmp_path / "s.json", text)
    assert result[0] == "Scenario" and result == parsed(text)


@HYPOTHESIS
@given(valid_documents())
def test_valid_documents_load_to_the_scenario_their_plain_parse_builds(tmp_path, doc):
    check_same(tmp_path / "s.json", doc)


@HYPOTHESIS
@given(mutated_documents())
def test_a_single_fault_fails_a_load_as_it_fails_the_plain_parse(tmp_path, doc):
    check_same(tmp_path / "s.json", doc)


@HYPOTHESIS
@given(two_fault_documents())
def test_two_faults_fail_a_load_as_they_fail_the_plain_parse(tmp_path, doc):
    check_same(tmp_path / "s.json", doc)


@pytest.mark.parametrize("base", [MINIMAL, RICH], ids=["minimal", "rich"])
def test_every_single_fault_fails_a_load_as_it_fails_the_plain_parse(tmp_path, base):
    for doc in single_faults(base):
        check_same(tmp_path / "s.json", doc)


def planted(edit) -> str:
    doc = copy.deepcopy(RICH)
    edit(doc)
    return json.dumps(doc, indent=2)


ROW, TASK = RICH["agents"][0]["behavior"][1], RICH["tasks"][0]
# Faults where a built row or task would sit, each with the path and message the
# plain parse and build have always given
PLANTED = {
    "row-under-defaults": (
        planted(lambda doc: doc.__setitem__("defaults", dict(ROW))),
        ("$.defaults", "Additional properties are not allowed ('attempt', 'content', 'task_id' were unexpected)"),
    ),
    "duplicate-row": (
        planted(lambda doc: doc["agents"][0]["behavior"].append(dict(ROW))),
        ("$.agents[0].behavior[2]", "duplicate behavior row for task 't2' attempt 1"),
    ),
    "row-as-task": (
        planted(lambda doc: doc["tasks"].append(dict(ROW))),
        ("$.tasks[2]", "'id' is a required property"),
    ),
    "task-in-behavior": (
        planted(lambda doc: doc["agents"][0]["behavior"].append(dict(TASK))),
        ("$.agents[0].behavior[2]", "'task_id' is a required property"),
    ),
    "nan-latency": (
        planted(lambda doc: doc["agents"][0]["behavior"][1].__setitem__("latency", math.nan)),
        ("$.agents[0].behavior[1]", "latency must be finite and nonnegative, got nan"),
    ),
    "extra-key": (
        planted(lambda doc: doc["agents"][0]["behavior"][1].__setitem__("surprise", 1)),
        ("$.agents[0].behavior[1]", "Additional properties are not allowed ('surprise' was unexpected)"),
    ),
    "negative-effort": (
        planted(lambda doc: doc["tasks"][0].__setitem__("expected_effort", -1)),
        ("$.tasks[0].expected_effort", "-1 is less than the minimum of 0"),
    ),
}


@pytest.mark.parametrize("fault", list(PLANTED))
def test_planted_faults_give_the_plain_parses_error(tmp_path, fault):
    text, verdict = PLANTED[fault]
    assert loaded(tmp_path / "s.json", text) == parsed(text) == verdict
    assert scenario_module._POOL == {}


def test_a_byte_order_mark_is_reported_as_the_json_module_words_it(tmp_path):
    file = tmp_path / "bom.json"
    file.write_text("\ufeff" + json.dumps(RICH), encoding="utf-8")
    with pytest.raises(ScenarioParseError) as exc:
        load_scenario(file)
    message = "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    assert str(exc.value) == f"{file} is not valid JSON: {message}"


@pytest.mark.parametrize(
    "location,value,verdict",
    [
        (("tasks", 0), TaskSpec("t1"), "$.tasks[0]"),
        (("agents", 0, "behavior", 0), (("t1", 0), BehaviorRow("one")), "$.agents[0].behavior[0]"),
        (("agents", 0), AgentSpec("a1"), "$.agents[0]"),
    ],
    ids=["task-spec", "row-pair", "agent-spec"],
)
def test_the_library_build_refuses_built_items_in_a_document(location, value, verdict):
    doc = copy.deepcopy(RICH)
    parent = doc
    for key in location[:-1]:
        parent = parent[key]
    parent[location[-1]] = value
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(doc)
    assert (exc.value.path, exc.value.message) == (verdict, f"{value!r} is not of type 'object'")


def test_a_load_holds_one_object_per_distinct_name_and_fact_set(tmp_path):
    doc = copy.deepcopy(POOLED)
    for task in doc["tasks"]:
        task["expected_effort"] = 1  # so that the decoder builds each task
    file = tmp_path / "pooled.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    check_one_object_per_value(load_scenario(file))
    assert scenario_module._POOL == {}


def test_the_load_peak_is_the_text_and_little_more_than_the_scenario(tmp_path):
    # the decoder frees each row's dict as it builds the row, and each row's pair as it builds
    # its agent; the plain parse and build peaked at 1.75 times the scenario beside the text
    bench = load_perfbench_run()
    file = tmp_path / "deep_dag.json"
    doc = bench.synth.generate(bench.SHAPES["deep_dag"].scaled(2000), 1)
    file.write_text(bench.synth.dumps(doc), encoding="utf-8")
    del doc
    size = file.stat().st_size
    tracemalloc.start()
    try:
        scenario = load_scenario(file)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scenario.tasks) == 2000
    assert peak <= size + 1.35 * kept, (peak - size) / kept


def test_a_run_leaves_every_behavior_table_as_it_was():
    # a run's agents share their specs' tables, so nothing may write one
    scenario = load_scenario(CANONICAL_SCENARIOS[0])
    before = [dict(spec.behavior) for spec in scenario.agents]
    agents = scenario.build_agents()
    assert all(agents[spec.id].behavior is spec.behavior for spec in scenario.agents)
    for config in (RunConfig(), RunConfig(static=True), RunConfig(no_feedback=True)):
        orchestrate(scenario, config)
    assert [spec.behavior for spec in scenario.agents] == before
