"""Scenario loading, validation paths, and round-trip serialization."""

from __future__ import annotations

import gc
import json
import tracemalloc
from types import SimpleNamespace

import pytest

from taskweave import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    dump_scenario,
    load_scenario,
)
from taskweave._schema import _compile
from taskweave.scenario import scenario_from_dict

from conftest import CANONICAL_SCENARIOS, make_agent, make_row, make_scenario, make_task
from test_golden_digests import load_perfbench_run

MINIMAL = {
    "schema_version": 1,
    "tasks": [{"id": "t1", "reference_facts": ["f1"]}],
    "agents": [
        {
            "id": "a1",
            "behavior": [
                {
                    "task_id": "t1",
                    "attempt": 0,
                    "content": "answer",
                    "emitted_facts": ["f1"],
                    "declared_confidence": 0.9,
                    "latency": 1,
                }
            ],
        }
    ],
}


def write(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_minimal_scenario_loads(tmp_path):
    scenario = load_scenario(write(tmp_path, MINIMAL))
    assert [t.id for t in scenario.tasks] == ["t1"]
    assert scenario.agents[0].behavior[("t1", 0)].declared_confidence == 0.9


def test_missing_file_is_parse_error():
    with pytest.raises(ScenarioParseError):
        load_scenario("/nonexistent/path.json")


def test_invalid_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "node",
    [
        {"type": "string", "pattern": "^a"},
        {"type": "number", "exclusiveMaximum": 1},
        {"type": "string", "enum": ["a"]},
        {"type": "object", "properties": {"a": {"type": "string"}}},
        {"$ref": "#/$defs/weights", "type": "object"},
    ],
    ids=["pattern", "exclusiveMaximum", "enum-beside-type", "open-object", "ref-beside-type"],
)
def test_compiling_a_rule_the_loader_does_not_implement_raises(node):
    with pytest.raises(ValueError, match="unsupported"):
        _compile(node)


def mutated(**changes):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(changes)
    return doc


def test_behavior_row_for_unknown_task_rejected(tmp_path):
    doc = mutated()
    doc["agents"][0]["behavior"][0]["task_id"] = "ghost"
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(write(tmp_path, doc))
    assert "ghost" in str(exc.value)
    assert "behavior" in exc.value.path


def test_confidence_out_of_range_rejected(tmp_path):
    doc = mutated()
    doc["agents"][0]["behavior"][0]["declared_confidence"] = 1.2
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(write(tmp_path, doc))
    assert "declared_confidence" in exc.value.path


def test_ambiguity_out_of_range_rejected(tmp_path):
    doc = mutated()
    doc["tasks"][0]["ambiguity"] = 1.5
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))


def test_duplicate_task_ids_rejected(tmp_path):
    doc = mutated()
    doc["tasks"].append({"id": "t1"})
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(write(tmp_path, doc))
    assert "duplicate" in str(exc.value)


def test_unknown_dependency_rejected(tmp_path):
    doc = mutated()
    doc["tasks"][0]["depends_on"] = ["ghost"]
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))


def test_dependency_cycle_rejected(tmp_path):
    doc = mutated()
    doc["tasks"] = [
        {"id": "t1", "depends_on": ["t2"]},
        {"id": "t2", "depends_on": ["t1"]},
    ]
    doc["agents"][0]["behavior"] = []
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(write(tmp_path, doc))
    assert "cycle" in str(exc.value)


def test_duplicate_behavior_row_rejected(tmp_path):
    doc = mutated()
    doc["agents"][0]["behavior"].append(dict(doc["agents"][0]["behavior"][0]))
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))


def test_static_assignment_references_checked(tmp_path):
    doc = mutated(static_assignments={"t1": "ghost"})
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))
    doc = mutated(static_assignments={"ghost": "a1"})
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))


def test_gold_answer_references_checked(tmp_path):
    doc = mutated(gold_answers={"ghost": "f1"})
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))


def built_in_code():
    return make_scenario(
        [make_task("t1", reference=["f1"])], [make_agent("a1", rows={("t1", 0): make_row(facts=["f1"])})]
    )


@pytest.mark.parametrize(
    "changes, path, message",
    [
        ({"static_assignments": {"t1": "ghost"}}, "$.static_assignments", "unknown agent id 'ghost'"),
        ({"agents": built_in_code().agents * 2}, "$.agents[1].id", "duplicate agent id 'a1'"),
        ({"gold_answers": {"ghost": "f1"}}, "$.gold_answers", "unknown task id 'ghost'"),
        ({"contradiction_pairs": (("f1", "f1"),)}, "$.contradiction_pairs[0]", "pair names fact 'f1' twice"),
        (
            {"agents": (make_agent("a1", rows={("ghost", 0): make_row()}),)},
            "$.agents[0].behavior",
            "behavior row references unknown task 'ghost'",
        ),
    ],
    ids=["static-to-unknown-agent", "duplicate-agent", "gold-for-unknown-task", "pair-of-one-fact", "row-for-unknown-task"],
)
def test_a_scenario_built_in_code_is_checked_as_a_loaded_one(changes, path, message):
    fields = {**{name: getattr(built_in_code(), name) for name in Scenario._fields}, **changes}
    with pytest.raises(ScenarioValidationError) as built:
        Scenario(**fields)
    # to_dict reads only the fields, so it writes the file form of ones no Scenario holds
    with pytest.raises(ScenarioValidationError) as loaded:
        scenario_from_dict(Scenario.to_dict(SimpleNamespace(**fields)))
    assert (built.value.path, built.value.message) == (loaded.value.path, loaded.value.message) == (path, message)


def test_unknown_defaults_key_rejected(tmp_path):
    doc = mutated(defaults={"not_a_setting": 1})
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))


def test_unknown_top_level_key_rejected(tmp_path):
    doc = mutated(surprise=True)
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))


def test_schema_version_pinned(tmp_path):
    doc = mutated(schema_version=2)
    with pytest.raises(ScenarioValidationError):
        load_scenario(write(tmp_path, doc))


def test_round_trip_identity_for_canonical_scenarios(tmp_path):
    for path in CANONICAL_SCENARIOS:
        scenario = load_scenario(path)
        assert scenario_from_dict(scenario.to_dict()) == scenario
        copy_path = tmp_path / path.name
        dump_scenario(scenario, copy_path)
        assert load_scenario(copy_path) == scenario


def test_canonical_files_are_canonical_bytes(tmp_path):
    # files on disk are exactly what dump_scenario produces
    for path in CANONICAL_SCENARIOS:
        scenario = load_scenario(path)
        copy_path = tmp_path / path.name
        dump_scenario(scenario, copy_path)
        assert copy_path.read_text() == path.read_text()


def test_annotations_collected_per_agent(tmp_path):
    doc = mutated()
    doc["agents"][0]["behavior"][0]["annotated_scores"] = {
        "coherence": 0.5,
        "factuality": 0.6,
        "relevance": 0.7,
    }
    scenario = load_scenario(write(tmp_path, doc))
    assert scenario.annotations() == {("t1", "a1", 0): (0.5, 0.6, 0.7)}


def test_reference_facts_union(tmp_path):
    doc = mutated()
    doc["tasks"].append({"id": "t2", "reference_facts": ["f2", "f1"]})
    scenario = load_scenario(write(tmp_path, doc))
    assert scenario.reference_facts() == frozenset({"f1", "f2"})
    # built once per scenario, and no field: equality and a copy made from the fields do not see it
    assert scenario.reference_facts() is scenario.reference_facts()
    assert scenario == load_scenario(write(tmp_path, doc))
    copy = Scenario(**{**{name: getattr(scenario, name) for name in Scenario._fields}, "tasks": scenario.tasks[:1]})
    assert copy.reference_facts() == frozenset({"f1"})


def test_a_loaded_scenario_holds_under_twice_its_files_size(tmp_path):
    # one object per distinct name and fact set: the parsed document's copies are not kept
    bench = load_perfbench_run()
    path = tmp_path / "deep_dag.json"
    path.write_text(bench.synth.dumps(bench.synth.generate(bench.SHAPES["deep_dag"].scaled(2000), 1)), "utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        scenario = load_scenario(path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(scenario.tasks) == 2000
    assert kept < 2 * path.stat().st_size
