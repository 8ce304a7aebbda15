"""The one-pass scenario builder, held to the published schema.

jsonschema is the oracle here and nowhere else: the runtime never imports it.
Single-fault mutations of valid documents must be accepted by the builder
exactly when jsonschema accepts them, and a rejection must carry the path and
message of the first jsonschema error (errors sorted by path). An accepted
document must build the Scenario the construction code before the builder
built.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from importlib import resources
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskweave import ScenarioValidationError
from taskweave.agents import AgentProfile, BehaviorRow
from taskweave.graph import TaskSpec
from taskweave import scenario as scenario_module
from taskweave.scenario import AgentSpec, Scenario, load_scenario, scenario_from_dict

from conftest import CANONICAL_SCENARIOS
from test_golden_digests import load_perfbench_run
from test_scenario import MINIMAL

SCHEMA = json.loads(
    resources.files("taskweave.schemas").joinpath("scenario.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# Every schema node in use: markers with spaces force the $['a b'] notation.
RICH = {
    "schema_version": 1,
    "name": "rich",
    "description": "every optional field",
    "tasks": [
        {
            "id": "t1",
            "description": "first",
            "domain_markers": ["legal", "tax law"],
            "ambiguity": 0.25,
            "expected_effort": 3,
            "reference_facts": ["f1", "f2"],
            "depends_on": [],
        },
        {"id": "t2", "depends_on": ["t1"], "reference_facts": ["f3"]},
    ],
    "agents": [
        {
            "id": "a1",
            "capabilities": ["legal"],
            "capacity": 2,
            "historical_performance": {"legal": 0.9, "tax law": 0.4},
            "behavior": [
                {
                    "task_id": "t1",
                    "attempt": 0,
                    "content": "one",
                    "emitted_facts": ["f1"],
                    "declared_confidence": 0.8,
                    "latency": 2,
                    "annotated_scores": {"coherence": 1, "factuality": 0.5, "relevance": 0.75},
                    "contingent_facts": [{"if_visible": "f3", "emit": "f2"}],
                },
                {"task_id": "t2", "attempt": 1, "content": "two"},
            ],
        },
        {"id": "a 2", "behavior": [{"task_id": "t2", "attempt": 0, "content": "three"}]},
    ],
    "contradiction_pairs": [["f1", "f9"]],
    "gold_answers": {"t1": "f1"},
    "static_assignments": {"t1": "a1", "t2": "a 2"},
    "defaults": {
        "seed": 7,
        "theta": 0.5,
        "k": 2,
        "weights": {"alpha": 0.2, "beta": 0.5, "gamma": 0.3},
        "domain_weights": {"tax law": {"alpha": 0.5, "beta": 0.25, "gamma": 0.25}},
        "w1": 0.6,
        "w2": 0.4,
        "severity_threshold": 0.3,
        "revision_budget": 2,
        "fact_threshold": 0.6,
        "adapt_decrement": 0.1,
        "scorer": "scripted",
        "scorer_fallback": None,
    },
}

BASES = [MINIMAL, RICH] + [json.loads(path.read_text()) for path in CANONICAL_SCENARIOS]


def schema_verdict(doc):
    errors = sorted(VALIDATOR.iter_errors(doc), key=lambda e: str(e.json_path))
    return (errors[0].json_path, errors[0].message) if errors else None


def builder_verdict(doc):
    try:
        scenario_from_dict(doc)
    except ScenarioValidationError as exc:
        return (exc.path, exc.message)
    return None


def reference_scenario(doc: dict) -> Scenario:
    """The construction walk the builder replaced, for documents that passed the schema."""
    behavior_of = {}
    for raw in doc["agents"]:
        behavior = {}
        for row in raw.get("behavior", []):
            annotated = row.get("annotated_scores")
            behavior[(row["task_id"], int(row["attempt"]))] = BehaviorRow(
                content=row["content"],
                emitted_facts=frozenset(row.get("emitted_facts", [])),
                declared_confidence=float(row.get("declared_confidence", 0.5)),
                latency=float(row.get("latency", 1.0)),
                annotated_scores=(
                    (annotated["coherence"], annotated["factuality"], annotated["relevance"])
                    if annotated is not None
                    else None
                ),
                contingent_facts=tuple(
                    (c["if_visible"], c["emit"]) for c in row.get("contingent_facts", [])
                ),
            )
        behavior_of[raw["id"]] = behavior
    return Scenario(
        name=doc.get("name", ""),
        description=doc.get("description", ""),
        tasks=tuple(
            TaskSpec(
                id=t["id"],
                description=t.get("description", ""),
                domain_markers=frozenset(t.get("domain_markers", [])),
                ambiguity=float(t.get("ambiguity", 0.0)),
                expected_effort=int(t.get("expected_effort", 0)),
                reference_facts=frozenset(t.get("reference_facts", [])),
                depends_on=frozenset(t.get("depends_on", [])),
            )
            for t in doc["tasks"]
        ),
        agents=tuple(
            AgentSpec(
                id=a["id"],
                capabilities=frozenset(a.get("capabilities", [])),
                capacity=int(a.get("capacity", 1)),
                historical_performance=dict(a.get("historical_performance", {})),
                behavior=behavior_of[a["id"]],
            )
            for a in doc["agents"]
        ),
        contradiction_pairs=tuple((p[0], p[1]) for p in doc.get("contradiction_pairs", [])),
        gold_answers=dict(doc.get("gold_answers", {})),
        static_assignments=dict(doc.get("static_assignments", {})),
        defaults=dict(doc.get("defaults", {})),
    )


# -- single-fault mutations ------------------------------------------------------


def resolve(schema: dict) -> dict:
    ref = schema.get("$ref")
    if ref is None:
        return schema
    node = SCHEMA
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def sites(value, schema: dict, path: tuple = ()):
    """(path, schema) of every node of a valid document, walked along its schema."""
    schema = resolve(schema)
    yield path, schema
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            child = properties.get(key, extra if isinstance(extra, dict) else None)
            if child is not None:
                yield from sites(item, child, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from sites(item, schema["items"], path + (i,))


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object", type(None): "null"}[type(value)]


SWAPS = [True, False, None, 0, 3, 2.0, 1.5, "x", [], ["x"], {}, {"x": 1}]
NEW_KEYS = ["surprise", "odd key", "it's", "_x"]


def mutations(value, schema: dict) -> list:
    """Replacement values (or a callable editing the value in place) for one node."""
    out: list = [swap for swap in SWAPS if json_type(swap) != json_type(value)]
    if schema.get("type") == "integer":
        out += [float(value), 1.5, schema.get("minimum", 0) - 1]
    elif schema.get("type") == "number":
        bounds = [schema[b] for b in ("minimum", "maximum") if b in schema]
        out += bounds + [schema.get("minimum", 0) - 0.5]
        if "maximum" in schema:
            out.append(schema["maximum"] + 0.5)
    if schema.get("minLength"):
        out.append("")
    if "enum" in schema:
        out.append("typo")
    if "const" in schema:
        out += [schema["const"] + 1, float(schema["const"])]
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key in value:
                out.append(lambda v, key=key: v.pop(key))
        for key in NEW_KEYS:
            # a closed object gains an unknown key; a map gains an entry of the wrong type
            out.append(lambda v, key=key: v.__setitem__(key, True))
    if isinstance(value, list) and ("minItems" in schema or "maxItems" in schema):
        out.append(lambda v: v.pop())
        out.append(lambda v: v.append(v[0]))
    return out


def apply(doc: dict, path: tuple, mutation):
    out = copy.deepcopy(doc)
    if not path and not callable(mutation):
        return mutation
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if callable(mutation):
        mutation(parent[path[-1]] if path else out)
    else:
        parent[path[-1]] = mutation
    return out


def single_faults(doc: dict):
    """Every (document, mutation) pair one mutation away from a valid document."""
    for path, schema in sites(doc, SCHEMA):
        node = doc
        for key in path:
            node = node[key]
        for mutation in mutations(node, schema):
            yield apply(doc, path, mutation)


def check_agreement(doc) -> None:
    expected = schema_verdict(doc)
    assert builder_verdict(doc) == expected
    if expected is None:
        assert scenario_from_dict(doc) == reference_scenario(doc)


def test_builder_agrees_with_jsonschema_on_every_single_fault_of_rich():
    for doc in single_faults(RICH):
        check_agreement(doc)


@st.composite
def mutated_documents(draw):
    base = draw(st.sampled_from(BASES))
    # one schema node first, then one of its sites, so rare nodes get drawn
    by_node: dict[int, list] = {}
    for path, schema in sites(base, SCHEMA):
        by_node.setdefault(id(schema), []).append((path, schema))
    path, schema = draw(st.sampled_from(by_node[draw(st.sampled_from(sorted(by_node)))]))
    node = base
    for key in path:
        node = node[key]
    return apply(base, path, draw(st.sampled_from(mutations(node, schema))))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_builder_agrees_with_jsonschema_on_single_faults(doc):
    # ids and references are strings and a mutation never puts another string
    # in their place, so jsonschema's verdict is the whole verdict
    check_agreement(doc)


@st.composite
def two_fault_documents(draw):
    base = draw(st.sampled_from(BASES))
    # the sites under each top-level property; two of them get one mutation each
    by_property: dict[str, list] = {}
    for path, schema in sites(base, SCHEMA):
        if path:
            by_property.setdefault(path[0], []).append((path, schema))
    doc = base
    names = st.lists(st.sampled_from(sorted(by_property)), min_size=2, max_size=2, unique=True)
    for name in draw(names):
        path, schema = draw(st.sampled_from(by_property[name]))
        node = base
        for key in path:
            node = node[key]
        doc = apply(doc, path, draw(st.sampled_from(mutations(node, schema))))
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(two_fault_documents())
def test_builder_reports_the_first_of_two_faults_by_path(doc):
    # jsonschema's first error by path is the fault under the property whose
    # name sorts first, wherever the document puts that property
    check_agreement(doc)


BASE_IDS = ["minimal", "rich", *(path.stem for path in CANONICAL_SCENARIOS)]
BENCH_SHAPES = ("deep_dag", "fanout_revise")


def bench_document(name: str) -> dict:
    bench = load_perfbench_run()
    return bench.synth.generate(bench.SHAPES[name].scaled(60), 1)


@pytest.mark.parametrize("base", [*BASES, *BENCH_SHAPES], ids=[*BASE_IDS, *BENCH_SHAPES])
def test_valid_bases_build_the_reference_scenario(base):
    # the pooled build equals the plain one, on the files and on the bench's shapes
    base = bench_document(base) if isinstance(base, str) else base
    assert schema_verdict(base) is None
    assert scenario_from_dict(copy.deepcopy(base)) == reference_scenario(base)


def test_rich_document_reaches_every_schema_node():
    seen = {id(schema) for _, schema in sites(RICH, SCHEMA)}
    nodes = []

    def collect(schema):
        nodes.append(schema)
        for child in schema.get("properties", {}).values():
            collect(resolve(child))
        for key in ("items", "additionalProperties"):
            if isinstance(schema.get(key), dict):
                collect(resolve(schema[key]))

    collect(SCHEMA)
    assert [n for n in nodes if id(n) not in seen] == []


# -- the points where a hand-written check is easy to get wrong ---------------------


def with_row_field(key, value) -> dict:
    doc = copy.deepcopy(MINIMAL)
    doc["agents"][0]["behavior"][0][key] = value
    return doc


@pytest.mark.parametrize(
    "doc,verdict",
    [
        (with_row_field("attempt", 0.0), None),
        (
            with_row_field("attempt", True),
            ("$.agents[0].behavior[0].attempt", "True is not of type 'integer'"),
        ),
        (
            with_row_field("latency", False),
            ("$.agents[0].behavior[0].latency", "False is not of type 'number'"),
        ),
        ({**MINIMAL, "schema_version": True}, ("$.schema_version", "1 was expected")),
        ({**MINIMAL, "schema_version": 1.0}, None),
        (
            {**MINIMAL, "gold_answers": {"a b": ""}},
            ("$.gold_answers['a b']", "'' should be non-empty"),
        ),
    ],
    ids=[
        "integral-float", "bool-integer", "bool-number", "const-bool", "const-float", "bracket-path"
    ],
)
def test_edge_cases_match_jsonschema(doc, verdict):
    assert schema_verdict(doc) == verdict
    assert builder_verdict(doc) == verdict


def test_integral_floats_build_ints():
    doc = copy.deepcopy(RICH)
    doc["tasks"][0]["expected_effort"] = 3.0
    doc["defaults"]["k"] = 2.0
    scenario = scenario_from_dict(doc)
    assert type(scenario.tasks[0].expected_effort) is int
    assert type(scenario.defaults["k"]) is int


# Where a non-finite number goes, and the path of the object whose spec rejects it.
NON_FINITE = {
    "ambiguity": (("tasks", 0, "ambiguity"), math.nan, "$.tasks[0]"),
    "declared_confidence": (
        ("agents", 0, "behavior", 0, "declared_confidence"), math.nan, "$.agents[0].behavior[0]"
    ),
    "latency": (("agents", 0, "behavior", 0, "latency"), math.nan, "$.agents[0].behavior[0]"),
    "latency-infinity": (
        ("agents", 0, "behavior", 0, "latency"), math.inf, "$.agents[0].behavior[0]"
    ),
    "historical_performance": (
        ("agents", 0, "historical_performance"), {"legal": math.nan}, "$.agents[0]"
    ),
    "annotated_scores": (
        ("agents", 0, "behavior", 0, "annotated_scores"),
        {"coherence": math.nan, "factuality": 0.5, "relevance": 0.5},
        "$.agents[0].behavior[0]",
    ),
}


@pytest.mark.parametrize("field", list(NON_FINITE))
def test_nan_the_schema_admits_is_still_a_validation_error(field):
    # json reads NaN and Infinity; jsonschema's range checks let NaN through,
    # and Infinity where there is no maximum
    location, value, path = NON_FINITE[field]
    doc = apply(MINIMAL, location, value)
    assert schema_verdict(doc) is None
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(doc)
    assert exc.value.path == path


# Non-finite numbers a bound refuses: jsonschema's verdict, on the slow path.
REFUSED_NON_FINITE = {
    "ambiguity-infinity": (("tasks", 0, "ambiguity"), math.inf, "$.tasks[0].ambiguity"),
    "latency-minus-infinity": (
        ("agents", 0, "behavior", 0, "latency"), -math.inf, "$.agents[0].behavior[0].latency"
    ),
}


@pytest.mark.parametrize("field", list(REFUSED_NON_FINITE))
def test_non_finite_numbers_a_bound_refuses_get_jsonschemas_verdict(field):
    location, value, path = REFUSED_NON_FINITE[field]
    doc = apply(MINIMAL, location, value)
    verdict = schema_verdict(doc)
    assert verdict is not None and verdict[0] == path
    assert builder_verdict(doc) == verdict


@pytest.mark.parametrize(
    "literal,path",
    [
        ("NaN", "$.agents[0].behavior[0]"),
        ("Infinity", "$.agents[0].behavior[0]"),
        ("1e400", "$.agents[0].behavior[0]"),
        ("-Infinity", "$.agents[0].behavior[0].latency"),
        ("1" + "0" * 400, "$.agents[0].behavior[0]"),
    ],
    ids=["nan", "infinity", "1e400", "minus-infinity", "int-past-float"],
)
def test_the_loader_rejects_non_finite_latency_literals(tmp_path, literal, path):
    # json reads NaN, Infinity and 1e400 (as inf); only -Infinity breaks a bound.
    # An int past the float range is finite, but no float holds it.
    text = json.dumps(MINIMAL).replace('"latency": 1', f'"latency": {literal}')
    file = tmp_path / "latency.json"
    file.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(file)
    assert exc.value.path == path


def test_a_capacity_below_one_is_refused_by_the_spec_and_by_the_schema():
    with pytest.raises(ValueError, match="capacity must be a positive integer"):
        AgentSpec("a", capacity=0)
    # a file's fault is the schema's, reported before any spec is built
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(apply(MINIMAL, ("agents", 0, "capacity"), 0))
    assert (exc.value.path, exc.value.message) == ("$.agents[0].capacity", "0 is less than the minimum of 1")


@pytest.mark.parametrize("capacity", [1.5, True, 0], ids=["fraction", "bool", "zero"])
@pytest.mark.parametrize("build", [AgentSpec, AgentProfile], ids=lambda cls: cls.__name__)
def test_a_capacity_that_is_no_positive_int_is_refused_by_spec_and_profile(build, capacity):
    # a capacity of 1.5 used to run two tasks in one wave, as capacity 2 would
    with pytest.raises(ValueError, match="capacity must be a positive integer"):
        build("a", capacity=capacity)


def test_the_root_properties_but_the_version_are_the_scenario_fields():
    # scenario_from_dict builds Scenario(**checked root), so each property is a field and each field a property
    names = list(Scenario._fields)
    assert sorted(SCHEMA["properties"].keys() - {"schema_version"}) == sorted(names)


def test_validate_under_python_O_exits_two_on_an_infinite_latency(tmp_path):
    file = tmp_path / "latency.json"
    file.write_text(json.dumps(MINIMAL).replace('"latency": 1', '"latency": 1e400'))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "taskweave.cli", "validate", str(file)],
        env=dict(os.environ), capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "$.agents[0].behavior[0]" in proc.stderr and "latency" in proc.stderr


# -- valid documents: the generated fast path against the reference ------------------


def typed(value):
    """`value` as nested (type name, parts), so that 1, 1.0, -0.0 and True all differ."""
    if hasattr(value, "_fields"):  # a record or a named tuple
        return (type(value).__name__, tuple(typed(getattr(value, name)) for name in value._fields))
    if isinstance(value, dict):
        return ("dict", frozenset((typed(key), typed(each)) for key, each in value.items()))
    if isinstance(value, frozenset):
        return ("frozenset", frozenset(typed(each) for each in value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(typed(each) for each in value))
    return (type(value).__name__, repr(value))


TEXT = st.text(max_size=6)  # empty and non-ASCII strings included
NAME = st.text(min_size=1, max_size=6)
EDGES = [0, 1, 0.0, -0.0, 1e-300]


def unit():
    return st.sampled_from([*EDGES, 1.0, 0.5]) | st.floats(0, 1) | st.integers(0, 1)


def nonnegative():
    return st.sampled_from([*EDGES, 2, 1e300]) | st.floats(0, 1e9) | st.integers(0, 10**12)


def integer(low: int):
    """An int, or the integral float jsonschema also takes, which must build an int."""
    return st.integers(low, low + 10**6).flatmap(lambda n: st.sampled_from([n, float(n)]))


def scores():
    names = ("coherence", "factuality", "relevance")
    return st.fixed_dictionaries({name: unit() for name in names})


@st.composite
def valid_documents(draw):
    ids = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    tasks = []
    for i, task_id in enumerate(ids):
        optional = {
            "description": TEXT,
            "domain_markers": st.lists(TEXT, max_size=3),
            "ambiguity": unit(),
            "expected_effort": integer(0),
            "reference_facts": st.lists(TEXT, max_size=3),
            "depends_on": st.lists(st.sampled_from(ids[:i]), max_size=2) if i else st.just([]),
        }
        tasks.append(draw(st.fixed_dictionaries({"id": st.just(task_id)}, optional=optional)))
    agent_ids = draw(st.lists(NAME, min_size=1, max_size=3, unique=True))
    agents = []
    for agent_id in agent_ids:
        key = st.tuples(st.sampled_from(ids), st.integers(0, 3))
        keys = draw(st.lists(key, max_size=4, unique=True))
        rows = [
            draw(st.fixed_dictionaries(
                {"task_id": st.just(task_id), "attempt": st.sampled_from([attempt, float(attempt)]),
                 "content": TEXT},
                optional={
                    "emitted_facts": st.lists(TEXT, max_size=3),
                    "declared_confidence": unit(),
                    "latency": nonnegative(),
                    "annotated_scores": scores(),
                    "contingent_facts": st.lists(
                        st.fixed_dictionaries({"if_visible": NAME, "emit": NAME}), max_size=2
                    ),
                },
            ))
            for task_id, attempt in keys
        ]
        optional = {
            "capabilities": st.lists(TEXT, max_size=3),
            "capacity": integer(1),
            "historical_performance": st.dictionaries(TEXT, unit(), max_size=3),
            "behavior": st.just(rows),
        }
        agents.append(draw(st.fixed_dictionaries({"id": st.just(agent_id)}, optional=optional)))
    optional = {
        "name": TEXT,
        "description": TEXT,
        "contradiction_pairs": st.lists(st.lists(NAME, min_size=2, max_size=2, unique=True), max_size=2),
        "gold_answers": st.dictionaries(st.sampled_from(ids), NAME, max_size=2),
        "static_assignments": st.dictionaries(st.sampled_from(ids), st.sampled_from(agent_ids)),
        "defaults": st.just(RICH["defaults"]),
    }
    top = {"schema_version": st.just(1), "tasks": st.just(tasks), "agents": st.just(agents)}
    return draw(st.fixed_dictionaries(top, optional=optional))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_documents())
def test_valid_documents_build_the_reference_scenario_with_exact_types(doc):
    assert schema_verdict(doc) is None
    assert typed(scenario_from_dict(doc)) == typed(reference_scenario(doc))


def test_valid_documents_stay_on_the_fast_path(monkeypatch):
    # every typed node off its fast path enters _held_to_rules; enum and const
    # nodes (schema_version, scorer, scorer_fallback) have no other path
    entered = []
    held_to_rules = scenario_module._held_to_rules

    def spy(schema, value):
        entered.append(schema)
        return held_to_rules(schema, value)

    monkeypatch.setattr(scenario_module, "_held_to_rules", spy)
    bench = load_perfbench_run()
    docs = [RICH] + [json.loads(path.read_text()) for path in CANONICAL_SCENARIOS]
    docs += [bench.synth.generate(shape.scaled(30), 1) for shape in bench.SHAPES.values()]
    for doc in docs:
        scenario_from_dict(doc)
    assert len(docs) == 7 and [schema for schema in entered if "type" in schema] == []
    assert entered  # the spy sees the const and enum nodes


def test_cli_import_leaves_jsonschema_out():
    code = "import sys, taskweave.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_shipped_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


# -- cross-references: subset tests against the per-item scans they replaced ----------


def scanned_cross_references(scenario) -> None:
    """The cross-reference check as a set difference per task and per agent, over sorted maps."""
    task_ids: set[str] = set()
    for i, task in enumerate(scenario.tasks):
        if task.id in task_ids:
            raise ScenarioValidationError(f"$.tasks[{i}].id", f"duplicate task id {task.id!r}")
        task_ids.add(task.id)
    for i, task in enumerate(scenario.tasks):
        unknown = task.depends_on - task_ids
        if unknown:
            raise ScenarioValidationError(f"$.tasks[{i}].depends_on", f"unknown task id {min(unknown)!r}")
    agent_ids: set[str] = set()
    for i, agent in enumerate(scenario.agents):
        if agent.id in agent_ids:
            raise ScenarioValidationError(f"$.agents[{i}].id", f"duplicate agent id {agent.id!r}")
        agent_ids.add(agent.id)
        unknown = {task_id for task_id, _ in agent.behavior if task_id not in task_ids}
        if unknown:
            raise ScenarioValidationError(
                f"$.agents[{i}].behavior", f"behavior row references unknown task {min(unknown)!r}"
            )
    for task_id, agent_id in sorted(scenario.static_assignments.items()):
        if task_id not in task_ids:
            raise ScenarioValidationError("$.static_assignments", f"unknown task id {task_id!r}")
        if agent_id not in agent_ids:
            raise ScenarioValidationError("$.static_assignments", f"unknown agent id {agent_id!r}")
    for task_id in sorted(scenario.gold_answers):
        if task_id not in task_ids:
            raise ScenarioValidationError("$.gold_answers", f"unknown task id {task_id!r}")
    for i, pair in enumerate(scenario.contradiction_pairs):
        if len(set(pair)) == 1:
            raise ScenarioValidationError(f"$.contradiction_pairs[{i}]", f"pair names fact {pair[0]!r} twice")
    cycle = scenario_module.find_cycle({task.id: task for task in scenario.tasks})
    if cycle:
        raise ScenarioValidationError("$.tasks", str(scenario_module.CycleError(cycle)))


@st.composite
def cross_referenced_scenarios(draw):
    """A Scenario's fields, whose ids may repeat, whose references may name no task or agent,
    and whose contradiction pairs may name one fact twice; a Scenario of them may not build."""
    task_ids = draw(st.lists(st.sampled_from(["t1", "t2", "t3"]), min_size=1, max_size=3, unique=True))
    # References mostly name a task or agent of the scenario; none is named ghost, zz or nobody.
    task_refs = st.sampled_from(task_ids * 6 + ["ghost", "zz"])
    agent_refs = st.sampled_from(["a1", "a2"] * 6 + ["nobody"])
    facts = st.sampled_from(["f1", "f2", "f3"])  # a pair sometimes names one fact twice
    task_ids += draw(st.sampled_from([[]] * 6 + [task_ids[:1]]))  # sometimes a duplicate id
    tasks = [
        TaskSpec(id=task_id, description="", depends_on=frozenset(draw(st.lists(task_refs, max_size=1))))
        for task_id in task_ids
    ]
    row = BehaviorRow("text")
    agents = [
        AgentSpec(id=agent_id, behavior={(task_id, 0): row for task_id in draw(st.lists(task_refs, max_size=3))})
        for agent_id in draw(st.sampled_from([["a1", "a2"]] * 6 + [["a1", "a1"]]))
    ]
    return SimpleNamespace(
        tasks=tuple(tasks),
        agents=tuple(agents),
        static_assignments=draw(st.dictionaries(task_refs, agent_refs, max_size=3)),
        gold_answers=draw(st.dictionaries(task_refs, st.just("f"), max_size=3)),
        contradiction_pairs=tuple(draw(st.lists(st.tuples(facts, facts), max_size=3))),
    )


def cross_reference_verdict(check, scenario):
    try:
        check(scenario)
    except ScenarioValidationError as exc:
        return exc.path, exc.message
    return None


@settings(max_examples=500, deadline=None)
@given(cross_referenced_scenarios())
def test_cross_references_report_the_fault_the_scans_reported(fields):
    expected = cross_reference_verdict(scanned_cross_references, fields)
    assert cross_reference_verdict(scenario_module._check_cross_references, fields) == expected
    assert cross_reference_verdict(lambda f: Scenario(**vars(f)), fields) == expected


# -- the pool: one object per distinct name and fact set ------------------------------


def objects_by_value(*collections) -> dict:
    """Each value in `collections` and the ids of the objects that hold it."""
    out: dict = {}
    for collection in collections:
        for value in collection:
            out.setdefault(value, set()).add(id(value))
    return out


def test_a_build_holds_one_object_per_distinct_name_and_fact_set():
    doc = {
        "schema_version": 1,
        "tasks": [
            {"id": "task one", "reference_facts": ["fact a", "fact b"], "domain_markers": ["legal"]},
            {"id": "task two", "depends_on": ["task one"], "reference_facts": ["fact b", "fact c"],
             "domain_markers": ["legal"]},
        ],
        "agents": [
            {
                "id": "a1",
                "capabilities": ["legal"],
                "behavior": [
                    {"task_id": "task one", "attempt": 0, "content": "x", "emitted_facts": ["fact a", "fact b"]},
                    {"task_id": "task one", "attempt": 1, "content": "y", "emitted_facts": ["fact a", "fact b"]},
                    {"task_id": "task two", "attempt": 0, "content": "z", "emitted_facts": ["fact c"]},
                ],
            }
        ],
    }
    scenario = scenario_from_dict(json.loads(json.dumps(doc)))  # every string its own object
    one, two = scenario.tasks
    rows = scenario.agents[0].behavior
    # two rows that emit the same facts hold one frozenset, the task's set of those facts too
    assert rows[("task one", 0)].emitted_facts is rows[("task one", 1)].emitted_facts is one.reference_facts
    assert one.domain_markers is two.domain_markers is scenario.agents[0].capabilities
    # one fact in different sets is one str; a task id is one str wherever it is named
    facts = objects_by_value(one.reference_facts, two.reference_facts, rows[("task two", 0)].emitted_facts)
    names = objects_by_value([one.id, two.id], two.depends_on, [task_id for task_id, _ in rows])
    assert {value: len(ids) for value, ids in {**facts, **names}.items()} == {
        "fact a": 1, "fact b": 1, "fact c": 1, "task one": 1, "task two": 1
    }


def with_rows(doc: dict, *rows: dict) -> dict:
    doc = copy.deepcopy(doc)
    doc["agents"][0]["behavior"] += [dict(row) for row in rows]
    return doc


POOL_FAULTS = {
    # the tasks and rows before it fill the pool; this row fails in its spec, on the slow path
    "slow-path-row": (
        with_rows(RICH, {"task_id": "t1", "attempt": 2, "content": "c", "emitted_facts": ["f9"],
                         "declared_confidence": math.nan}),
        "$.agents[0].behavior[2]",
    ),
    "duplicate-row": (with_rows(RICH, RICH["agents"][0]["behavior"][0]), "$.agents[0].behavior[2]"),
    "unknown-id": (
        {**RICH, "tasks": [*RICH["tasks"], {"id": "t3", "depends_on": ["ghost"]}]}, "$.tasks[2].depends_on"
    ),
    "cycle": ({**RICH, "tasks": [{**RICH["tasks"][0], "depends_on": ["t2"]}, RICH["tasks"][1]]}, "$.tasks"),
}


@pytest.mark.parametrize("fault", list(POOL_FAULTS))
def test_the_pool_is_empty_after_a_build_fails(monkeypatch, fault):
    doc, path = POOL_FAULTS[fault]
    held = []  # the pool's size as a fault the check raised gets its path
    at = scenario_module._at
    monkeypatch.setattr(scenario_module, "_at", lambda *args: held.append(len(scenario_module._POOL)) or at(*args))
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(doc)
    assert exc.value.path == path
    assert scenario_module._POOL == {}
    if fault == "slow-path-row":
        assert held and held[0] > 0  # the rows before the fault had filled it


def test_the_pool_is_empty_after_a_build():
    scenario_from_dict(copy.deepcopy(RICH))
    assert scenario_module._POOL == {}
