"""Scenario files: loading, validation, and round-trippable serialization.

A scenario is the complete deterministic description of a run: the task graph,
the agent pool with scripted behavior tables, contradiction pairs, gold
answers for compliance tasks, static-variant assignments, and config defaults.
`schemas/scenario.schema.json` is the published contract for the format and
the one place its rules are written: the loader compiles it at import into
checks that build the specs as they check them, then checks cross-references.
Every error carries a JSON path and jsonschema's message for the fault; the
test suite holds the loader to the schema, with jsonschema as the oracle.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from functools import reduce
from pathlib import Path
from typing import Any, Callable

from ._collector import collector_paused
from .agents import AgentProfile, BehaviorRow, ScriptedAgent
from .errors import CycleError, ScenarioParseError, ScenarioValidationError
from .graph import TaskGraph, TaskSpec, build_graph, find_cycle

_SCHEMA = json.loads((Path(__file__).parent / "schemas/scenario.schema.json").read_text("utf-8"))
SCHEMA_VERSION = _SCHEMA["properties"]["schema_version"]["const"]


@dataclass(frozen=True)
class AgentSpec:
    """Immutable agent descriptor: profile seed plus scripted behavior table."""

    id: str
    capabilities: frozenset[str] = frozenset()
    capacity: int = 1
    historical_performance: dict[str, float] = field(default_factory=dict)
    behavior: dict[tuple[str, int], BehaviorRow] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for marker, value in self.historical_performance.items():
            if math.isnan(value):
                raise ValueError(f"historical_performance[{marker!r}] is NaN")  # others clamp

    def build(self) -> ScriptedAgent:
        """Fresh runtime agent; profiles mutate during a run, specs never do."""
        profile = AgentProfile(
            id=self.id,
            capabilities=self.capabilities,
            capacity=self.capacity,
            historical_performance=self.historical_performance,
        )
        return ScriptedAgent(profile, dict(self.behavior))


@dataclass(frozen=True)
class Scenario:
    name: str = ""
    description: str = ""
    tasks: tuple[TaskSpec, ...] = ()
    agents: tuple[AgentSpec, ...] = ()
    contradiction_pairs: tuple[tuple[str, str], ...] = ()
    gold_answers: dict[str, str] = field(default_factory=dict)
    static_assignments: dict[str, str] = field(default_factory=dict)
    defaults: dict = field(default_factory=dict)

    def build_graph(self) -> TaskGraph:
        return build_graph(self.tasks)

    def build_agents(self) -> dict[str, ScriptedAgent]:
        return {spec.id: spec.build() for spec in self.agents}

    def reference_facts(self) -> frozenset[str]:
        """Union of every task's reference facts: the run-level coverage target."""
        facts: set[str] = set()
        for task in self.tasks:
            facts |= task.reference_facts
        return frozenset(facts)

    def annotations(self) -> dict[tuple[str, str, int], tuple[float, float, float]]:
        """Annotated score triples keyed by (task_id, agent_id, attempt)."""
        out: dict[tuple[str, str, int], tuple[float, float, float]] = {}
        for agent in self.agents:
            for (task_id, attempt), row in agent.behavior.items():
                if row.annotated_scores is not None:
                    out[(task_id, agent.id, attempt)] = row.annotated_scores
        return out

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; load(to_dict()) round-trips to an equal Scenario."""
        doc: dict = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "tasks": [_fields(t) for t in self.tasks],
            "agents": [
                {
                    **_fields(a),
                    "historical_performance": dict(sorted(a.historical_performance.items())),
                    "behavior": [
                        _row_to_dict(task_id, attempt, row)
                        for (task_id, attempt), row in sorted(a.behavior.items())
                    ],
                }
                for a in self.agents
            ],
            "contradiction_pairs": [list(pair) for pair in self.contradiction_pairs],
            "gold_answers": dict(sorted(self.gold_answers.items())),
            "static_assignments": dict(sorted(self.static_assignments.items())),
            "defaults": self.defaults,
        }
        return doc


def _fields(spec: object) -> dict:
    """A spec's or a row's fields by name in declaration order, sets as sorted lists."""
    names = spec._fields if isinstance(spec, tuple) else [f.name for f in fields(spec)]
    return {
        name: sorted(value) if isinstance(value, frozenset) else value
        for name in names
        for value in [getattr(spec, name)]
    }


def _row_to_dict(task_id: str, attempt: int, row: BehaviorRow) -> dict:
    out = {"task_id": task_id, "attempt": attempt, **_fields(row)}
    scores, contingent = out.pop("annotated_scores"), out.pop("contingent_facts")
    if scores is not None:
        out["annotated_scores"] = dict(zip(_SCORE_NAMES, scores))
    if contingent:
        out["contingent_facts"] = [dict(zip(_CONTINGENT_NAMES, pair)) for pair in contingent]
    return out


@collector_paused
def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file, with the cyclic collector paused."""
    return scenario_from_dict(_parse(Path(path)))


def _parse(path: Path) -> object:
    """The file's JSON document; the text is dropped when this returns, before the build."""
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep, too many digits
        raise ScenarioParseError(f"{path} is not valid JSON: {exc}") from exc


def scenario_from_dict(doc: object) -> Scenario:
    """Validate a parsed scenario document against the schema and build the Scenario.

    A fault raises the ScenarioValidationError jsonschema would report first
    for it: same JSON path, same message. Duplicate behavior rows and
    cross-references are checked once the whole document has passed.
    """
    try:
        top = _check_document(doc)
    except _Fault as fault:
        raise ScenarioValidationError(reduce(_at, reversed(fault.keys), "$"), str(fault)) from None
    scenario = Scenario(
        name=top.get("name", ""),
        description=top.get("description", ""),
        tasks=tuple(top["tasks"]),
        agents=tuple(top["agents"]),
        contradiction_pairs=tuple(tuple(pair) for pair in top.get("contradiction_pairs", ())),
        gold_answers=top.get("gold_answers", {}),
        static_assignments=top.get("static_assignments", {}),
        defaults=top.get("defaults", {}),
    )
    _check_duplicate_rows(doc, scenario.agents)
    _check_cross_references(scenario)
    return scenario


# -- the schema, compiled ---------------------------------------------------------
#
# `_compile` turns each schema node into a check: a function that takes the
# node's value and returns the value to build from (an integral float in an
# integer node becomes an int) or raises `_Fault` with jsonschema's message.
# A value off the fast path is held to each rule of the node in keyword order.
# A fault collects its keys as it unwinds, so only a reported fault gets a
# path. A closed object that holds a fault is walked again in property-name
# order, the order of jsonschema's errors sorted by path; arrays and maps
# report their first bad item. Task, agent and behavior-row nodes build their
# specs, and score and contingent-pair nodes their tuples, calling their
# property checks directly.

Check = Callable[[Any], Any]
_KEYWORDS = {  # by the node's type; a `$ref` stands alone, the root adds annotations
    None: {"enum", "const"},
    "string": {"type", "minLength"},
    "number": {"type", "minimum", "maximum"},
    "integer": {"type", "minimum", "maximum"},
    "array": {"type", "items", "minItems", "maxItems"},
    "object": {"type", "required", "properties", "additionalProperties"},
}
_ANNOTATIONS = {"$schema", "$id", "$defs", "title"}
_TYPES = dict(object=dict, array=list, string=str, number=(int, float), integer=(int, float))
_CLASSES = {"string": (str,), "number": (int, float), "integer": (int,)}  # fast-path classes
_EMPTY: list = []
_NO_FACTS: frozenset[str] = frozenset()
_IDENTIFIER = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")
_SCORE_NAMES = ("coherence", "factuality", "relevance")  # the order of a score triple
_CONTINGENT_NAMES = ("if_visible", "emit")  # the order of a contingent pair


class _Fault(Exception):
    """A schema rule a value breaks; `keys` leads from the value up to the root."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.keys: list[str | int] = []


def _at(path: str, key: str | int) -> str:
    """JSON path of `key` under `path`: `$.a[0].b`, or `$['a b']` for other names."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    if _IDENTIFIER.match(key):
        return f"{path}.{key}"
    escaped = key.replace("\\", "\\\\").replace("'", "\\'")
    return f"{path}['{escaped}']"


def _is_type(value: object, name: str) -> bool:
    """jsonschema's types: a bool is no number, an integral float is an integer."""
    return (
        isinstance(value, _TYPES[name])
        and not isinstance(value, bool)
        and (name != "integer" or isinstance(value, int) or value.is_integer())
    )


def _equal(a: object, b: object) -> bool:
    """jsonschema's equality of scalars: a bool equals only a bool."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _unexpected(value: dict, names: dict) -> str | None:
    extras = sorted((key for key in value if key not in names), key=str)
    listed = ", ".join(repr(key) for key in extras)
    verb = "was" if len(extras) == 1 else "were"
    return extras and f"Additional properties are not allowed ({listed} {verb} unexpected)"


# jsonschema's words for a size under (over) its bound; the second for a bound of 1 (0)
_FEW, _MANY = ("is too short", "should be non-empty"), ("is too long", "is expected to be empty")
# jsonschema's message when value `v` breaks the rule `a` of node `s`; falsy if it keeps it
_RULES: dict[str, Callable[[Any, Any, dict], str | None]] = {
    "type": lambda v, a, s: None if _is_type(v, a) else f"{v!r} is not of type {a!r}",
    "minimum": lambda v, a, s: (
        f"{v!r} is less than the minimum of {a!r}" if _is_type(v, "number") and v < a else None
    ),
    "maximum": lambda v, a, s: (
        f"{v!r} is greater than the maximum of {a!r}" if _is_type(v, "number") and v > a else None
    ),
    "minLength": lambda v, a, s: isinstance(v, str) and len(v) < a and f"{v!r} {_FEW[a == 1]}",
    "minItems": lambda v, a, s: isinstance(v, list) and len(v) < a and f"{v!r} {_FEW[a == 1]}",
    "maxItems": lambda v, a, s: isinstance(v, list) and len(v) > a and f"{v!r} {_MANY[a == 0]}",
    "enum": lambda v, a, s: None if any(_equal(v, x) for x in a) else f"{v!r} is not one of {a!r}",
    "const": lambda v, a, s: None if _equal(v, a) else f"{a!r} was expected",
    "required": lambda v, a, s: isinstance(v, dict) and next(
        (f"{key!r} is a required property" for key in a if key not in v), None
    ),
    "additionalProperties": lambda v, a, s: (
        a is False and isinstance(v, dict) and _unexpected(v, s["properties"])
    ),
}


def _compile(schema: dict, at: str = "#") -> Check:
    """The check of one schema node; `at`, its JSON pointer, picks a spec builder."""
    if schema.keys() == {"$ref"}:
        parts = schema["$ref"].removeprefix("#/").split("/")
        return _compile(reduce(dict.__getitem__, parts, _SCHEMA), schema["$ref"])
    kind = schema.get("type")
    unsupported = schema.keys() - _ANNOTATIONS - _KEYWORDS.get(kind, set())
    if unsupported:
        raise ValueError(f"unsupported schema keywords at {at}: {sorted(unsupported)}")

    def held_to_rules(value: object) -> object:
        """The slow path: every rule of the node, in the schema's keyword order."""
        for keyword, arg in schema.items():
            message = keyword in _RULES and _RULES[keyword](value, arg, schema)
            if message:
                raise _Fault(message)
        return int(value) if kind == "integer" else value

    if kind == "string":
        shortest = schema.get("minLength", 0)
        return lambda v: v if type(v) is str and len(v) >= shortest else held_to_rules(v)
    if kind in ("number", "integer"):
        low, high = schema.get("minimum", -math.inf), schema.get("maximum", math.inf)
        classes = _CLASSES[kind]
        return lambda v: v if type(v) in classes and low <= v <= high else held_to_rules(v)
    if kind == "array":
        return _array(schema, _compile(schema["items"], at + "/items"), held_to_rules)
    if kind != "object":
        return held_to_rules
    extra = schema.get("additionalProperties")
    if isinstance(extra, dict) and "properties" not in schema:
        return _map(_compile(extra, at + "/additionalProperties"), held_to_rules)
    if extra is not False or "properties" not in schema:
        raise ValueError(f"unsupported object node at {at}: neither a closed object nor a map")
    properties = schema["properties"]
    checks = {key: _compile(properties[key], f"{at}/properties/{key}") for key in properties}
    build = _BUILDERS.get(at, _as_dict)(checks)
    allowed, required = frozenset(checks), frozenset(schema.get("required", ()))

    def check(value: object) -> object:
        if not (type(value) is dict and required <= value.keys() <= allowed):
            held_to_rules(value)
        try:
            return build(value)
        except _Fault:
            for key in sorted(value):  # the first fault by property name
                try:
                    checks[key](value[key])
                except _Fault as fault:
                    fault.keys.append(key)
                    raise fault from None
            raise
        except ValueError as exc:  # a range the schema admits, such as NaN
            raise _Fault(str(exc)) from exc

    return check


def _array(schema: dict, item: Check, held_to_rules: Check) -> Check:
    fewest, most = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    items = schema["items"]
    classes = _CLASSES.get(items.get("type"), ()) if len(items) == 1 else ()

    def check(value: object) -> list:
        if not (type(value) is list and fewest <= len(value) <= most):
            held_to_rules(value)
        elif classes or not value:  # an empty list, or items of a type alone, pass as they are
            for each in value:
                if type(each) not in classes:
                    break
            else:
                return value
        out: list = []
        append = out.append
        try:
            for each in value:
                append(item(each))
        except _Fault as fault:
            fault.keys.append(len(out))
            raise
        return out

    return check


def _map(item: Check, held_to_rules: Check) -> Check:
    def check(value: object) -> dict:
        if type(value) is not dict:
            held_to_rules(value)
        out: dict = {}
        try:
            for key, each in value.items():
                out[key] = item(each)
        except _Fault as fault:
            fault.keys.append(key)
            raise
        return out

    return check


def _as_dict(checks: dict[str, Check]) -> Callable[[dict], dict]:
    return lambda value: {key: checks[key](each) for key, each in value.items()}


def _task(checks: dict[str, Check]) -> Callable[[dict], TaskSpec]:
    ambiguity, deps, description, markers, effort, task_id, facts = map(checks.get, sorted(checks))
    return lambda raw: TaskSpec(
        id=task_id(raw["id"]),
        description=description(raw.get("description", "")),
        domain_markers=frozenset(markers(raw.get("domain_markers", _EMPTY))),
        ambiguity=float(ambiguity(raw.get("ambiguity", 0.0))),
        expected_effort=effort(raw.get("expected_effort", 0)),
        reference_facts=frozenset(facts(raw.get("reference_facts", _EMPTY))),
        depends_on=frozenset(deps(raw.get("depends_on", _EMPTY))),
    )


def _agent(checks: dict[str, Check]) -> Callable[[dict], AgentSpec]:
    behavior, capabilities, capacity, performance, agent_id = map(checks.get, sorted(checks))
    return lambda raw: AgentSpec(
        id=agent_id(raw["id"]),
        capabilities=frozenset(capabilities(raw.get("capabilities", _EMPTY))),
        capacity=capacity(raw.get("capacity", 1)),
        historical_performance=performance(raw.get("historical_performance", {})),
        # a repeated (task, attempt) is reported once the whole document passes
        behavior=dict(behavior(raw.get("behavior", _EMPTY))),
    )


def _row(checks: dict[str, Check]) -> Callable[[dict], tuple[tuple[str, int], BehaviorRow]]:
    scores, attempt, content, contingent, confidence, emitted, latency, task_id = map(
        checks.get, sorted(checks)
    )

    def build(raw: dict) -> tuple[tuple[str, int], BehaviorRow]:
        """An absent property takes the row's default without a check call."""
        key = (task_id(raw["task_id"]), attempt(raw["attempt"]))
        return key, BehaviorRow(
            content(raw["content"]),
            emitted(raw["emitted_facts"]) if "emitted_facts" in raw else _NO_FACTS,
            float(confidence(raw["declared_confidence"])) if "declared_confidence" in raw else 0.5,
            float(latency(raw["latency"])) if "latency" in raw else 1.0,
            scores(raw["annotated_scores"]) if "annotated_scores" in raw else None,
            tuple(contingent(raw["contingent_facts"])) if "contingent_facts" in raw else (),
        )

    return build


def _names(names: tuple[str, ...]) -> Callable[[dict[str, Check]], Callable[[dict], tuple]]:
    """A builder of the tuple of an object's required `names`, in that order."""

    def builder(checks: dict[str, Check]) -> Callable[[dict], tuple]:
        ordered = [(name, checks[name]) for name in names]
        return lambda raw: tuple([check(raw[name]) for name, check in ordered])

    return builder


_ROW = "#/properties/agents/items/properties/behavior/items"
_BUILDERS = {
    "#/properties/tasks/items": _task,
    "#/properties/agents/items": _agent,
    _ROW: _row,
    _ROW + "/properties/annotated_scores": _names(_SCORE_NAMES),
    _ROW + "/properties/contingent_facts/items": _names(_CONTINGENT_NAMES),
}
_check_document = _compile(_SCHEMA)


def _check_duplicate_rows(doc: dict, agents: tuple[AgentSpec, ...]) -> None:
    """No agent has two behavior rows for one (task, attempt); `doc` has passed the schema."""
    for i, (raw, agent) in enumerate(zip(doc["agents"], agents)):
        rows = raw.get("behavior", _EMPTY)
        if len(agent.behavior) < len(rows):
            keys = [(row["task_id"], int(row["attempt"])) for row in rows]
            first: dict[tuple[str, int], int] = {}
            j = next(j for j, key in enumerate(keys) if first.setdefault(key, j) != j)
            message = f"duplicate behavior row for task {keys[j][0]!r} attempt {keys[j][1]}"
            raise ScenarioValidationError(f"$.agents[{i}].behavior[{j}]", message)


def _check_cross_references(scenario: Scenario) -> None:
    task_ids: set[str] = set()
    for i, task in enumerate(scenario.tasks):
        if task.id in task_ids:
            raise ScenarioValidationError(f"$.tasks[{i}].id", f"duplicate task id {task.id!r}")
        task_ids.add(task.id)
    for i, task in enumerate(scenario.tasks):
        unknown = task.depends_on - task_ids
        if unknown:
            raise ScenarioValidationError(
                f"$.tasks[{i}].depends_on", f"unknown task id {min(unknown)!r}"
            )

    agent_ids: set[str] = set()
    for i, agent in enumerate(scenario.agents):
        if agent.id in agent_ids:
            raise ScenarioValidationError(
                f"$.agents[{i}].id", f"duplicate agent id {agent.id!r}"
            )
        agent_ids.add(agent.id)
        unknown = {task_id for task_id, _ in agent.behavior if task_id not in task_ids}
        if unknown:
            raise ScenarioValidationError(
                f"$.agents[{i}].behavior",
                f"behavior row references unknown task {min(unknown)!r}",
            )

    for task_id, agent_id in sorted(scenario.static_assignments.items()):
        if task_id not in task_ids:
            raise ScenarioValidationError(
                "$.static_assignments", f"unknown task id {task_id!r}"
            )
        if agent_id not in agent_ids:
            raise ScenarioValidationError(
                "$.static_assignments", f"unknown agent id {agent_id!r}"
            )

    for task_id in sorted(scenario.gold_answers):
        if task_id not in task_ids:
            raise ScenarioValidationError("$.gold_answers", f"unknown task id {task_id!r}")

    cycle = find_cycle({task.id: task for task in scenario.tasks})
    if cycle:
        raise ScenarioValidationError("$.tasks", str(CycleError(cycle)))


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario back to disk in canonical form."""
    Path(path).write_text(
        json.dumps(scenario.to_dict(), indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
