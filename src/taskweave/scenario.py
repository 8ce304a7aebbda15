"""Scenario files: loading, validation, and round-trippable serialization.

A scenario is the complete deterministic description of a run: the task graph,
the agent pool with scripted behavior tables, contradiction pairs, gold
answers for compliance tasks, static-variant assignments, and config defaults.
`schemas/scenario.schema.json` is the published contract for the format and
the one place its rules are written: the loader generates checks from it at
import that build the specs as they check them; a Scenario checks its cross-references.
Every error carries a JSON path and jsonschema's message for the fault; the
test suite holds the loader to the schema, with jsonschema as the oracle.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from functools import cache, reduce
from operator import itemgetter
from pathlib import Path
from types import CodeType
from typing import Any, Callable

from ._collector import collector_paused
from ._files import write_text
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
        if self.capacity < 1:
            raise ValueError("capacity must be a positive integer")
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

    def __post_init__(self) -> None:
        _check_cross_references(self)

    def build_graph(self) -> TaskGraph:
        return build_graph(self.tasks)

    def build_agents(self) -> dict[str, ScriptedAgent]:
        return {spec.id: spec.build() for spec in self.agents}

    def reference_facts(self) -> frozenset[str]:
        """Union of every task's reference facts: the run-level coverage target, built on first call."""
        if "_reference_facts" not in self.__dict__:  # no field, so `==` and `replace` ignore it
            object.__setattr__(self, "_reference_facts", frozenset().union(*(t.reference_facts for t in self.tasks)))
        return self._reference_facts

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
    finally:
        _POOL.clear()
    _check_duplicate_rows(doc, top["agents"])
    del top["schema_version"]  # the root's other properties are Scenario fields; an absent one, its default
    return Scenario(**top)


# -- the schema, compiled ---------------------------------------------------------
#
# `_compile` turns each schema node into a check: a function that takes the
# node's value and returns the value to build from (an integer node's integral
# float as an int, an array as a tuple) or raises `_Fault` with jsonschema's message.
# The fast path is Python source generated from the schema and `exec`ed once:
# string and number nodes test their value inline, and each hot node (`_BUILT`)
# inlines its key-set test and its properties' tests, then builds its spec or
# tuple. A number passes only as an int or float (an integer node: an int)
# inside its bounds and ±inf, so NaN, ±inf and bools never pass. Any other
# value takes the slow path: each rule of the node in keyword order, with
# jsonschema's message, then each property's check, then the spec
# constructors, which reject the NaN and inf the schema admits. A closed object
# runs its rules only if its key-set test, which covers them all, fails. A fault
# collects its keys as it unwinds, so only a reported fault gets a path. A
# closed object that holds a fault is walked again in property-name order, the
# order of jsonschema's errors sorted by path; arrays and maps report their
# first bad item. An absent property of a hot node takes its `default`.

Check = Callable[[Any], Any]
_KEYWORDS = {  # by the node's type; a `$ref` stands alone, the root adds annotations
    None: {"enum", "const"},
    "string": {"type", "minLength"},
    "number": {"type", "minimum", "maximum"},
    "integer": {"type", "minimum", "maximum"},
    "array": {"type", "items", "minItems", "maxItems"},
    "object": {"type", "required", "properties", "additionalProperties"},
}
_ANNOTATIONS = {"$schema", "$id", "$defs", "title", "default"}
_TYPES = dict(object=dict, array=list, string=str, number=(int, float), integer=(int, float))
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


def _held_to_rules(schema: dict, value: object) -> object:
    """The slow path of a node: each of its rules, in the schema's keyword order."""
    for keyword, arg in schema.items():
        message = keyword in _RULES and _RULES[keyword](value, arg, schema)
        if message:
            raise _Fault(message)
    return int(value) if schema.get("type") == "integer" else value


def _off(value: object) -> object:
    """The slow path of a hot child called from its parent's fast path: the parent's."""
    raise _Fault("off the fast path")


def _compile(schema: dict, at: str = "#") -> Check:
    """The check of one schema node; `at`, its JSON pointer, picks a built form."""
    if schema.keys() == {"$ref"}:
        parts = schema["$ref"].removeprefix("#/").split("/")
        return _compile(reduce(dict.__getitem__, parts, _SCHEMA), schema["$ref"])
    kind = schema.get("type")
    unsupported = schema.keys() - _ANNOTATIONS - _KEYWORDS.get(kind, set())
    if unsupported:
        raise ValueError(f"unsupported schema keywords at {at}: {sorted(unsupported)}")
    slow = lambda value: _held_to_rules(schema, value)  # noqa: E731
    test = _test(schema, "v")
    if test:
        return eval(_leaf(test), {"slow": slow, "inf": math.inf})
    if kind == "array":
        return _array(schema, _compile(schema["items"], at + "/items"), slow)
    if kind != "object":
        return slow
    extra = schema.get("additionalProperties")
    if isinstance(extra, dict) and "properties" not in schema:
        return _map(_compile(extra, at + "/additionalProperties"), slow)
    if extra is not False or "properties" not in schema:
        raise ValueError(f"unsupported object node at {at}: neither a closed object nor a map")
    properties = schema["properties"]
    checks = {key: _compile(properties[key], f"{at}/properties/{key}") for key in properties}
    allowed, required = frozenset(checks), frozenset(schema.get("required", ()))
    build = None  # a hot node's build from checked values, generated below

    def walk(value: object) -> object:
        """A closed object: its rules if its key set fails, then each property's check."""
        if not (type(value) is dict and required <= value.keys() <= allowed):
            slow(value)
        try:
            checked = {key: checks[key](each) for key, each in value.items()}
            return build(checked) if build else checked
        except _Fault:
            for key in sorted(value):  # the first fault by property name
                try:
                    checks[key](value[key])
                except _Fault as fault:
                    fault.keys.append(key)
                    raise fault from None
            raise
        except (ValueError, ArithmeticError) as exc:  # a value the schema admits: NaN, inf
            raise _Fault(str(exc)) from exc

    if at in _BUILT:
        namespace = {**_NAMES, "walk": walk, "allowed": allowed, "required": required}
        namespace.update((f"check_{key}", check) for key, check in checks.items())
        exec(_source(schema, at), namespace)
        build = namespace["build"]
        return namespace["fast"]
    return walk


def _test(schema: dict, x: str) -> str | None:
    """Source of the fast test of `x` against a string or number node; None for others."""
    kind = schema.get("type")
    if kind == "string":
        shortest = schema.get("minLength", 0)
        return f"type({x}) is str" + (f" and len({x}) >= {shortest}" if shortest else "")
    if kind not in ("number", "integer"):
        return None
    classes = "is int" if kind == "integer" else "in (int, float)"
    low = f"{schema['minimum']!r} <=" if "minimum" in schema else "-inf <"
    high = f"<= {schema['maximum']!r}" if "maximum" in schema else "< inf"
    return f"type({x}) {classes} and {low} {x} {high}"


@cache
def _leaf(test: str) -> CodeType:
    """The fast path of a string or number node, compiled once per distinct test."""
    return compile(f"lambda v: v if {test} else slow(v)", "<schema>", "eval")


def _tests(schema: dict, x: str, hot: bool) -> list[str]:
    """Statements that return `slow(v)` unless the local `x` is on `schema`'s fast path."""
    test, each = _test(schema, x), _test(schema.get("items", {}), "each")
    if test:
        return [f"if not ({test}): return slow(v)"]
    if each and not schema.keys() & {"minItems", "maxItems"}:
        return [
            f"if type({x}) is not list: return slow(v)",
            f"for each in {x}:",
            f"    if not ({each}): return slow(v)",
        ]
    call = f"check_{x}({x}, _off)" if hot else f"check_{x}({x})"
    return ["try:", f"    {x} = {call}", "except _Fault:", "    return slow(v)"]


def _source(schema: dict, at: str) -> str:
    """A hot node's `fast` path and the slow path's `build`, with each property in
    the local named after it. `fast` calls a hot child on its fast path alone
    (`_off`), so all it builds from has passed its tests; `build` gets checked values."""
    required = schema.get("required", ())
    fast = [
        "def fast(v, slow=walk):",
        "    if type(v) is not dict or not required <= v.keys() <= allowed:",
        "        return slow(v)",
    ]
    build = ["def build(d):", "    new = construct"]
    for key, node in schema["properties"].items():
        default, pad = node.get("default"), " " * (4 if key in required else 8)
        build.append(f"    {key} = d.get({key!r}, {default!r})")
        fast += [] if key in required else [f"    if {key!r} in v:"]
        fast.append(f"{pad}{key} = v[{key!r}]")
        fast += [pad + line for line in _tests(node, key, f"{at}/properties/{key}" in _BUILT)]
        fast += [] if key in required else ["    else:", f"        {key} = {default!r}"]
    tail = ["    try:", f"        return {_BUILT[at]}", "    except (ValueError, ArithmeticError):"]
    return "\n".join([*fast, *tail, "        return slow(v)", *build, f"    return {_BUILT[at]}"])


def _array(schema: dict, item: Check, slow: Check) -> Check:
    fewest, most = schema.get("minItems", 0), schema.get("maxItems", math.inf)

    def check(value: object) -> tuple:
        if not (type(value) is list and fewest <= len(value) <= most):
            slow(value)
        out: list = []
        append = out.append
        try:
            for each in value:
                append(item(each))
        except _Fault as fault:
            fault.keys.append(len(out))
            raise
        return tuple(out)

    return check


def _map(item: Check, slow: Check) -> Check:
    def check(value: object) -> dict:
        if type(value) is not dict:
            slow(value)
        out: dict = {}
        try:
            for key, each in value.items():
                out[key] = item(each)
        except _Fault as fault:
            fault.keys.append(key)
            raise
        return out

    return check


# One build's distinct names (each str keyed by itself) and fact sets (each frozenset
# keyed by its members as listed), so a scenario holds one object per distinct value;
# `scenario_from_dict` empties it once its check returns or raises.
_POOL: dict = {}


def _facts(members: list[str]) -> frozenset[str]:
    """The build's one frozenset of `members`; a new one holds the build's one copy of each."""
    key = tuple(members)
    found = _POOL.get(key)
    if found is None:
        found = _POOL[key] = frozenset(map(_POOL.setdefault, members, members))
    return found


_ROW = "#/properties/agents/items/properties/behavior/items"
# Each hot node's built form, an expression over its property names. `new(C, values)`
# makes the record C: as a bare tuple on the fast path, whose tests cover every rule
# C's constructor checks, and through that constructor on the slow path. `_name(s, s)`
# is the build's one copy of the name `s`.
_BUILT = {
    "#/properties/tasks/items": "TaskSpec(_name(id, id), description, _facts(domain_markers),"
    " float(ambiguity), expected_effort, _facts(reference_facts), _facts(depends_on))",
    # a repeated (task, attempt) is reported once the whole document passes
    "#/properties/agents/items": "AgentSpec(id, _facts(capabilities), capacity,"
    " historical_performance, dict(behavior))",
    _ROW: "(_name(task_id, task_id), attempt), new(BehaviorRow, (content, _facts(emitted_facts),"
    " float(declared_confidence), float(latency), annotated_scores, tuple(contingent_facts)))",
    _ROW + "/properties/annotated_scores": ", ".join(_SCORE_NAMES),
    _ROW + "/properties/contingent_facts/items": ", ".join(_CONTINGENT_NAMES),
}
_NAMES = dict(
    inf=math.inf, _Fault=_Fault, _off=_off, TaskSpec=TaskSpec, AgentSpec=AgentSpec,
    BehaviorRow=BehaviorRow, new=tuple.__new__, construct=lambda cls, values: cls(*values),
    _facts=_facts, _name=_POOL.setdefault,
)
_check_document = _compile(_SCHEMA)


def _check_duplicate_rows(doc: dict, agents: tuple[AgentSpec, ...]) -> None:
    """No agent has two behavior rows for one (task, attempt); `doc` has passed the schema."""
    for i, (raw, agent) in enumerate(zip(doc["agents"], agents)):
        rows = raw.get("behavior", ())
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
        if not task.depends_on <= task_ids:
            raise ScenarioValidationError(
                f"$.tasks[{i}].depends_on", f"unknown task id {min(task.depends_on - task_ids)!r}"
            )

    agent_ids: set[str] = set()
    for i, agent in enumerate(scenario.agents):
        if agent.id in agent_ids:
            raise ScenarioValidationError(
                f"$.agents[{i}].id", f"duplicate agent id {agent.id!r}"
            )
        agent_ids.add(agent.id)
        if not task_ids.issuperset(map(itemgetter(0), agent.behavior)):
            unknown = min(task_id for task_id, _ in agent.behavior if task_id not in task_ids)
            raise ScenarioValidationError(
                f"$.agents[{i}].behavior", f"behavior row references unknown task {unknown!r}"
            )

    static = scenario.static_assignments
    if not (static.keys() <= task_ids and agent_ids.issuperset(static.values())):
        for task_id, agent_id in sorted(static.items()):  # sorted to name the first fault
            if task_id not in task_ids:
                raise ScenarioValidationError("$.static_assignments", f"unknown task id {task_id!r}")
            if agent_id not in agent_ids:
                raise ScenarioValidationError("$.static_assignments", f"unknown agent id {agent_id!r}")
    if not scenario.gold_answers.keys() <= task_ids:
        unknown = min(scenario.gold_answers.keys() - task_ids)
        raise ScenarioValidationError("$.gold_answers", f"unknown task id {unknown!r}")
    for i, (fact, other) in enumerate(scenario.contradiction_pairs):
        if fact == other:  # review never critiques a pair within one fact; the report would count it
            raise ScenarioValidationError(f"$.contradiction_pairs[{i}]", f"pair names fact {fact!r} twice")

    cycle = find_cycle({task.id: task for task in scenario.tasks})
    if cycle:
        raise ScenarioValidationError("$.tasks", str(CycleError(cycle)))


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario back to disk in canonical form."""
    write_text(path, json.dumps(scenario.to_dict(), indent=2, sort_keys=False) + "\n")
