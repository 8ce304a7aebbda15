"""Scenario files: loading, validation, and round-trippable serialization.

A scenario is the complete deterministic description of a run: the task graph,
the agent pool with scripted behavior tables, contradiction pairs, gold
answers for compliance tasks, static-variant assignments, and config defaults.
`schemas/scenario.schema.json` is the published contract for the format. The
loader enforces it in one hand-written walk that builds the specs as it
checks them, then checks cross-references; every error carries a JSON path.
The test suite holds the walk to the schema, with jsonschema as the oracle.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .agents import AgentProfile, BehaviorRow, ScriptedAgent
from .errors import CycleError, ScenarioParseError, ScenarioValidationError
from .graph import TaskGraph, TaskSpec, build_graph, find_cycle

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AgentSpec:
    """Immutable agent descriptor: profile seed plus scripted behavior table."""

    id: str
    capabilities: frozenset[str] = frozenset()
    capacity: int = 1
    historical_performance: dict[str, float] = field(default_factory=dict)
    behavior: dict[tuple[str, int], BehaviorRow] = field(default_factory=dict)

    def build(self) -> ScriptedAgent:
        """Fresh runtime agent; profiles mutate during a run, specs never do."""
        profile = AgentProfile(
            id=self.id,
            capabilities=self.capabilities,
            capacity=self.capacity,
            historical_performance=dict(self.historical_performance),
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
            "tasks": [
                {
                    "id": t.id,
                    "description": t.description,
                    "domain_markers": sorted(t.domain_markers),
                    "ambiguity": t.ambiguity,
                    "expected_effort": t.expected_effort,
                    "reference_facts": sorted(t.reference_facts),
                    "depends_on": sorted(t.depends_on),
                }
                for t in self.tasks
            ],
            "agents": [
                {
                    "id": a.id,
                    "capabilities": sorted(a.capabilities),
                    "capacity": a.capacity,
                    "historical_performance": {
                        k: a.historical_performance[k]
                        for k in sorted(a.historical_performance)
                    },
                    "behavior": [
                        _row_to_dict(task_id, attempt, row)
                        for (task_id, attempt), row in sorted(a.behavior.items())
                    ],
                }
                for a in self.agents
            ],
            "contradiction_pairs": [list(pair) for pair in self.contradiction_pairs],
            "gold_answers": {k: self.gold_answers[k] for k in sorted(self.gold_answers)},
            "static_assignments": {
                k: self.static_assignments[k] for k in sorted(self.static_assignments)
            },
            "defaults": self.defaults,
        }
        return doc


def _row_to_dict(task_id: str, attempt: int, row: BehaviorRow) -> dict:
    out: dict = {
        "task_id": task_id,
        "attempt": attempt,
        "content": row.content,
        "emitted_facts": sorted(row.emitted_facts),
        "declared_confidence": row.declared_confidence,
        "latency": row.latency,
    }
    if row.annotated_scores is not None:
        coherence, factuality, relevance = row.annotated_scores
        out["annotated_scores"] = {
            "coherence": coherence,
            "factuality": factuality,
            "relevance": relevance,
        }
    if row.contingent_facts:
        out["contingent_facts"] = [
            {"if_visible": trigger, "emit": fact} for trigger, fact in row.contingent_facts
        ]
    return out


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def scenario_from_dict(doc: object) -> Scenario:
    """Validate a parsed scenario document and build the Scenario in one walk.

    The walk applies the rules of `schemas/scenario.schema.json` (type, range,
    required and unknown keys, const, enum) with jsonschema's messages and
    JSON paths, so the first fault raises the ScenarioValidationError
    jsonschema would report for it. Properties are visited in name order,
    which is the order jsonschema's errors take when sorted by path. Duplicate
    behavior rows and cross-references are checked once the whole document
    has passed.
    """
    top = _object(doc, "$", _TOP_KEYS, ("schema_version", "tasks", "agents"))
    get = top.get
    deferred: list[ScenarioValidationError] = []
    agents = tuple(
        _agent(raw, f"$.agents[{i}]", deferred)
        for i, raw in enumerate(_array(top["agents"], "$.agents"))
    )
    pairs_path = "$.contradiction_pairs"
    pairs = tuple(
        _pair(raw, f"{pairs_path}[{i}]")
        for i, raw in enumerate(_array(get("contradiction_pairs", _EMPTY), pairs_path))
    )
    defaults = _defaults(get("defaults", _NO_KEYS), "$.defaults")
    description = _string(get("description", ""), "$", "description")
    gold_answers = _string_map(get("gold_answers", _NO_KEYS), "$.gold_answers")
    name = _string(get("name", ""), "$", "name")
    version = top["schema_version"]
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ScenarioValidationError("$.schema_version", f"{SCHEMA_VERSION!r} was expected")
    static_assignments = _string_map(get("static_assignments", _NO_KEYS), "$.static_assignments")
    tasks = tuple(
        _task(raw, f"$.tasks[{i}]") for i, raw in enumerate(_array(top["tasks"], "$.tasks"))
    )
    if deferred:
        raise deferred[0]

    scenario = Scenario(
        name=name,
        description=description,
        tasks=tasks,
        agents=agents,
        contradiction_pairs=pairs,
        gold_answers=gold_answers,
        static_assignments=static_assignments,
        defaults=defaults,
    )
    _check_cross_references(scenario)
    return scenario


# -- the validating walk -------------------------------------------------------
#
# Each helper checks one schema node and returns the value to build from.
# Scalar helpers take the parent's path and the key (property name or array
# index) and build the child's path only to report a fault. Messages are
# jsonschema's own wording; paths use its JSON-path notation.

_EMPTY: list = []
_NO_KEYS: dict = {}
_IDENTIFIER = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")

_TOP_KEYS = frozenset(
    {"schema_version", "name", "description", "tasks", "agents", "contradiction_pairs",
     "gold_answers", "static_assignments", "defaults"}
)
_TASK_KEYS = frozenset(
    {"id", "description", "domain_markers", "ambiguity", "expected_effort", "reference_facts",
     "depends_on"}
)
_AGENT_KEYS = frozenset({"id", "capabilities", "capacity", "historical_performance", "behavior"})
_ROW_KEYS = frozenset(
    {"task_id", "attempt", "content", "emitted_facts", "declared_confidence", "latency",
     "annotated_scores", "contingent_facts"}
)
_ROW_REQUIRED = ("task_id", "attempt", "content")
_SCORE_KEYS = ("coherence", "factuality", "relevance")
_SCORE_KEY_SET = frozenset(_SCORE_KEYS)
_CONTINGENT_KEYS = ("if_visible", "emit")
_CONTINGENT_KEY_SET = frozenset(_CONTINGENT_KEYS)
_WEIGHT_KEYS = ("alpha", "beta", "gamma")
_WEIGHT_KEY_SET = frozenset(_WEIGHT_KEYS)
_DEFAULT_KEYS = frozenset(
    {"seed", "theta", "k", "weights", "domain_weights", "w1", "w2", "severity_threshold",
     "revision_budget", "fact_threshold", "adapt_decrement", "scorer", "scorer_fallback"}
)
_SCORERS = ["lexical", "scripted"]
_SCORER_FALLBACKS = ["lexical", None]


def _at(path: str, key: str | int) -> str:
    """JSON path of `key` under `path`: `$.a[0].b`, or `$['a b']` for other names."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    if _IDENTIFIER.match(key):
        return f"{path}.{key}"
    escaped = key.replace("\\", "\\\\").replace("'", "\\'")
    return f"{path}['{escaped}']"


def _type_error(value: object, path: str, type_name: str) -> ScenarioValidationError:
    return ScenarioValidationError(path, f"{value!r} is not of type {type_name!r}")


def _object(value: object, path: str, allowed: frozenset, required: tuple = ()) -> dict:
    """A closed object: required keys present, no key outside `allowed`."""
    if not isinstance(value, dict):
        raise _type_error(value, path, "object")
    for key in required:
        if key not in value:
            raise ScenarioValidationError(path, f"{key!r} is a required property")
    if not value.keys() <= allowed:
        extras = sorted((key for key in value if key not in allowed), key=str)
        verb = "was" if len(extras) == 1 else "were"
        listed = ", ".join(repr(key) for key in extras)
        raise ScenarioValidationError(
            path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        )
    return value


def _map(value: object, path: str) -> dict:
    """An open object whose values the caller checks."""
    if not isinstance(value, dict):
        raise _type_error(value, path, "object")
    return value


def _array(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise _type_error(value, path, "array")
    return value


def _string(value: object, path: str, key: str | int, non_empty: bool = False) -> str:
    if not isinstance(value, str):
        raise _type_error(value, _at(path, key), "string")
    if non_empty and not value:
        raise ScenarioValidationError(_at(path, key), f"{value!r} should be non-empty")
    return value


def _strings(value: object, path: str, key: str) -> frozenset[str]:
    if not isinstance(value, list):
        raise _type_error(value, _at(path, key), "array")
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise _type_error(item, f"{_at(path, key)}[{i}]", "string")
    return frozenset(value)


def _string_map(value: object, path: str) -> dict[str, str]:
    for key, item in _map(value, path).items():
        _string(item, path, key, non_empty=True)
    return dict(value)


def _number(value: object, path: str, key: str, minimum: int | None = 0, maximum: int | None = 1):
    """A JSON number (never a bool) in [minimum, maximum]; None drops a bound."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _type_error(value, _at(path, key), "number")
    if minimum is not None and value < minimum:
        raise ScenarioValidationError(
            _at(path, key), f"{value!r} is less than the minimum of {minimum!r}"
        )
    if maximum is not None and value > maximum:
        raise ScenarioValidationError(
            _at(path, key), f"{value!r} is greater than the maximum of {maximum!r}"
        )
    return value


def _integer(value: object, path: str, key: str, minimum: int | None = None) -> int:
    """A JSON integer: an int, or a float with no fractional part, never a bool."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise _type_error(value, _at(path, key), "integer")
    return int(_number(value, path, key, minimum, None))


def _enum(value: object, path: str, key: str, allowed: list) -> object:
    if value not in allowed:
        raise ScenarioValidationError(_at(path, key), f"{value!r} is not one of {allowed!r}")
    return value


def _task(raw: object, path: str) -> TaskSpec:
    task = _object(raw, path, _TASK_KEYS, ("id",))
    get = task.get
    ambiguity = _number(get("ambiguity", 0.0), path, "ambiguity")
    depends_on = _strings(get("depends_on", _EMPTY), path, "depends_on")
    description = _string(get("description", ""), path, "description")
    domain_markers = _strings(get("domain_markers", _EMPTY), path, "domain_markers")
    expected_effort = _integer(get("expected_effort", 0), path, "expected_effort", 0)
    task_id = _string(task["id"], path, "id", non_empty=True)
    reference_facts = _strings(get("reference_facts", _EMPTY), path, "reference_facts")
    try:
        return TaskSpec(
            id=task_id,
            description=description,
            domain_markers=domain_markers,
            ambiguity=float(ambiguity),
            expected_effort=expected_effort,
            reference_facts=reference_facts,
            depends_on=depends_on,
        )
    except ValueError as exc:  # a range the schema admits, such as NaN
        raise ScenarioValidationError(path, str(exc)) from exc


def _agent(raw: object, path: str, deferred: list[ScenarioValidationError]) -> AgentSpec:
    agent = _object(raw, path, _AGENT_KEYS, ("id",))
    get = agent.get
    behavior: dict[tuple[str, int], BehaviorRow] = {}
    behavior_path = path + ".behavior"
    for i, row_raw in enumerate(_array(get("behavior", _EMPTY), behavior_path)):
        row_path = f"{behavior_path}[{i}]"
        key, row = _row(row_raw, row_path)
        if key in behavior and not deferred:
            deferred.append(
                ScenarioValidationError(
                    row_path, f"duplicate behavior row for task {key[0]!r} attempt {key[1]}"
                )
            )
        behavior.setdefault(key, row)
    capabilities = _strings(get("capabilities", _EMPTY), path, "capabilities")
    capacity = _integer(get("capacity", 1), path, "capacity", 1)
    performance_path = path + ".historical_performance"
    performance = _map(get("historical_performance", _NO_KEYS), performance_path)
    for marker, value in performance.items():
        _number(value, performance_path, marker)
    agent_id = _string(agent["id"], path, "id", non_empty=True)
    return AgentSpec(
        id=agent_id,
        capabilities=capabilities,
        capacity=capacity,
        historical_performance=dict(performance),
        behavior=behavior,
    )


def _row(raw: object, path: str) -> tuple[tuple[str, int], BehaviorRow]:
    row = _object(raw, path, _ROW_KEYS, _ROW_REQUIRED)
    get = row.get
    annotated = None
    if "annotated_scores" in row:
        scores_path = path + ".annotated_scores"
        scores = _object(row["annotated_scores"], scores_path, _SCORE_KEY_SET, _SCORE_KEYS)
        annotated = tuple(_number(scores[key], scores_path, key) for key in _SCORE_KEYS)
    attempt = _integer(row["attempt"], path, "attempt", 0)
    content = _string(row["content"], path, "content")
    contingent: tuple[tuple[str, str], ...] = ()
    if "contingent_facts" in row:
        contingent_path = path + ".contingent_facts"
        contingent = tuple(
            _contingent(item, f"{contingent_path}[{i}]")
            for i, item in enumerate(_array(row["contingent_facts"], contingent_path))
        )
    confidence = _number(get("declared_confidence", 0.5), path, "declared_confidence")
    emitted = _strings(get("emitted_facts", _EMPTY), path, "emitted_facts")
    latency = _number(get("latency", 1.0), path, "latency", maximum=None)
    task_id = _string(row["task_id"], path, "task_id", non_empty=True)
    try:
        built = BehaviorRow(
            content=content,
            emitted_facts=emitted,
            declared_confidence=float(confidence),
            latency=float(latency),
            annotated_scores=annotated,
            contingent_facts=contingent,
        )
    except ValueError as exc:  # a range the schema admits, such as NaN
        raise ScenarioValidationError(path, str(exc)) from exc
    return (task_id, attempt), built


def _contingent(raw: object, path: str) -> tuple[str, str]:
    item = _object(raw, path, _CONTINGENT_KEY_SET, _CONTINGENT_KEYS)
    emit = _string(item["emit"], path, "emit", non_empty=True)
    trigger = _string(item["if_visible"], path, "if_visible", non_empty=True)
    return (trigger, emit)


def _pair(raw: object, path: str) -> tuple[str, str]:
    pair = _array(raw, path)
    if len(pair) < 2:
        raise ScenarioValidationError(path, f"{pair!r} is too short")
    if len(pair) > 2:
        raise ScenarioValidationError(path, f"{pair!r} is too long")
    return (_string(pair[0], path, 0, non_empty=True), _string(pair[1], path, 1, non_empty=True))


def _defaults(raw: object, path: str) -> dict:
    defaults = dict(_object(raw, path, _DEFAULT_KEYS))
    for key in sorted(defaults):
        value = defaults[key]
        if key == "seed":
            defaults[key] = _integer(value, path, key)
        elif key in ("k", "revision_budget"):
            defaults[key] = _integer(value, path, key, 1)
        elif key == "weights":
            _weights(value, f"{path}.{key}")
        elif key == "domain_weights":
            table_path = f"{path}.{key}"
            for marker, weights in _map(value, table_path).items():
                _weights(weights, _at(table_path, marker))
        elif key == "scorer":
            _enum(value, path, key, _SCORERS)
        elif key == "scorer_fallback":
            _enum(value, path, key, _SCORER_FALLBACKS)
        else:  # theta, w1, w2, the thresholds and adapt_decrement
            _number(value, path, key)
    return defaults


def _weights(raw: object, path: str) -> None:
    weights = _object(raw, path, _WEIGHT_KEY_SET, _WEIGHT_KEYS)
    for key in _WEIGHT_KEYS:
        _number(weights[key], path, key)


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
