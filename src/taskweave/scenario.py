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
from functools import reduce
from operator import itemgetter
from pathlib import Path

from ._collector import collector_paused
from ._files import write_text
from ._record import Frozen, _set
from ._schema import _Fault, _at, compile_schema
from .agents import BehaviorRow, ScriptedAgent, check_capacity
from .errors import CycleError, ScenarioParseError, ScenarioValidationError
from .graph import TaskGraph, TaskSpec, build_graph, find_cycle

_SCHEMA = json.loads((Path(__file__).parent / "schemas/scenario.schema.json").read_text("utf-8"))
SCHEMA_VERSION = _SCHEMA["properties"]["schema_version"]["const"]
_SCORE_NAMES = ("coherence", "factuality", "relevance")  # the order of a score triple
_CONTINGENT_NAMES = ("if_visible", "emit")  # the order of a contingent pair


class AgentSpec(Frozen):
    """Immutable agent descriptor: routing seed plus scripted behavior table."""

    __slots__ = _fields = ("id", "capabilities", "capacity", "historical_performance", "behavior")

    def __init__(  # a mapping left out is a new empty one
        self,
        id: str,
        capabilities: frozenset[str] = frozenset(),
        capacity: int = 1,
        historical_performance: dict[str, float] | None = None,
        behavior: dict[tuple[str, int], BehaviorRow] | None = None,
    ) -> None:
        check_capacity(capacity)
        historical_performance = {} if historical_performance is None else historical_performance
        for marker, value in historical_performance.items():
            if math.isnan(value):
                raise ValueError(f"historical_performance[{marker!r}] is NaN")  # others clamp
        self._fill(id, capabilities, capacity, historical_performance, {} if behavior is None else behavior)

    def build(self) -> ScriptedAgent:
        """Fresh runtime agent; agents mutate during a run, specs never do."""
        return ScriptedAgent(self.id, self.capabilities, self.capacity, self.historical_performance, dict(self.behavior))


class Scenario(Frozen):
    _fields = (
        "name", "description", "tasks", "agents", "contradiction_pairs", "gold_answers", "static_assignments",
        "defaults",
    )
    # `_reference_facts` is no field, so `==` ignores the cached union; a scenario can be weakly referenced
    __slots__ = (*_fields, "_reference_facts", "__weakref__")

    def __init__(  # a mapping left out is a new empty one
        self,
        name: str = "",
        description: str = "",
        tasks: tuple[TaskSpec, ...] = (),
        agents: tuple[AgentSpec, ...] = (),
        contradiction_pairs: tuple[tuple[str, str], ...] = (),
        gold_answers: dict[str, str] | None = None,
        static_assignments: dict[str, str] | None = None,
        defaults: dict | None = None,
    ) -> None:
        mappings = [{} if mapping is None else mapping for mapping in (gold_answers, static_assignments, defaults)]
        self._fill(name, description, tasks, agents, contradiction_pairs, *mappings, None)  # no fact union yet
        _check_cross_references(self)

    def build_graph(self) -> TaskGraph:
        return build_graph(self.tasks)

    def build_agents(self) -> dict[str, ScriptedAgent]:
        return {spec.id: spec.build() for spec in self.agents}

    def reference_facts(self) -> frozenset[str]:
        """Union of every task's reference facts: the run-level coverage target, built on first call."""
        if self._reference_facts is None:
            _set(self, "_reference_facts", frozenset().union(*(t.reference_facts for t in self.tasks)))
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
            "tasks": [_field_dict(t) for t in self.tasks],
            "agents": [
                {
                    **_field_dict(a),
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


def _field_dict(spec: object) -> dict:
    """A spec's or a row's fields by name in declaration order, sets as sorted lists."""
    return {
        name: sorted(value) if isinstance(value, frozenset) else value
        for name in spec._fields
        for value in [getattr(spec, name)]
    }


def _row_to_dict(task_id: str, attempt: int, row: BehaviorRow) -> dict:
    out = {"task_id": task_id, "attempt": attempt, **_field_dict(row)}
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
# Each hot node's built form (see `compile_schema`); `_name(s, s)` is the build's one copy of the name `s`.
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
_NAMES = dict(TaskSpec=TaskSpec, AgentSpec=AgentSpec, BehaviorRow=BehaviorRow, _facts=_facts, _name=_POOL.setdefault)
_check_document = compile_schema(_SCHEMA, _BUILT, _NAMES)


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
