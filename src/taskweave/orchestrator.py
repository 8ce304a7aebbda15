"""Main coordination loop: dispatch waves, competitive fan-out, commits, feedback.

Execution is wave-based on a virtual clock. Each wave takes the graph's ready
tasks, routes each (a revision to the agent its critique named, if that agent
has room), executes, stores and commits winners, then reviews. Within a
wave, executions on distinct agents overlap (the wave costs the longest
latency); the static variant instead serializes each agent's queue, which is
what makes an overloaded fixed-role pipeline slow.

Variants:
  static            pinned assignments, no bus feedback, no fan-outs; a
                    bus-less quality gate re-runs low-factuality commits
                    (same agent, next attempt) within the revision budget
  no_parallel       routing and feedback, every dispatch single (the router's k is 1)
  no_feedback       review is never called
  no_memory_sharing agents execute against an empty memory view
"""

from __future__ import annotations

import random
from typing import Mapping, NamedTuple

from ._collector import collector_paused
from ._record import Frozen, _set
from .agents import DEFAULT_ADAPT_DECREMENT, CandidateOutput, adapt_strategy
from .errors import (
    DeadlockError,
    InvalidConfigError,
    InvariantError,
    MissingCommitError,
    ScenarioValidationError,
    ScorerUnavailableError,
)
from .evaluator import DEFAULT_FACT_THRESHOLD, Evaluator
from .feedback import DEFAULT_SEVERITY_THRESHOLD, FeedbackBus
from .graph import TaskGraph, TaskSpec, TaskStatus
from .memory import SharedMemory
from .metrics import RunReport, build_report
from .routing import (
    DEFAULT_CAPACITY_WEIGHT,
    DEFAULT_K,
    DEFAULT_PERF_WEIGHT,
    DEFAULT_THETA,
    Router,
    mode_value,
)
from .runlog import RunLog
from .scenario import Scenario
from .scoring import (
    WEIGHT_KEYS,
    LexicalScorer,
    Scorer,
    ScoringWeights,
    ScriptedScorer,
    check_unit_setting,
    scorer_factory,
)

DEFAULT_REVISION_BUDGET = 3
_INF = float("inf")

# Settings that must lie in [0, 1], as the scenario schema's `defaults` states.
_UNIT_SETTINGS = ("theta", "w1", "w2", "severity_threshold", "fact_threshold", "adapt_decrement")
_INT_SETTINGS = ("seed", "k", "revision_budget")
_FLAG_SETTINGS = ("static", "no_feedback", "no_memory_sharing", "no_parallel")


class RunConfig(Frozen):
    """Variant switchboard and tunables for one run."""

    __slots__ = _fields = (
        "seed", "theta", "k", "weights", "domain_weights", "w1", "w2", "severity_threshold", "revision_budget",
        "fact_threshold", "adapt_decrement", "scorer", "scorer_fallback",
        "static", "no_feedback", "no_memory_sharing", "no_parallel",
    )

    def __init__(  # the shared default mapping is never mutated: a config is immutable
        self,
        seed: int = 0,
        theta: float = DEFAULT_THETA,
        k: int = DEFAULT_K,
        weights: ScoringWeights = ScoringWeights(),
        domain_weights: dict[str, ScoringWeights] = {},
        w1: float = DEFAULT_PERF_WEIGHT,
        w2: float = DEFAULT_CAPACITY_WEIGHT,
        severity_threshold: float = DEFAULT_SEVERITY_THRESHOLD,
        revision_budget: int = DEFAULT_REVISION_BUDGET,
        fact_threshold: float = DEFAULT_FACT_THRESHOLD,
        adapt_decrement: float = DEFAULT_ADAPT_DECREMENT,
        scorer: str = "lexical",
        scorer_fallback: str | None = None,
        static: bool = False,
        no_feedback: bool = False,
        no_memory_sharing: bool = False,
        no_parallel: bool = False,
    ) -> None:
        # set first, so that each check below reads a setting by its name
        self._fill(
            seed, theta, k, weights, domain_weights, w1, w2, severity_threshold, revision_budget, fact_threshold,
            adapt_decrement, scorer, scorer_fallback, static, no_feedback, no_memory_sharing, no_parallel,
        )
        for name in _INT_SETTINGS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        for name in _FLAG_SETTINGS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise InvalidConfigError(f"{name} must be a boolean, got {value!r}")
        for name in _UNIT_SETTINGS:
            check_unit_setting(name, getattr(self, name))
        if not isinstance(self.domain_weights, Mapping):
            raise InvalidConfigError(f"domain_weights must be a mapping, got {self.domain_weights!r}")
        for value in (self.weights, *self.domain_weights.values()):
            if not isinstance(value, ScoringWeights):
                raise InvalidConfigError(f"weights must be ScoringWeights, got {value!r}")
        if self.k < 1:
            raise InvalidConfigError(f"k must be at least 1, got {self.k!r}")
        if self.revision_budget < 1:
            raise InvalidConfigError("revision_budget must be at least 1")
        try:
            scorer_factory(self.scorer)
        except ScorerUnavailableError as exc:
            raise InvalidConfigError(str(exc)) from None
        if self.scorer_fallback not in (None, "lexical"):
            raise InvalidConfigError(
                f"scorer_fallback must be 'lexical' or None, got {self.scorer_fallback!r}"
            )

    def with_overrides(self, *overrides: Mapping) -> RunConfig:
        """One new config with every non-None override applied, a later mapping's over an earlier's;
        an unknown key is an error. Each mapping is converted before the next, so its faults come first."""
        clean = dict(zip(self._fields, self._values()))
        for key, value in (item for mapping in overrides for item in mapping.items()):
            if key not in self._fields:
                raise InvalidConfigError(f"unknown setting {key!r}")
            if value is None:
                continue
            if key == "weights":
                value = _weights_from("weights", value)
            if key == "domain_weights" and isinstance(value, Mapping):
                value = {m: _weights_from(f"domain_weights[{m!r}]", w) for m, w in value.items()}
            clean[key] = value
        return type(self)(**clean)


DEFAULT_CONFIG = RunConfig()  # immutable, so shared: the base of every run not given a config


def _weights_from(name: str, value: object) -> object:
    """ScoringWeights from a mapping naming exactly alpha, beta and gamma; other values as given."""
    if not isinstance(value, Mapping):
        return value
    for key in value:
        if key not in WEIGHT_KEYS:
            raise InvalidConfigError(f"{name} has unknown key {key!r}")
    for key in WEIGHT_KEYS:
        if key not in value:
            raise InvalidConfigError(f"{name} is missing key {key!r}")
    return ScoringWeights(**value)


class DocumentSection(NamedTuple):
    task_id: str
    content: str
    facts: frozenset[str]


class FinalDocument(Frozen):
    """Committed contents in deterministic topological order, plus fact unions."""

    __slots__ = _fields = ("sections",)

    def __init__(self, sections: tuple[DocumentSection, ...]) -> None:
        self._fill(sections)

    @property
    def text(self) -> str:
        return "\n\n".join(section.content for section in self.sections)

    @property
    def fact_union(self) -> frozenset[str]:
        facts: set[str] = set()
        for section in self.sections:
            facts |= section.facts
        return frozenset(facts)


def compile_final_output(memory: SharedMemory, graph: TaskGraph) -> FinalDocument:
    """Concatenate committed contents in topological order (ties by task id)."""
    sections = []
    for task_id in graph.topological_order():
        if graph.status(task_id) is not TaskStatus.COMMITTED:
            raise MissingCommitError(f"task {task_id!r} has no committed output")
        entry = memory.committed_entry(task_id)
        if entry is None:
            raise MissingCommitError(f"task {task_id!r} has no committed entry in memory")
        sections.append(DocumentSection(task_id, entry.output.content, entry.output.emitted_facts))
    return FinalDocument(tuple(sections))


class RunResult(Frozen):
    _fields = ("log", "report")
    __slots__ = (*_fields, "memory", "graph", "_document")  # the run's memory and graph, kept for `document`

    def __init__(self, log: RunLog, report: RunReport, *, memory: SharedMemory, graph: TaskGraph) -> None:
        self._fill(log, report, memory, graph, None)

    @property
    @collector_paused
    def document(self) -> FinalDocument:
        """The final document, compiled on first read with the collector paused, as the run was."""
        if self._document is None:
            _set(self, "_document", compile_final_output(self.memory, self.graph))
        return self._document


class Orchestrator:
    """Runs one scenario to completion under one configuration."""

    def __init__(self, scenario: Scenario, config: RunConfig | None = None) -> None:
        self.scenario = scenario
        self.config = config if config is not None else DEFAULT_CONFIG
        self.graph = scenario.build_graph()
        self.agents = scenario.build_agents()
        self.memory = SharedMemory()
        self.bus = FeedbackBus(self.memory)
        self.router = Router(
            self.agents,
            theta=self.config.theta,
            k=1 if self.config.no_parallel else self.config.k,
            perf_weight=self.config.w1,
            capacity_weight=self.config.w2,
        )
        self.evaluator = Evaluator(
            memory=self.memory,
            scorer=self._build_scorer(),
            weights=self.config.weights,
            domain_weights=self.config.domain_weights,
            fact_threshold=self.config.fact_threshold,
            contradiction_pairs=list(scenario.contradiction_pairs),
        )
        self.log = RunLog()
        self._rng = random.Random(self.config.seed)
        self._clock = 0.0
        self._waves = 0
        self._dispatches = 0
        self._revisions: dict[str, int] = {t.id: 0 for t in scenario.tasks}
        if self.config.static:
            missing = sorted(
                t.id for t in scenario.tasks if t.id not in scenario.static_assignments
            )
            if missing:
                raise ScenarioValidationError(
                    "$.static_assignments",
                    f"static variant needs an assignment for every task; missing {missing}",
                )

    @collector_paused
    def run(self) -> RunResult:
        """Execute the loop with the collector paused and return the result."""
        # The graph is acyclic with known dependencies, so the first uncommitted task in
        # topological order is always ready: the loop ends with every task committed.
        while assignable := self.graph.ready_tasks():
            committed = self._run_wave(sorted(assignable))
            if not committed:
                raise DeadlockError(
                    "no agent has spare capacity for any assignable task"
                )
            self._waves += 1
            if self.config.static:
                self._static_quality_gate(committed)
            elif not self.config.no_feedback:
                self._review_and_process_feedback()

        bound = len(self.graph.tasks) * (1 + self.config.revision_budget) * self.router.k
        if self._dispatches > bound:
            raise InvariantError(f"dispatch bound violated: {self._dispatches} > {bound}")
        winners, tasks = self.memory.committed_count(), len(self.graph.tasks)
        if winners != tasks:  # memory must hold a winner for each task before the log says completed
            raise MissingCommitError(f"memory holds {winners} committed entries for {tasks} tasks")
        self.log.append(
            "terminate",
            self._clock,
            {"reason": "completed", "waves": self._waves, "dispatches": self._dispatches},
        )
        for agent in self.agents.values():
            if agent.load != 0:
                raise InvariantError(f"agent {agent.id} still loaded at the end of the run")
        report = build_report(self.log, self.scenario)
        return RunResult(self.log, report, memory=self.memory, graph=self.graph)

    # -- wave mechanics -----------------------------------------------------

    def _run_wave(self, assignable: list[str]) -> list[str]:
        """Dispatch, store and commit one wave; returns the committed task ids in id order."""
        wave_start, wave = self._clock, self._waves
        graph, agents, memory, log = self.graph, self.agents, self.memory, self.log
        view = memory.empty_view() if self.config.no_memory_sharing else memory.view()
        static, tiebreak = self.config.static, self._rng.random
        static_assignments, route = self.scenario.static_assignments, self.router.route
        # The outputs of each dispatched task, in task id order; and per execution
        # (completion time, seeded tiebreak, dispatch index, output), whose index
        # keeps an exact tie in dispatch order, as a stable sort on the first two would.
        groups: list[tuple[TaskSpec, list[CandidateOutput]]] = []
        executions: list[tuple[float, float, int, CandidateOutput]] = []
        agent_cursor: dict[str, float] = {}
        for task_id in assignable:
            task = graph.tasks[task_id]
            assignees = (static_assignments[task_id],) if static else route(task).assignees
            if not assignees:
                continue
            attempt = self._revisions[task_id]
            mode = mode_value(len(assignees))
            outputs = []
            for agent_id in assignees:
                agent = agents[agent_id]
                agent.load += 1
                start = wave_start
                if static:
                    # Fixed-role agents work their wave queue one task at a time.
                    start = wave_start + agent_cursor.get(agent_id, 0.0)
                    latency = agent.latency(task, attempt)
                    agent_cursor[agent_id] = (start - wave_start) + latency
                output = agent.execute(task, view, attempt, start)
                outputs.append(output)
                executions.append((output.produced_at, tiebreak(), len(executions), output))
                log.append(
                    "dispatch",
                    wave_start,
                    {"task_id": task_id, "agent_id": agent_id, "attempt": attempt, "mode": mode, "wave": wave},
                )
            groups.append((task, outputs))
        if not groups:
            return []
        self._dispatches += len(executions)

        # Versions follow completion time; simultaneous completions are ordered
        # by the seeded tiebreak so replay of one seed is exact.
        executions.sort()
        wave_end = executions[-1][0]
        if wave_end == _INF:  # finite latencies can still sum past the largest float
            output = next(output for produced_at, _, _, output in executions if produced_at == _INF)
            raise InvariantError(
                f"virtual time overflows at task {output.task_id!r} (agent {output.agent_id!r}, "
                f"attempt {output.attempt}): its latencies sum past the largest float"
            )
        for _, _, _, output in executions:
            task_id, agent_id, attempt = output.key
            log.append(
                "store",
                output.produced_at,
                {
                    "task_id": task_id,
                    "agent_id": agent_id,
                    "attempt": attempt,
                    "version": memory.store(output),  # raises on a duplicate key before the append
                    "committed": False,
                    "emitted_facts": sorted(output.emitted_facts),
                    "declared_confidence": output.declared_confidence,
                    "score": None,
                },
            )

        for task, outputs in groups:
            entry = self.evaluator.commit(task, [output.key for output in outputs])
            graph.mark_committed(task.id)
            log.append(
                "commit",
                wave_end,
                {
                    "task_id": task.id,
                    "agent_id": entry.agent_id,
                    "attempt": entry.attempt,
                    "version": entry.version,
                    "score": entry.score.to_dict(),
                },
            )

        for _, _, _, output in executions:
            agents[output.agent_id].load -= 1
        self._clock = wave_end
        return [task.id for task, _ in groups]

    # -- feedback processing --------------------------------------------------

    def _review_and_process_feedback(self) -> None:
        messages = self.evaluator.review(self.graph)
        for msg in messages:
            self.bus.publish(msg)
            self.log.append("feedback", self._clock, msg.to_dict())

        for msg in self.bus.drain():
            if msg.severity < self.config.severity_threshold:  # a critique at the threshold reopens
                continue
            # Review only critiques committed tasks; one reopened earlier in
            # this drain is no longer committed.
            if self.graph.status(msg.task_id) is not TaskStatus.COMMITTED:
                continue
            if not self._reopen(msg.task_id, msg.target, "revision_request"):
                continue
            self.router.reassign(msg.target, msg.task_id)
            adapt_strategy(
                self.agents[msg.target],
                self.graph.task(msg.task_id).domain_markers,
                self.config.adapt_decrement,
            )

    def _static_quality_gate(self, committed: list[str]) -> None:
        """Bus-less redo loop for the static variant, over the tasks the wave committed.

        Fixed-role pipelines have no feedback channel, but they do redo work
        that fails a factuality bar; each redo re-runs the same pinned agent on
        the next attempt row, bounded by the revision budget. A winner that
        passed stays passed, and one whose budget is spent stays committed, so
        earlier winners need no second look.
        """
        for task_id in committed:
            entry = self.memory.committed_entry(task_id)
            if entry.score.factuality >= self.config.fact_threshold:
                continue
            self._reopen(task_id, self.scenario.static_assignments[task_id], "quality_gate")

    def _reopen(self, task_id: str, agent_id: str, reason: str) -> bool:
        """Reopen a committed task for its next attempt, unless its revision budget is spent."""
        if self._revisions[task_id] >= self.config.revision_budget:
            import logging  # here, not at the top: only a spent budget logs, so most runs never import it

            logging.getLogger(__name__).info("budget_exhausted task=%s reason=%s", task_id, reason)
            return False
        self._revisions[task_id] += 1
        stale = self.graph.mark_needs_revision(task_id)
        self.log.append(
            "reassign",
            self._clock,
            {
                "task_id": task_id,
                "agent_id": agent_id,
                "attempt": self._revisions[task_id],
                "reason": reason,
                "stale": sorted(stale),
            },
        )
        return True

    def _build_scorer(self) -> Scorer:
        """The registered policy named by the config; `scripted` reads the scenario."""
        factory = scorer_factory(self.config.scorer)
        if factory is not ScriptedScorer:
            return factory()
        fallback = LexicalScorer() if self.config.scorer_fallback == "lexical" else None
        return ScriptedScorer(self.scenario.annotations(), fallback=fallback)


@collector_paused
def orchestrate(scenario: Scenario, config: RunConfig | None = None) -> RunResult:
    """Build and run a scenario to completion with the cyclic collector paused; see Orchestrator."""
    return Orchestrator(scenario, config).run()
