"""Deterministic, pluggable multi-agent orchestration runtime.

Tasks form a dependency DAG; a router assigns each assignable task to one
agent or fans it out to k competitors; an evaluator scores candidates, commits
the winner to an append-only shared memory, and emits revision feedback over a
message bus; a metrics harness recomputes everything from the run's event log.
"""

from .agents import BehaviorRow, CandidateOutput, ScriptedAgent, adapt_strategy
from .errors import (
    CycleError,
    DanglingReferenceError,
    DeadlockError,
    DuplicateIdError,
    DuplicateKeyError,
    EmptyCandidateSetError,
    EmptyReferenceError,
    InvalidConfigError,
    InvalidTransitionError,
    InvariantError,
    MissingCommitError,
    NoScriptedBehaviorError,
    NoTerminateError,
    OrchestrationError,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    ScorerUnavailableError,
    UnknownAgentError,
    UnknownDependencyError,
    UnknownEntryError,
)
from .evaluator import Evaluator
from .feedback import FeedbackBus, FeedbackMessage
from .graph import TaskGraph, TaskSpec, TaskStatus, build_graph
from .memory import MemoryEntry, MemoryView, SharedMemory
from .metrics import (
    RunReport,
    build_report,
    completion_time,
    compliance_accuracy,
    factual_coverage,
    redundancy_penalty,
    revision_rate,
)
from .orchestrator import (
    FinalDocument,
    Orchestrator,
    RunConfig,
    RunResult,
    compile_final_output,
    orchestrate,
)
from .routing import RouteMode, Router, RoutingDecision, suitability
from .runlog import RunEvent, RunLog
from .scenario import AgentSpec, Scenario, dump_scenario, load_scenario
from .scoring import (
    LexicalScorer,
    ScoreBreakdown,
    ScoringWeights,
    ScriptedScorer,
    combine,
    register_scorer,
)

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "BehaviorRow",
    "CandidateOutput",
    "CycleError",
    "DanglingReferenceError",
    "DeadlockError",
    "DuplicateIdError",
    "DuplicateKeyError",
    "EmptyCandidateSetError",
    "EmptyReferenceError",
    "Evaluator",
    "FeedbackBus",
    "FeedbackMessage",
    "FinalDocument",
    "InvalidConfigError",
    "InvalidTransitionError",
    "InvariantError",
    "LexicalScorer",
    "MemoryEntry",
    "MemoryView",
    "MissingCommitError",
    "NoScriptedBehaviorError",
    "NoTerminateError",
    "OrchestrationError",
    "Orchestrator",
    "RouteMode",
    "Router",
    "RoutingDecision",
    "RunConfig",
    "RunEvent",
    "RunLog",
    "RunReport",
    "RunResult",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "Scenario",
    "ScoreBreakdown",
    "ScorerUnavailableError",
    "ScoringWeights",
    "ScriptedAgent",
    "ScriptedScorer",
    "SharedMemory",
    "TaskGraph",
    "TaskSpec",
    "TaskStatus",
    "UnknownAgentError",
    "UnknownDependencyError",
    "UnknownEntryError",
    "adapt_strategy",
    "build_graph",
    "build_report",
    "combine",
    "compile_final_output",
    "completion_time",
    "compliance_accuracy",
    "dump_scenario",
    "factual_coverage",
    "load_scenario",
    "orchestrate",
    "redundancy_penalty",
    "register_scorer",
    "revision_rate",
    "suitability",
]
