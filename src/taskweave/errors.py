"""Exception taxonomy for the orchestration runtime."""

from __future__ import annotations


class OrchestrationError(Exception):
    """Base class for every error raised by this package."""


class DuplicateIdError(OrchestrationError):
    """Two task descriptors share the same id."""


class UnknownDependencyError(OrchestrationError):
    """A task depends on an id that is not part of the graph."""


class CycleError(OrchestrationError):
    """The dependency graph contains a cycle."""

    def __init__(self, cycle: tuple[str, ...]) -> None:
        self.cycle = cycle
        super().__init__("dependency cycle: " + " -> ".join(cycle))


class InvalidTransitionError(OrchestrationError):
    """A task status change violates the lifecycle."""


class NoScriptedBehaviorError(OrchestrationError):
    """The scenario has no behavior row for a (task, attempt) an agent was asked to run."""


class DuplicateKeyError(OrchestrationError):
    """A memory key was stored twice."""


class UnknownEntryError(OrchestrationError):
    """A memory operation referenced an entry that was never stored."""


class DanglingReferenceError(OrchestrationError):
    """A feedback message references a memory version that does not exist."""


class ScorerUnavailableError(OrchestrationError):
    """The configured scorer cannot produce components for an output."""


class EmptyCandidateSetError(OrchestrationError):
    """select_best or Evaluator.commit was called with no candidates."""


class UnknownAgentError(OrchestrationError):
    """A routing operation referenced an agent id that is not in the pool."""


class InvalidConfigError(OrchestrationError, ValueError):
    """A run setting is outside the range it is documented to take."""


class InvariantError(OrchestrationError):
    """A bound the run loop relies on does not hold, such as the dispatch bound or a finite clock."""


class DeadlockError(OrchestrationError):
    """No dispatch can make progress while uncommitted tasks remain."""


class MissingCommitError(OrchestrationError):
    """Final output was requested while some task has no committed entry."""


class EmptyReferenceError(OrchestrationError):
    """Factual coverage was requested against an empty reference set."""


class NoTerminateError(OrchestrationError):
    """A run log has no terminate event."""


class ScenarioError(OrchestrationError):
    """Base class for scenario loading problems."""


class ScenarioParseError(ScenarioError):
    """The scenario file is missing or is not valid JSON."""


class ScenarioValidationError(ScenarioError):
    """The scenario parsed but violates the schema or cross-reference rules."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
