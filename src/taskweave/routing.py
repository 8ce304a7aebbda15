"""Dispatch decisions: single assignment, k-way parallel fan-out, or deferral.

Decisions are pure functions of agent-profile snapshots, so routing is
deterministic; ties always break on agent id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .agents import UNSEEN_MARKER_PERFORMANCE, AgentProfile, ScriptedAgent
from .errors import UnknownAgentError
from .graph import TaskSpec

DEFAULT_THETA = 0.7
DEFAULT_K = 3
DEFAULT_PERF_WEIGHT = 0.7
DEFAULT_CAPACITY_WEIGHT = 0.3


class RouteMode(str, Enum):
    SINGLE = "single"
    PARALLEL = "parallel"
    DEFER = "defer"


@dataclass(frozen=True)
class RoutingDecision:
    task_id: str
    assignees: tuple[str, ...]

    @property
    def mode(self) -> RouteMode:
        """DEFER with no assignee, SINGLE with one, PARALLEL with two or more."""
        if not self.assignees:
            return RouteMode.DEFER
        return RouteMode.SINGLE if len(self.assignees) == 1 else RouteMode.PARALLEL


def suitability(
    profile: AgentProfile,
    task: TaskSpec,
    perf_weight: float = DEFAULT_PERF_WEIGHT,
    capacity_weight: float = DEFAULT_CAPACITY_WEIGHT,
) -> float:
    """perf_weight * mean marker performance + capacity_weight * spare-capacity ratio.

    Markers the agent has never been scored on count as 0.5, as does a task with
    no markers at all.
    """
    if task.domain_markers:
        history = profile.historical_performance
        total = 0.0
        # sorted iteration keeps float summation order stable across processes
        for marker in sorted(task.domain_markers):
            total += history.get(marker, UNSEEN_MARKER_PERFORMANCE)
        perf = total / len(task.domain_markers)
    else:
        perf = UNSEEN_MARKER_PERFORMANCE
    spare = 1.0 - profile.load / profile.capacity
    return perf_weight * perf + capacity_weight * spare


class Router:
    """Routes assignable tasks over a fixed agent pool."""

    def __init__(
        self,
        agents: dict[str, ScriptedAgent],
        theta: float = DEFAULT_THETA,
        k: int = DEFAULT_K,
        perf_weight: float = DEFAULT_PERF_WEIGHT,
        capacity_weight: float = DEFAULT_CAPACITY_WEIGHT,
    ) -> None:
        self.agents = agents
        self.theta = theta
        self.k = k
        self.perf_weight = perf_weight
        self.capacity_weight = capacity_weight

    def is_ambiguous(self, task: TaskSpec) -> bool:
        """High inherent ambiguity, or no capable agent confident enough.

        An agent is capable when its capabilities cover every domain marker of
        the task; with no capable agents the confidence branch trivially fires.
        """
        if task.ambiguity >= self.theta:
            return True
        best_confidence = 0.0
        for agent in self.agents.values():
            if task.domain_markers <= agent.profile.capabilities:
                best_confidence = max(best_confidence, agent.declared_confidence(task))
        return best_confidence < self.theta

    def route(self, task: TaskSpec, allow_parallel: bool = True) -> RoutingDecision:
        """Decide how to dispatch one assignable task.

        No spare capacity anywhere defers the task. Ambiguous tasks fan out to
        the min(k, available) most suitable agents when that leaves at least two,
        otherwise (and for straightforward tasks) the suitability argmax gets it
        alone.
        """
        ranked = self._ranked_available(task)
        if not ranked:
            return RoutingDecision(task.id, ())
        if allow_parallel and self.k >= 2 and self.is_ambiguous(task):
            fanout = ranked[: min(self.k, len(ranked))]
            if len(fanout) >= 2:
                return RoutingDecision(task.id, tuple(fanout))
        return RoutingDecision(task.id, (ranked[0],))

    def reassign(self, target_agent_id: str, task_id: str) -> RoutingDecision:
        """Pin a revision to the agent the feedback names.

        Review runs between waves, when no agent holds load, so the pin needs no
        capacity check here; the orchestrator checks capacity when it uses it.
        """
        if target_agent_id not in self.agents:
            raise UnknownAgentError(f"unknown agent {target_agent_id!r}")
        return RoutingDecision(task_id, (target_agent_id,))

    def _ranked_available(self, task: TaskSpec) -> list[str]:
        """Agents with spare capacity, best suitability first, ties by id."""
        scored = [
            (
                -suitability(
                    agent.profile, task, self.perf_weight, self.capacity_weight
                ),
                agent_id,
            )
            for agent_id, agent in self.agents.items()
            if agent.profile.has_spare_capacity
        ]
        scored.sort()
        return [agent_id for _, agent_id in scored]
