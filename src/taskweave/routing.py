"""Dispatch decisions: single assignment, k-way parallel fan-out, or deferral.

Decisions are functions of agent-profile snapshots and the router's revision
pins, so routing is deterministic; ties always break on agent id.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .agents import UNSEEN_MARKER_PERFORMANCE, AgentProfile, ScriptedAgent
from .errors import UnknownAgentError
from .graph import TaskSpec

DEFAULT_THETA = 0.7
DEFAULT_K = 3
DEFAULT_PERF_WEIGHT = 0.7
DEFAULT_CAPACITY_WEIGHT = 0.3
_new_tuple = tuple.__new__  # builds a decision on the route path without the constructor's frame


class RouteMode(str, Enum):
    SINGLE = "single"
    PARALLEL = "parallel"
    DEFER = "defer"


_MODE_VALUES = tuple(mode.value for mode in (RouteMode.DEFER, RouteMode.SINGLE, RouteMode.PARALLEL))


def mode_value(assignees: int) -> str:
    """The mode's value: DEFER with no assignee, SINGLE with one, PARALLEL with two or more."""
    return _MODE_VALUES[min(assignees, 2)]


class RoutingDecision(NamedTuple):
    task_id: str
    assignees: tuple[str, ...]

    @property
    def mode(self) -> RouteMode:
        return RouteMode(mode_value(len(self.assignees)))


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
    # sorted iteration keeps float summation order stable across processes
    return _suitability(profile, sorted(task.domain_markers), perf_weight, capacity_weight)


def _suitability(
    profile: AgentProfile, markers: list[str], perf_weight: float, capacity_weight: float
) -> float:
    """`suitability` of a task whose markers are `markers`, given in sorted order."""
    if markers:
        history = profile.historical_performance
        total = 0.0
        for marker in markers:
            total += history.get(marker, UNSEEN_MARKER_PERFORMANCE)
        perf = total / len(markers)
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
        self._pinned: dict[str, str] = {}  # task id -> the agent its revision is pinned to

    def is_ambiguous(self, task: TaskSpec) -> bool:
        """High inherent ambiguity, or no capable agent confident enough.

        An agent is capable when its capabilities cover every domain marker of
        the task; with no capable agents the confidence branch trivially fires.
        """
        theta = self.theta
        if task.ambiguity >= theta:
            return True
        # Past this point theta > 0, so one capable agent at theta settles it.
        for agent in self.agents.values():
            if task.domain_markers <= agent.profile.capabilities and agent.declared_confidence(task) >= theta:
                return False
        return True

    def route(self, task: TaskSpec) -> RoutingDecision:
        """Decide how to dispatch one assignable task.

        A revision pin is spent first: the pinned agent gets the task alone if it
        has spare capacity, else the task is ranked as usual. No spare capacity
        anywhere defers the task. Ambiguous tasks fan out to the min(k, available)
        most suitable agents when that leaves at least two, otherwise (and for
        straightforward tasks) the suitability argmax gets it alone.
        """
        pinned = self._pinned.pop(task.id, None)
        if pinned is not None and self.agents[pinned].profile.has_spare_capacity:
            return _new_tuple(RoutingDecision, (task.id, (pinned,)))
        ranked = self._ranked_available(task)
        if not ranked:
            return _new_tuple(RoutingDecision, (task.id, ()))
        if self.k >= 2 and self.is_ambiguous(task):
            fanout = ranked[: min(self.k, len(ranked))]
            if len(fanout) >= 2:
                return _new_tuple(RoutingDecision, (task.id, tuple(fanout)))
        return _new_tuple(RoutingDecision, (task.id, (ranked[0],)))

    def reassign(self, target_agent_id: str, task_id: str) -> RoutingDecision:
        """Pin a revision to the agent the feedback names, until the task's next route.

        Review runs between waves, when no agent holds load, so the pin needs no
        capacity check here; `route` checks capacity when it spends the pin.
        """
        if target_agent_id not in self.agents:
            raise UnknownAgentError(f"unknown agent {target_agent_id!r}")
        self._pinned[task_id] = target_agent_id
        return RoutingDecision(task_id, (target_agent_id,))

    def _ranked_available(self, task: TaskSpec) -> list[str]:
        """Agents with spare capacity, best suitability first, ties by id."""
        markers = sorted(task.domain_markers)
        perf_weight, capacity_weight = self.perf_weight, self.capacity_weight
        scored = [
            (-_suitability(agent.profile, markers, perf_weight, capacity_weight), agent_id)
            for agent_id, agent in self.agents.items()
            if agent.profile.has_spare_capacity
        ]
        scored.sort()
        return [agent_id for _, agent_id in scored]
