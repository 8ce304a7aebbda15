"""Composite quality scoring: weights, breakdowns, and pluggable scorer policies.

A scorer turns a candidate output into (coherence, factuality, relevance)
components in [0, 1]; the composite is their weighted sum. Two policies ship:
ScriptedScorer reads annotated components from the scenario, LexicalScorer
derives them from fact overlap with the task's reference set. Additional
policies can be registered by name.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol

from ._record import Frozen
from .errors import InvalidConfigError, ScorerUnavailableError

if TYPE_CHECKING:
    from .agents import CandidateOutput
    from .graph import TaskSpec

WEIGHT_SUM_TOLERANCE = 1e-9

# Default component weights for the composite score.
DEFAULT_ALPHA = 0.3
DEFAULT_BETA = 0.4
DEFAULT_GAMMA = 0.3
WEIGHT_KEYS = ("alpha", "beta", "gamma")
_new_tuple = tuple.__new__  # builds a breakdown per scored entry without the constructor's frame


def check_unit_setting(name: str, value: object) -> None:
    """Raise InvalidConfigError unless value is a number, not a bool, in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfigError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise InvalidConfigError(f"{name} must be in [0, 1], got {value!r}")


class ScoringWeights(Frozen):
    """Component weights (coherence, factuality, relevance); must sum to 1."""

    __slots__ = _fields = WEIGHT_KEYS

    def __init__(self, alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA, gamma: float = DEFAULT_GAMMA) -> None:
        for name, value in zip(WEIGHT_KEYS, (alpha, beta, gamma)):
            check_unit_setting(name, value)
        total = alpha + beta + gamma
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise InvalidConfigError(f"weights must sum to 1, got {total}")
        self._fill(alpha, beta, gamma)


class ScoreBreakdown(NamedTuple):
    coherence: float
    factuality: float
    relevance: float
    composite: float

    def to_dict(self) -> dict:
        coherence, factuality, relevance, composite = self
        return {"coherence": coherence, "factuality": factuality, "relevance": relevance, "composite": composite}


def combine(
    coherence: float, factuality: float, relevance: float, weights: ScoringWeights
) -> ScoreBreakdown:
    """Build a breakdown with composite = alpha*coherence + beta*factuality + gamma*relevance."""
    composite = (
        weights.alpha * coherence + weights.beta * factuality + weights.gamma * relevance
    )
    return _new_tuple(ScoreBreakdown, (coherence, factuality, relevance, composite))


class Scorer(Protocol):
    """Policy producing the three score components for a candidate output."""

    def components(
        self, output: CandidateOutput, task: TaskSpec
    ) -> tuple[float, float, float]: ...


class LexicalScorer:
    """Derives components from emitted-fact overlap with the task's reference facts.

    relevance = |emitted ∩ reference| / |reference| (0 when the task has no
    reference facts), factuality = |emitted ∩ reference| / max(1, |emitted|),
    coherence = 1 when content is nonempty.
    """

    def components(
        self, output: CandidateOutput, task: TaskSpec
    ) -> tuple[float, float, float]:
        overlap = len(output.emitted_facts & task.reference_facts)
        relevance = overlap / len(task.reference_facts) if task.reference_facts else 0.0
        factuality = overlap / max(1, len(output.emitted_facts))
        coherence = 1.0 if output.content.strip() else 0.0
        return (coherence, factuality, relevance)


class ScriptedScorer:
    """Reads annotated (coherence, factuality, relevance) triples from the scenario.

    annotations are keyed by (task_id, agent_id, attempt). A missing annotation
    delegates to the fallback scorer when one is configured, otherwise raises
    ScorerUnavailableError.
    """

    def __init__(
        self,
        annotations: dict[tuple[str, str, int], tuple[float, float, float]],
        fallback: Scorer | None = None,
    ) -> None:
        self._annotations = dict(annotations)
        self._fallback = fallback

    def components(
        self, output: CandidateOutput, task: TaskSpec
    ) -> tuple[float, float, float]:
        triple = self._annotations.get(output.key)
        if triple is not None:
            return triple
        if self._fallback is not None:
            return self._fallback.components(output, task)
        raise ScorerUnavailableError(
            f"no annotated scores for {output.key!r} and no fallback scorer"
        )


ScorerFactory = Callable[..., Scorer]

_SCORERS: dict[str, ScorerFactory] = {
    "lexical": LexicalScorer,
    "scripted": ScriptedScorer,
}


def register_scorer(name: str, factory: ScorerFactory) -> None:
    """Register a scorer policy under a name `RunConfig.scorer` can select.

    A run builds its scorer by calling `factory()` with no arguments; only the
    built-in `scripted` policy is built from the scenario's annotations.
    """
    _SCORERS[name] = factory


def scorer_factory(name: str) -> ScorerFactory:
    try:
        return _SCORERS[name]
    except KeyError:
        raise ScorerUnavailableError(f"unknown scorer policy {name!r}") from None
