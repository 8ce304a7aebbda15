"""RunConfig: settings are checked when the config is built, scorers resolve by name."""

from __future__ import annotations

import math

import pytest

from taskweave import InvalidConfigError, RunConfig, ScoringWeights, orchestrate, register_scorer
from taskweave import scoring

from conftest import make_agent, make_row, make_scenario, make_task


@pytest.mark.parametrize(
    "setting",
    [
        {"theta": 1.5},
        {"theta": -0.1},
        {"theta": math.nan},
        {"w1": 1.2},
        {"w2": -0.5},
        {"severity_threshold": 2.0},
        {"fact_threshold": -0.01},
        {"adapt_decrement": 1.5},
        {"k": 0},
        {"revision_budget": 0},
    ],
    ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()),
)
def test_settings_outside_their_bounds_are_rejected(setting):
    with pytest.raises(InvalidConfigError):
        RunConfig(**setting)
    with pytest.raises(InvalidConfigError):
        RunConfig().with_overrides(setting)


@pytest.mark.parametrize(
    "setting",
    [
        {"k": 2.0},
        {"seed": 1.5},
        {"seed": True},
        {"revision_budget": "3"},
        {"k": None},
        {"theta": "0.5"},
        {"w1": True},
        {"fact_threshold": None},
        {"weights": {"alpha": 0.3, "beta": 0.4, "gamma": 0.3}},
        {"weights": None},
        {"domain_weights": {"legal": {"alpha": 0.3, "beta": 0.4, "gamma": 0.3}}},
        {"domain_weights": [("legal", ScoringWeights())]},
        {"static": "false"},
        {"no_feedback": 1},
        {"no_memory_sharing": None},
        {"no_parallel": 0.0},
    ],
    ids=lambda setting: "-".join(f"{k}={v!r}" for k, v in setting.items()),
)
def test_settings_of_the_wrong_type_are_rejected(setting):
    with pytest.raises(InvalidConfigError):
        RunConfig(**setting)


@pytest.mark.parametrize(
    "weights",
    [
        {"alpha": True, "beta": 0, "gamma": 0},
        {"alpha": "0.3", "beta": 0.4, "gamma": 0.3},
        {"alpha": None, "beta": 0.7, "gamma": 0.3},
    ],
    ids=lambda weights: "-".join(f"{k}={v!r}" for k, v in weights.items()),
)
def test_weights_of_the_wrong_type_are_rejected(weights):
    with pytest.raises(InvalidConfigError):
        ScoringWeights(**weights)
    with pytest.raises(InvalidConfigError):
        RunConfig().with_overrides({"weights": weights})


@pytest.mark.parametrize(
    "weights,key",
    [
        ({"alpha": 0.3, "beta": 0.4, "delta": 0.3}, "delta"),
        ({"alpha": 0.3, "beta": 0.4, "gamma": 0.3, "delta": 0.0}, "delta"),
        ({"alpha": 0.2, "beta": 0.5}, "gamma"),
        ({}, "alpha"),
    ],
    ids=["misspelt", "extra", "missing", "empty"],
)
def test_weight_mappings_must_name_exactly_alpha_beta_gamma(weights, key):
    with pytest.raises(InvalidConfigError, match=f"'{key}'"):
        RunConfig().with_overrides({"weights": weights})
    with pytest.raises(InvalidConfigError, match=f"'{key}'"):
        RunConfig().with_overrides({"domain_weights": {"risk": weights}})


def test_settings_on_their_bounds_are_accepted():
    RunConfig(theta=0.0, w1=1.0, w2=0.0, severity_threshold=1.0, fact_threshold=0.0,
              adapt_decrement=1.0, k=1, revision_budget=1)


def test_invalid_config_error_is_a_value_error():
    # callers that caught the ValueError RunConfig raised before keep working
    with pytest.raises(ValueError):
        RunConfig(revision_budget=0)


@pytest.mark.parametrize("setting", [{"scorer": "typo"}, {"scorer_fallback": "typo"}])
def test_unknown_scorer_names_are_rejected_at_construction(setting):
    with pytest.raises(InvalidConfigError, match="typo"):
        RunConfig(**setting)


class ConstantScorer:
    def components(self, output, task):
        return (0.5, 0.5, 0.5)


@pytest.fixture
def scorer_registry():
    """Scorers registered in a test are gone after it."""
    saved = dict(scoring._SCORERS)
    yield
    scoring._SCORERS.clear()
    scoring._SCORERS.update(saved)


def test_registered_scorer_scores_the_run(scorer_registry):
    with pytest.raises(InvalidConfigError, match="unknown scorer policy 'constant'"):
        RunConfig(scorer="constant")
    register_scorer("constant", ConstantScorer)
    scenario = make_scenario(
        tasks=[make_task("t1", reference={"f1"})],
        agents=[make_agent("a1", rows={("t1", 0): make_row({"f1"})})],
    )
    result = orchestrate(scenario, RunConfig(scorer="constant", no_feedback=True))
    (commit,) = result.log.by_kind("commit")
    assert commit.payload["score"]["composite"] == pytest.approx(0.5)
    assert commit.payload["score"]["factuality"] == 0.5
