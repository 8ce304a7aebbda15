"""Composite scoring: weights, policies, and the weighted-sum contract."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskweave import (
    CandidateOutput,
    LexicalScorer,
    ScorerUnavailableError,
    ScoringWeights,
    ScriptedScorer,
    combine,
)
from taskweave.scoring import scorer_factory

from conftest import make_task


def candidate(facts=(), content="text", key=("t1", "a", 0)):
    return CandidateOutput(
        task_id=key[0],
        agent_id=key[1],
        attempt=key[2],
        content=content,
        emitted_facts=frozenset(facts),
        declared_confidence=0.5,
        produced_at=0.0,
    )


def task_with_reference(reference):
    return make_task("t1", reference=reference)


def oracle_composite(components, weights):
    """Independent weighted-sum oracle."""
    c, f, r = components
    return weights.alpha * c + weights.beta * f + weights.gamma * r


def test_default_weights_match_expected_values():
    weights = ScoringWeights()
    assert (weights.alpha, weights.beta, weights.gamma) == (0.3, 0.4, 0.3)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        ScoringWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        ScoringWeights(1.1, -0.2, 0.1)


def test_perfect_components_give_composite_one():
    assert combine(1.0, 1.0, 1.0, ScoringWeights()).composite == pytest.approx(1.0)


def test_zero_components_give_zero():
    assert combine(0.0, 0.0, 0.0, ScoringWeights()).composite == 0.0


def test_documented_example_composite():
    weights = ScoringWeights(0.3, 0.4, 0.3)
    breakdown = combine(0.2, 0.9, 0.4, weights)
    assert breakdown.composite == pytest.approx(
        oracle_composite((0.2, 0.9, 0.4), weights), abs=1e-12
    )
    assert breakdown.composite == pytest.approx(0.54)


@given(
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
    st.floats(0.01, 0.98),
    st.floats(0.01, 0.98),
)
def test_combine_matches_oracle(components, raw_a, raw_b):
    # normalize two draws into a valid weight triple
    alpha = raw_a * 0.5
    beta = raw_b * 0.5
    weights = ScoringWeights(alpha, beta, 1.0 - alpha - beta)
    got = combine(*components, weights).composite
    assert got == pytest.approx(oracle_composite(components, weights), abs=1e-12)


def test_coherence_only_weights_pass_through_coherence():
    weights = ScoringWeights(1.0, 0.0, 0.0)
    for coherence in (0.0, 0.25, 0.8, 1.0):
        assert combine(coherence, 0.9, 0.1, weights).composite == coherence


def test_lexical_scorer_components():
    scorer = LexicalScorer()
    task = task_with_reference({"f1", "f2", "f3", "f4"})
    coherence, factuality, relevance = scorer.components(
        candidate({"f1", "f2", "junk"}), task
    )
    assert coherence == 1.0
    assert factuality == pytest.approx(2 / 3)
    assert relevance == pytest.approx(2 / 4)


def test_lexical_scorer_empty_content_is_incoherent():
    coherence, _, _ = LexicalScorer().components(
        candidate({"f1"}, content="   "), task_with_reference({"f1"})
    )
    assert coherence == 0.0


def test_lexical_scorer_empty_emissions():
    _, factuality, relevance = LexicalScorer().components(
        candidate(()), task_with_reference({"f1"})
    )
    assert factuality == 0.0
    assert relevance == 0.0


def test_lexical_scorer_no_reference_facts_scores_zero_relevance():
    _, _, relevance = LexicalScorer().components(
        candidate({"f1"}), task_with_reference(())
    )
    assert relevance == 0.0


def test_scripted_scorer_reads_annotations():
    scorer = ScriptedScorer({("t1", "a", 0): (0.2, 0.9, 0.4)})
    assert scorer.components(candidate(), task_with_reference(())) == (0.2, 0.9, 0.4)


def test_scripted_scorer_without_fallback_raises():
    scorer = ScriptedScorer({})
    with pytest.raises(ScorerUnavailableError):
        scorer.components(candidate(), task_with_reference(()))


def test_scripted_scorer_falls_back_when_configured():
    scorer = ScriptedScorer({}, fallback=LexicalScorer())
    components = scorer.components(
        candidate({"f1"}), task_with_reference({"f1", "f2"})
    )
    assert components == (1.0, 1.0, 0.5)


def test_scorer_registry_round_trip():
    assert scorer_factory("lexical") is LexicalScorer
    with pytest.raises(ScorerUnavailableError):
        scorer_factory("nonsense")
