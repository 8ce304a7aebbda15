"""Evaluator selection and committed-state review."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from taskweave import (
    CandidateOutput,
    EmptyCandidateSetError,
    Evaluator,
    LexicalScorer,
    ScoringWeights,
    ScriptedScorer,
    SharedMemory,
    TaskStatus,
    build_graph,
)

from conftest import make_task


def build_world(task_specs, scorer, **evaluator_kwargs):
    graph = build_graph(task_specs)
    memory = SharedMemory()
    return graph, memory, Evaluator(memory=memory, scorer=scorer, **evaluator_kwargs)


def put(memory, task="t1", agent="a", attempt=0, facts=(), content="text", commit=False):
    output = CandidateOutput(
        task_id=task,
        agent_id=agent,
        attempt=attempt,
        content=content,
        emitted_facts=frozenset(facts),
        declared_confidence=0.5,
        produced_at=0.0,
    )
    memory.store(output)
    if commit:
        memory.commit(task, output.key)
    return output.key


def mark_committed_in_graph(graph, task_id):
    graph.mark_in_progress(task_id)
    graph.mark_committed(task_id)


def test_select_best_prefers_higher_composite():
    annotations = {
        ("t1", "c1", 0): (0.9, 0.5, 0.7),
        ("t1", "c2", 0): (0.6, 0.9, 0.8),
    }
    graph, memory, evaluator = build_world(
        [make_task("t1")], ScriptedScorer(annotations)
    )
    k1 = put(memory, agent="c1")
    k2 = put(memory, agent="c2")
    # independent oracle: 0.68 vs 0.78
    weights = ScoringWeights()
    s1 = weights.alpha * 0.9 + weights.beta * 0.5 + weights.gamma * 0.7
    s2 = weights.alpha * 0.6 + weights.beta * 0.9 + weights.gamma * 0.8
    assert (pytest.approx(s1), pytest.approx(s2)) == (0.68, 0.78)
    assert evaluator.select_best([k1, k2], graph) == k2


def test_select_best_tie_breaks_on_lower_agent_id():
    annotations = {
        ("t1", "a02", 0): (0.5, 0.5, 0.5),
        ("t1", "a01", 0): (0.5, 0.5, 0.5),
    }
    graph, memory, evaluator = build_world([make_task("t1")], ScriptedScorer(annotations))
    k_hi = put(memory, agent="a02")
    k_lo = put(memory, agent="a01")
    assert evaluator.select_best([k_hi, k_lo], graph) == k_lo


def test_select_best_single_candidate_wins():
    graph, memory, evaluator = build_world(
        [make_task("t1", reference={"f1"})], LexicalScorer()
    )
    key = put(memory, facts={"f1"})
    assert evaluator.select_best([key], graph) == key


def test_select_best_empty_set_rejected():
    graph, _, evaluator = build_world([make_task("t1")], LexicalScorer())
    with pytest.raises(EmptyCandidateSetError):
        evaluator.select_best([], graph)


def test_select_best_caches_breakdowns():
    calls = []

    class CountingScorer:
        def components(self, output, task):
            calls.append(output.key)
            return (1.0, 1.0, 1.0)

    graph, memory, evaluator = build_world([make_task("t1")], CountingScorer())
    keys = [put(memory, agent=f"a{i}") for i in range(3)]
    evaluator.select_best(keys, graph)
    evaluator.select_best(keys, graph)
    assert len(calls) == 3


def brute_force_argmax(entries):
    """Independent scan with the documented tie-break."""
    best = None
    for entry in entries:
        rank = (
            -entry.score.composite,
            entry.agent_id,
            entry.attempt,
            entry.version,
        )
        if best is None or rank < best[0]:
            best = (rank, entry.key)
    return best[1]


def test_select_best_agrees_with_brute_force_on_random_sets():
    rng = random.Random(99)
    for trial in range(200):
        n = rng.randint(1, 10)
        annotations = {}
        keys = []
        for i in range(n):
            agent = f"a{rng.randint(0, 3)}"
            attempt = rng.randint(0, 2)
            key = ("t1", agent, attempt)
            if key in annotations:
                continue
            grid = lambda: rng.randint(0, 20) / 20
            annotations[key] = (grid(), grid(), grid())
            keys.append(key)
        graph, memory, evaluator = build_world(
            [make_task("t1")], ScriptedScorer(annotations)
        )
        for task, agent, attempt in keys:
            put(memory, task=task, agent=agent, attempt=attempt)
        winner = evaluator.select_best(keys, graph)
        entries = [memory.entry(k) for k in keys]
        assert winner == brute_force_argmax(entries)


def test_argmax_invariant_under_uniform_component_scaling():
    rng = random.Random(5)
    for trial in range(100):
        n = rng.randint(2, 8)
        triples = {
            ("t1", f"a{i:02d}", 0): (
                rng.randint(0, 16) / 16,
                rng.randint(0, 16) / 16,
                rng.randint(0, 16) / 16,
            )
            for i in range(n)
        }
        c = rng.choice([1.0, 0.5, 0.25, 0.125, 0.0625])
        scaled = {k: (v[0] * c, v[1] * c, v[2] * c) for k, v in triples.items()}

        winners = []
        for annotations in (triples, scaled):
            graph, memory, evaluator = build_world(
                [make_task("t1")], ScriptedScorer(annotations)
            )
            keys = [put(memory, agent=agent) for (_, agent, _) in sorted(annotations)]
            winners.append(evaluator.select_best(keys, graph))
        assert winners[0] == winners[1]


def test_review_flags_low_factuality_with_complement_severity():
    annotations = {("t1", "a", 0): (1.0, 0.3, 1.0)}
    graph, memory, evaluator = build_world(
        [make_task("t1")], ScriptedScorer(annotations)
    )
    key = put(memory, commit=True)
    mark_committed_in_graph(graph, "t1")
    messages = evaluator.review(graph)
    assert len(messages) == 1
    msg = messages[0]
    assert msg.to_dict()["kind"] == "revision_request"
    assert msg.severity == pytest.approx(1.0 - 0.3)
    assert msg.target == "a"
    assert msg.referenced_version == 1


def test_review_empty_store_emits_nothing():
    graph, _, evaluator = build_world([make_task("t1")], LexicalScorer())
    assert evaluator.review(graph) == []


def test_review_ignores_factuality_at_threshold():
    annotations = {("t1", "a", 0): (1.0, 0.6, 1.0)}
    graph, memory, evaluator = build_world(
        [make_task("t1")], ScriptedScorer(annotations), fact_threshold=0.6
    )
    key = put(memory, commit=True)
    mark_committed_in_graph(graph, "t1")
    assert evaluator.review(graph) == []


def test_review_flags_contradiction_on_later_committed_entry():
    specs = [make_task("t1", reference={"debt_low"}), make_task("t2", reference={"debt_high"})]
    graph, memory, evaluator = build_world(
        specs,
        LexicalScorer(),
        contradiction_pairs=[("debt_low", "debt_high")],
    )
    k1 = put(memory, task="t1", facts={"debt_low"}, commit=True)
    mark_committed_in_graph(graph, "t1")
    k2 = put(memory, task="t2", agent="b", facts={"debt_high"}, commit=True)
    mark_committed_in_graph(graph, "t2")
    messages = evaluator.review(graph)
    assert len(messages) == 1
    msg = messages[0]
    assert msg.task_id == "t2"
    assert msg.severity == 1.0
    assert "debt" in msg.note


def test_review_ignores_pair_inside_a_single_entry():
    specs = [make_task("t1", reference={"debt_low", "debt_high"})]
    graph, memory, evaluator = build_world(
        specs,
        LexicalScorer(),
        contradiction_pairs=[("debt_low", "debt_high")],
    )
    key = put(memory, facts={"debt_low", "debt_high"}, commit=True)
    mark_committed_in_graph(graph, "t1")
    assert evaluator.review(graph) == []


def crossing_list_target(reviewable, fact_a, fact_b, commit_rank):
    """The crossing-list rule review used before, kept as the oracle: every
    (holder of a, holder of b) pair of distinct entries, target the later commit.
    `commit_rank` maps each task to the position of its commit."""
    holders_a = [e for e in reviewable if fact_a in e.output.emitted_facts]
    holders_b = [e for e in reviewable if fact_b in e.output.emitted_facts]
    crossing = [
        e2 for e1 in holders_a for e2 in holders_b if e1 is not e2
    ] + [e1 for e1 in holders_a for e2 in holders_b if e1 is not e2]
    if not crossing:
        return None
    return max(crossing, key=lambda e: (commit_rank[e.task_id], e.version))


class PerfectScorer:
    def components(self, output, task):
        return (1.0, 1.0, 1.0)


@given(st.lists(st.sets(st.sampled_from("abc")), min_size=1, max_size=6), st.data())
def test_contradiction_target_matches_crossing_list_oracle(fact_sets, data):
    # facts {a, b} in one entry included; commits in an order unrelated to versions
    pairs = [("a", "b"), ("b", "c")]
    tasks = [make_task(f"t{i}") for i in range(len(fact_sets))]
    graph, memory, evaluator = build_world(tasks, PerfectScorer(), contradiction_pairs=pairs)
    keys = [put(memory, task=f"t{i}", facts=facts) for i, facts in enumerate(fact_sets)]
    commit_order = data.draw(st.permutations(range(len(keys))))
    for i in commit_order:
        memory.commit(f"t{i}", keys[i])
        mark_committed_in_graph(graph, f"t{i}")

    commit_rank = {f"t{i}": rank for rank, i in enumerate(commit_order)}
    expected = [
        crossing_list_target(memory.committed_entries(), fact_a, fact_b, commit_rank)
        for fact_a, fact_b in pairs
    ]
    assert [(m.task_id, m.referenced_version) for m in evaluator.review(graph)] == [
        (entry.task_id, entry.version) for entry in expected if entry is not None
    ]


def test_review_skips_tasks_already_under_revision():
    annotations = {("t1", "a", 0): (1.0, 0.1, 1.0)}
    graph, memory, evaluator = build_world(
        [make_task("t1")], ScriptedScorer(annotations)
    )
    key = put(memory, commit=True)
    mark_committed_in_graph(graph, "t1")
    graph.mark_needs_revision("t1")
    assert evaluator.review(graph) == []


def test_review_is_deterministic():
    annotations = {
        ("t1", "a", 0): (1.0, 0.2, 1.0),
        ("t2", "b", 0): (1.0, 0.1, 1.0),
    }
    specs = [make_task("t1"), make_task("t2")]
    graph, memory, evaluator = build_world(specs, ScriptedScorer(annotations))
    for task, agent in (("t1", "a"), ("t2", "b")):
        key = put(memory, task=task, agent=agent, commit=True)
        mark_committed_in_graph(graph, task)
    first = [(m.id, m.task_id, m.severity) for m in evaluator.review(graph)]
    assert first == [("fb-1", "t1", 0.8), ("fb-2", "t2", 0.9)]
    # each critique is sent once: nothing changed, so nothing new to say
    assert evaluator.review(graph) == []
    fresh = Evaluator(memory=memory, scorer=ScriptedScorer(annotations))
    assert [(m.id, m.task_id, m.severity) for m in fresh.review(graph)] == first


class FactualityInContent:
    """Factuality read from the output's content, so a test picks it per entry."""

    def components(self, output, task):
        return (1.0, float(output.content), 1.0)


class ScanReview:
    """The review the delta replaced, kept as the oracle: every committed winner
    and every contradiction pair scanned on each call, each critique sent once
    per (referenced version, note)."""

    def __init__(self, memory, pairs, fact_threshold=0.6):
        self.memory, self.pairs, self.fact_threshold = memory, pairs, fact_threshold
        self.sent = set()
        self.counter = 0

    def review(self, graph):
        messages = []

        def send(entry, severity, note):
            if (entry.version, note) in self.sent:
                return
            self.sent.add((entry.version, note))
            self.counter += 1
            messages.append((f"fb-{self.counter}", entry.agent_id, entry.task_id, entry.version, severity, note))

        reviewable = [
            e for e in self.memory.committed_entries() if graph.status(e.task_id) is TaskStatus.COMMITTED
        ]
        for entry in sorted(reviewable, key=lambda e: e.version):
            factuality = float(entry.output.content)
            if factuality < self.fact_threshold:
                send(entry, 1.0 - factuality, f"factuality {factuality:.3f} below threshold")
        for fact_a, fact_b in self.pairs:
            holders = [e for e in reviewable if {fact_a, fact_b} & e.output.emitted_facts]
            if (
                len(holders) < 2
                or not any(fact_a in e.output.emitted_facts for e in holders)
                or not any(fact_b in e.output.emitted_facts for e in holders)
            ):
                continue
            send(holders[-1], 1.0, f"contradictory facts {fact_a!r} / {fact_b!r} across committed outputs")
        return messages


STEP = st.tuples(
    st.sampled_from(["store", "commit", "reopen"]),
    st.integers(0, 3),  # task
    st.sets(st.sampled_from("abcd"), max_size=3),  # facts of a stored entry
    st.sampled_from(["0.2", "0.5", "0.9"]),  # factuality of a stored entry
    st.integers(0, 2**16),  # which stored entry a commit picks
    st.booleans(),  # score the entry a commit picks before the commit, as a run does
    st.booleans(),  # review after the step
)


def store(task_n, facts, factuality):
    return ("store", task_n, set(facts), factuality, 0, False, False)


def commit(task_n, pick=0, score_first=True):
    return ("commit", task_n, set(), "", pick, score_first, False)


# Histories that random steps seldom reach, each reviewed once at its end.
@given(st.lists(STEP, max_size=40))
@example([store(0, "", "0.2"), commit(0, score_first=False)])  # an unscored failing winner
@example([store(0, "", "0.2"), store(0, "", "0.9"), commit(0, 0, score_first=False), commit(0, 1)])  # passing replaces failing
@example([store(0, "a", "0.9"), commit(0), store(1, "b", "0.9"), commit(1)])  # a pair across two tasks
@example([store(0, "a", "0.9"), commit(0), store(0, "", "0.9"), commit(0, 1), store(1, "b", "0.9"), commit(1)])  # a demoted holder
def test_delta_review_matches_a_full_scan_with_send_once(steps):
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "b")]
    tasks = [make_task(f"t{i}") for i in range(4)]
    graph, memory, evaluator = build_world(tasks, FactualityInContent(), contradiction_pairs=pairs)
    oracle = ScanReview(memory, pairs)
    stored = {f"t{i}": [] for i in range(4)}
    for op, task_n, facts, factuality, pick, score_first, review in steps + [("review", 0, set(), "", 0, False, True)]:
        task_id = f"t{task_n}"
        if op == "store":
            key = put(memory, task=task_id, attempt=len(stored[task_id]), facts=facts, content=factuality)
            stored[task_id].append(key)
        elif op == "commit" and stored[task_id]:
            # a commit may re-commit the winner or an older candidate
            key = stored[task_id][pick % len(stored[task_id])]
            if score_first:  # review then files the winner only if it scored below the threshold
                evaluator.score_entry(memory.entry(key), graph.task(task_id))
            memory.commit(task_id, key)
            if graph.status(task_id) is not TaskStatus.COMMITTED:
                mark_committed_in_graph(graph, task_id)
        elif op == "reopen" and graph.status(task_id) is TaskStatus.COMMITTED:
            graph.mark_needs_revision(task_id)
        if review:
            got = [
                (m.id, m.target, m.task_id, m.referenced_version, m.severity, m.note)
                for m in evaluator.review(graph)
            ]
            assert got == oracle.review(graph)


def test_a_demoted_winner_stops_holding_its_facts():
    graph, memory, evaluator = build_world(
        [make_task("t0"), make_task("t1")], FactualityInContent(), contradiction_pairs=[("a", "b")]
    )
    put(memory, task="t0", attempt=0, facts={"a"}, content="1.0", commit=True)
    mark_committed_in_graph(graph, "t0")
    assert evaluator.review(graph) == []
    # t0's new winner drops "a", so t1's "b" contradicts nothing
    put(memory, task="t0", attempt=1, content="1.0", commit=True)
    put(memory, task="t1", attempt=0, facts={"b"}, content="1.0", commit=True)
    mark_committed_in_graph(graph, "t1")
    assert evaluator.review(graph) == []

def test_domain_weight_table_overrides_defaults():
    annotations = {("t1", "a", 0): (1.0, 0.0, 0.0)}
    graph, memory, evaluator = build_world(
        [make_task("t1", markers={"legal"})],
        ScriptedScorer(annotations),
        domain_weights={"legal": ScoringWeights(1.0, 0.0, 0.0)},
    )
    key = put(memory)
    breakdown = evaluator.score_entry(memory.entry(key), graph.task("t1"))
    assert breakdown.composite == 1.0
