"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; expected values come from independent oracles
coded in this module, never from the implementation under test.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from taskweave import (
    CandidateOutput,
    CycleError,
    DeadlockError,
    Evaluator,
    Orchestrator,
    RunConfig,
    ScoringWeights,
    ScriptedScorer,
    SharedMemory,
    build_graph,
    load_scenario,
    orchestrate,
)

from conftest import (
    CANONICAL_SCENARIOS,
    make_scenario,
    make_task,
    random_adversarial_scenario,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {title}")
        raise
    print(f"PASS  criterion {number}: {title}")


def canonical_runs(variant_overrides):
    """Run every canonical scenario under the given variant overrides."""
    out = {}
    for path in CANONICAL_SCENARIOS:
        scenario = load_scenario(path)
        config = RunConfig().with_overrides(scenario.defaults).with_overrides(
            variant_overrides
        )
        orch = Orchestrator(scenario, config)
        out[path.stem] = (orch, orch.run())
    return out


# -- criterion 1: scoring oracle ---------------------------------------------


def test_criterion_1_scoring_oracle():
    with criterion(1, "score matches weighted-sum oracle within 1e-12; defaults (0.3, 0.4, 0.3)"):
        defaults = ScoringWeights()
        assert (defaults.alpha, defaults.beta, defaults.gamma) == (0.3, 0.4, 0.3)

        rng = random.Random(20260811)
        graph = build_graph([make_task("t1")])
        memory = SharedMemory()
        components_by_key = {}
        for i in range(1000):
            key = ("t1", "a", i)
            components_by_key[key] = (rng.random(), rng.random(), rng.random())
            memory.store(
                CandidateOutput(
                    task_id="t1",
                    agent_id="a",
                    attempt=i,
                    content="x",
                    emitted_facts=frozenset(),
                    declared_confidence=0.5,
                    produced_at=0.0,
                ),
            )

        class TableScorer:
            def components(self, output, task):
                return components_by_key[output.key]

        for i, (key, (c, f, r)) in enumerate(components_by_key.items()):
            alpha = rng.uniform(0.0, 1.0)
            beta = rng.uniform(0.0, 1.0 - alpha)
            gamma = 1.0 - alpha - beta
            weights = ScoringWeights(alpha, beta, gamma)
            evaluator = Evaluator(memory=memory, scorer=TableScorer(), weights=weights)
            breakdown = evaluator.score_entry(memory.entry(key), graph.task("t1"))
            oracle = alpha * c + beta * f + gamma * r
            assert abs(breakdown.composite - oracle) <= 1e-12


# -- criterion 2: selection oracle -------------------------------------------


def brute_force_argmax(entries):
    best = None
    for entry in entries:
        rank = (-entry.score.composite, entry.agent_id, entry.attempt, entry.version)
        if best is None or rank < best[0]:
            best = (rank, entry.key)
    return best[1]


def selection_world(annotations):
    graph = build_graph([make_task("t1")])
    memory = SharedMemory()
    evaluator = Evaluator(memory=memory, scorer=ScriptedScorer(annotations))
    keys = []
    for task_id, agent_id, attempt in sorted(annotations):
        key = (task_id, agent_id, attempt)
        memory.store(
            CandidateOutput(
                task_id=task_id,
                agent_id=agent_id,
                attempt=attempt,
                content="x",
                emitted_facts=frozenset(),
                declared_confidence=0.5,
                produced_at=0.0,
            ),
        )
        keys.append(key)
    return graph, memory, evaluator, keys


def test_criterion_2_selection_oracle():
    with criterion(2, "select_best matches brute-force argmax; scale-invariant winners"):
        rng = random.Random(1337)
        for _ in range(1000):
            n = rng.randint(1, 10)
            annotations = {}
            while len(annotations) < n:
                key = ("t1", f"a{rng.randint(0, 3):02d}", rng.randint(0, 2))
                annotations[key] = (
                    rng.randint(0, 20) / 20,
                    rng.randint(0, 20) / 20,
                    rng.randint(0, 20) / 20,
                )
            graph, memory, evaluator, keys = selection_world(annotations)
            winner = evaluator.select_best(keys, graph.task("t1"))
            assert winner == brute_force_argmax([memory.entry(k) for k in keys])

        # scaling components by dyadic c in (0, 1] is exact in floats, so the
        # argmax (and its score-independent tie-break) must be unchanged
        for _ in range(300):
            n = rng.randint(2, 8)
            annotations = {
                ("t1", f"a{i:02d}", 0): (
                    rng.randint(0, 16) / 16,
                    rng.randint(0, 16) / 16,
                    rng.randint(0, 16) / 16,
                )
                for i in range(n)
            }
            c = rng.choice([1.0, 0.5, 0.25, 0.125, 0.0625, 0.75])
            scaled = {k: (v[0] * c, v[1] * c, v[2] * c) for k, v in annotations.items()}
            winners = []
            for table in (annotations, scaled):
                graph, memory, evaluator, keys = selection_world(table)
                winners.append(evaluator.select_best(keys, graph.task("t1")))
            assert winners[0] == winners[1]


# -- criterion 3: DAG correctness --------------------------------------------


def test_criterion_3_dag_correctness():
    with criterion(3, "ready_tasks equals brute force on 500 random DAGs; cycles rejected"):
        rng = random.Random(404)

        def brute_force(graph):
            out = set()
            for task in graph.tasks.values():
                if graph.status(task.id).value not in ("ready", "needs_revision"):
                    continue
                if all(
                    graph.status(d).value == "committed" for d in task.depends_on
                ):
                    out.add(task.id)
            return out

        for _ in range(500):
            n = rng.randint(1, 20)
            specs = []
            for i in range(n):
                deps = [f"n{j}" for j in range(i) if rng.random() < 0.25]
                specs.append(make_task(f"n{i}", deps=deps))
            graph = build_graph(specs)
            while not graph.all_committed():
                assert graph.ready_tasks() == brute_force(graph)
                task_id = rng.choice(sorted(graph.ready_tasks()))
                graph.mark_committed(task_id)
            assert graph.ready_tasks() == set()

        for _ in range(100):
            n = rng.randint(2, 12)
            specs = {f"n{i}": set() for i in range(n)}
            for i in range(1, n):
                for j in range(i):
                    if rng.random() < 0.25:
                        specs[f"n{i}"].add(f"n{j}")
            lo = rng.randrange(0, n - 1)
            hi = rng.randrange(lo + 1, n)
            specs[f"n{hi}"].add(f"n{lo}")
            specs[f"n{lo}"].add(f"n{hi}")
            with pytest.raises(CycleError):
                build_graph(
                    [make_task(tid, deps=deps) for tid, deps in specs.items()]
                )


# -- criterion 4: termination bound ------------------------------------------


def test_criterion_4_termination_bound():
    with criterion(4, "200 adversarial runs terminate within |tasks|*(1+R)*k dispatches"):
        rng = random.Random(777)
        for _ in range(200):
            scenario, config = random_adversarial_scenario(rng)
            result = orchestrate(scenario, config)
            bound = (
                len(scenario.tasks)
                * (1 + config.revision_budget)
                * max(1, config.k)
            )
            assert result.report.counts["dispatches"] <= bound
            assert result.log.by_kind("terminate")

        # unsatisfiable configurations must surface as the deadlock error
        for _ in range(10):
            scenario, config = random_adversarial_scenario(rng)
            unsat = make_scenario(
                scenario.tasks, [], contradiction_pairs=scenario.contradiction_pairs
            )
            with pytest.raises(DeadlockError):
                orchestrate(unsat, config)


# -- criterion 5: variant semantics ------------------------------------------


def test_criterion_5_variant_semantics(monkeypatch):
    with criterion(5, "static: no feedback/fan-out; no-parallel: no fan-out; no-feedback: no review"):
        for _, result in canonical_runs({"static": True}).values():
            assert result.log.by_kind("feedback") == []
            assert result.report.counts["feedback_messages"] == 0
            assert result.report.counts["parallel_fanouts"] == 0
            parallel = [
                e for e in result.log.by_kind("dispatch") if e.payload["mode"] == "parallel"
            ]
            assert parallel == []

        for _, result in canonical_runs({"no_parallel": True}).values():
            assert result.report.counts["parallel_fanouts"] == 0

        calls = []
        original = Evaluator.review

        def counting_review(self, graph):
            calls.append(1)
            return original(self, graph)

        monkeypatch.setattr(Evaluator, "review", counting_review)
        for _, result in canonical_runs({"no_feedback": True}).values():
            assert result.log.by_kind("feedback") == []
        assert calls == []


# -- criteria 6 and 7: directional reproduction and ablations ----------------


def test_criterion_6_directional_ordering():
    with criterion(6, "coverage full>adaptive>static; static revises/repeats most; full time in between"):
        started = time.perf_counter()
        full = {name: r.report for name, (_, r) in canonical_runs({}).items()}
        adaptive = {
            name: r.report
            for name, (_, r) in canonical_runs({"no_parallel": True}).items()
        }
        static = {
            name: r.report for name, (_, r) in canonical_runs({"static": True}).items()
        }
        elapsed = time.perf_counter() - started

        for name in full:
            f, a, s = full[name], adaptive[name], static[name]
            assert f.factual_coverage >= a.factual_coverage + 0.05, name
            assert a.factual_coverage >= s.factual_coverage + 0.05, name
            assert s.revision_rate >= f.revision_rate + 0.05, name
            assert s.redundancy_penalty >= f.redundancy_penalty + 0.05, name
            assert a.completion_time + 1.0 <= f.completion_time, name
            assert f.completion_time <= s.completion_time - 1.0, name
        assert elapsed < 10.0, f"directional suite took {elapsed:.2f}s"


def test_criterion_7_ablation_reproduction():
    with criterion(7, "disabling feedback or memory sharing drops coverage by >= 20% relative"):
        full = {name: r.report for name, (_, r) in canonical_runs({}).items()}
        no_feedback = {
            name: r.report
            for name, (_, r) in canonical_runs({"no_feedback": True}).items()
        }
        no_memory = {
            name: r.report
            for name, (_, r) in canonical_runs({"no_memory_sharing": True}).items()
        }
        for name in full:
            baseline = full[name].factual_coverage
            assert no_feedback[name].factual_coverage <= 0.8 * baseline, name
            assert no_memory[name].factual_coverage <= 0.8 * baseline, name


# -- criterion 8: reproducibility --------------------------------------------


def test_criterion_8_reproducibility():
    with criterion(8, "identical scenario+flags+seed give byte-identical logs and reports"):
        for path in CANONICAL_SCENARIOS:
            scenario = load_scenario(path)
            config = RunConfig().with_overrides(scenario.defaults)
            first = orchestrate(scenario, config)
            second = orchestrate(scenario, config)
            assert first.log.to_jsonl() == second.log.to_jsonl()
            stamp = "1970-01-01T00:00:00+00:00"
            assert first.report.to_json(stamp) == second.report.to_json(stamp)


# -- criterion 9: audit guarantee --------------------------------------------


def test_criterion_9_audit_guarantee():
    with criterion(9, "every fan-out keeps all k candidates retrievable with exactly one committed"):
        fanouts_seen = 0
        for orch, result in canonical_runs({}).values():
            groups: dict[tuple[str, int], set[str]] = {}
            for event in result.log.by_kind("dispatch"):
                if event.payload["mode"] != "parallel":
                    continue
                key = (event.payload["task_id"], event.payload["attempt"])
                groups.setdefault(key, set()).add(event.payload["agent_id"])
            for (task_id, attempt), agent_ids in groups.items():
                fanouts_seen += 1
                entries = [
                    e for e in orch.memory.candidates(task_id) if e.attempt == attempt
                ]
                assert {e.agent_id for e in entries} == agent_ids
                assert len(agent_ids) >= 2
                candidates = orch.memory.candidates(task_id)
                winner = orch.memory.committed_entry(task_id)
                losers = [e for e in candidates if e is not winner]
                assert len(losers) == len(candidates) - 1
        assert fanouts_seen >= 2
