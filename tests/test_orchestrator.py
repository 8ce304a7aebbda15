"""Orchestration loop: waves, fan-out, commits, feedback, budgets, timing."""

from __future__ import annotations

import pytest

from taskweave import (
    DeadlockError,
    InvariantError,
    MissingCommitError,
    NoScriptedBehaviorError,
    Orchestrator,
    RunConfig,
    ScenarioValidationError,
    SharedMemory,
    build_graph,
    compile_final_output,
    orchestrate,
)
from taskweave.evaluator import Evaluator

from conftest import make_agent, make_row, make_scenario, make_task


def solo_scenario():
    return make_scenario(
        tasks=[make_task("t1", reference={"f1"})],
        agents=[
            make_agent(
                "solo", rows={("t1", 0): make_row({"f1"}, confidence=0.9, latency=2.0)}
            )
        ],
    )


def test_minimal_run_dispatches_commits_terminates():
    result = orchestrate(solo_scenario())
    log = result.log
    assert [e.kind for e in log.events] == ["dispatch", "store", "commit", "terminate"]
    assert result.report.counts == {
        "tasks": 1,
        "dispatches": 1,
        "parallel_fanouts": 0,
        "feedback_messages": 0,
    }
    assert result.document.text


def ambiguous_scenario():
    row_by_agent = {
        "a1": make_row({"f1"}, confidence=0.5, latency=2.0),
        "a2": make_row({"f1", "f2"}, confidence=0.5, latency=3.0),
        "a3": make_row((), confidence=0.5, latency=1.0),
    }
    return make_scenario(
        tasks=[make_task("amb", reference={"f1", "f2"}, ambiguity=0.9)],
        agents=[
            make_agent(name, rows={("amb", 0): row}) for name, row in row_by_agent.items()
        ],
    )


def test_parallel_fanout_stores_all_commits_argmax():
    orch = Orchestrator(ambiguous_scenario(), RunConfig(k=3))
    result = orch.run()
    entries = orch.memory.candidates("amb")
    assert len(entries) == 3
    committed = [e for e in entries if e.committed]
    assert len(committed) == 1
    assert committed[0].agent_id == "a2"
    assert result.report.counts["parallel_fanouts"] == 1
    assert result.report.counts["dispatches"] == 3
    # losing candidates retained with their stored outputs
    losers = {e.agent_id for e in entries if not e.committed}
    assert losers == {"a1", "a3"}


def test_fanout_limited_by_available_agents():
    scenario = make_scenario(
        tasks=[make_task("amb", ambiguity=0.9, reference={"f1"})],
        agents=[
            make_agent("a1", rows={("amb", 0): make_row({"f1"})}),
            make_agent("a2", rows={("amb", 0): make_row({"f1"})}),
        ],
    )
    result = orchestrate(scenario, RunConfig(k=5))
    assert result.report.counts["dispatches"] == 2


def revision_scenario(factuality_by_attempt, budget=3):
    rows = {
        ("t1", attempt): make_row(
            {"f1"}, confidence=0.9, latency=1.0, annotated=(1.0, factuality, 1.0)
        )
        for attempt, factuality in enumerate(factuality_by_attempt)
    }
    scenario = make_scenario(
        tasks=[make_task("t1", reference={"f1"})],
        agents=[make_agent("fixer", rows=rows)],
    )
    config = RunConfig(scorer="scripted", revision_budget=budget)
    return scenario, config


def test_low_factuality_commit_triggers_exactly_one_revision():
    scenario, config = revision_scenario([0.3, 0.9])
    orch = Orchestrator(scenario, config)
    orch.run()
    reassigns = orch.log.by_kind("reassign")
    assert len(reassigns) == 1
    assert reassigns[0].payload["attempt"] == 1
    final = orch.memory.committed_entry("t1")
    assert final.attempt == 1
    assert final.score.factuality == 0.9


def test_revision_budget_exhaustion_suppresses_further_rounds():
    scenario, config = revision_scenario([0.2, 0.2, 0.2, 0.2, 0.2], budget=2)
    orch = Orchestrator(scenario, config)
    result = orch.run()
    assert len(orch.log.by_kind("reassign")) == 2
    assert orch.memory.committed_entry("t1").attempt == 2
    bound = 1 * (1 + 2) * 3
    assert result.report.counts["dispatches"] <= bound


def test_adapt_strategy_applied_on_revision():
    scenario, config = revision_scenario([0.3, 0.9])
    scenario = make_scenario(
        tasks=[make_task("t1", markers={"legal"}, reference={"f1"})],
        agents=[
            make_agent(
                "fixer",
                perf={"legal": 0.8},
                rows=scenario.agents[0].behavior,
            )
        ],
    )
    orch = Orchestrator(scenario, config)
    orch.run()
    profile = orch.agents["fixer"].profile
    assert profile.historical_performance["legal"] == pytest.approx(0.7)


def test_deadlock_with_no_agents():
    scenario = make_scenario(tasks=[make_task("t1")], agents=[])
    with pytest.raises(DeadlockError):
        orchestrate(scenario)


def test_deferred_task_runs_next_wave():
    scenario = make_scenario(
        tasks=[make_task("t1", reference={"f1"}), make_task("t2", reference={"f2"})],
        agents=[
            make_agent(
                "one",
                capacity=1,
                rows={
                    ("t1", 0): make_row({"f1"}, latency=3.0),
                    ("t2", 0): make_row({"f2"}, latency=4.0),
                },
            )
        ],
    )
    result = orchestrate(scenario)
    # capacity 1 forces two waves; each wave costs its own latency
    assert result.report.completion_time == 7.0
    assert result.report.counts["dispatches"] == 2


def test_missing_behavior_row_fails_loudly():
    scenario, config = revision_scenario([0.3])  # no attempt-1 row
    with pytest.raises(NoScriptedBehaviorError):
        orchestrate(scenario, config)


def test_wave_time_is_max_latency_of_concurrent_executions():
    scenario = make_scenario(
        tasks=[make_task("t1", reference={"f1"}), make_task("t2", reference={"f2"})],
        agents=[
            make_agent("a1", rows={("t1", 0): make_row({"f1"}, latency=3.0)}),
            make_agent("a2", rows={("t2", 0): make_row({"f2"}, latency=5.0)}),
        ],
    )
    result = orchestrate(scenario)
    assert result.report.completion_time == 5.0


def test_static_variant_serializes_same_agent_queue():
    rows = {
        ("t1", 0): make_row({"f1"}, latency=3.0),
        ("t2", 0): make_row({"f2"}, latency=5.0),
    }
    scenario = make_scenario(
        tasks=[make_task("t1", reference={"f1"}), make_task("t2", reference={"f2"})],
        agents=[make_agent("only", rows=rows)],
        static_assignments={"t1": "only", "t2": "only"},
    )
    result = orchestrate(scenario, RunConfig(static=True))
    assert result.report.completion_time == 8.0
    assert result.report.counts["feedback_messages"] == 0
    assert result.report.counts["parallel_fanouts"] == 0


def test_static_pin_beyond_capacity_serializes_without_overload():
    rows = {
        (f"t{i}", 0): make_row({f"f{i}"}, latency=2.0) for i in range(4)
    }
    scenario = make_scenario(
        tasks=[make_task(f"t{i}", reference={f"f{i}"}) for i in range(4)],
        agents=[make_agent("narrow", capacity=1, rows=rows)],
        static_assignments={f"t{i}": "narrow" for i in range(4)},
    )
    orch = Orchestrator(scenario, RunConfig(static=True))
    result = orch.run()
    # four tasks run back to back on the single pinned agent
    assert result.report.completion_time == 8.0
    assert orch.agents["narrow"].profile.load == 0


def test_static_variant_requires_full_assignment_map():
    scenario = make_scenario(
        tasks=[make_task("t1")],
        agents=[make_agent("a", rows={("t1", 0): make_row()})],
    )
    with pytest.raises(ScenarioValidationError):
        Orchestrator(scenario, RunConfig(static=True))


def test_static_quality_gate_retries_same_agent_without_feedback():
    rows = {
        ("t1", attempt): make_row({"junk"}, latency=2.0) for attempt in range(4)
    }
    scenario = make_scenario(
        tasks=[make_task("t1", reference={"f1"})],
        agents=[make_agent("pinned", rows=rows)],
        static_assignments={"t1": "pinned"},
    )
    orch = Orchestrator(scenario, RunConfig(static=True, revision_budget=3))
    result = orch.run()
    reassigns = orch.log.by_kind("reassign")
    assert len(reassigns) == 3
    assert all(e.payload["reason"] == "quality_gate" for e in reassigns)
    assert all(e.payload["agent_id"] == "pinned" for e in reassigns)
    assert result.report.counts["feedback_messages"] == 0
    assert orch.memory.committed_entry("t1").attempt == 3


def test_static_quality_gate_reports_a_spent_budget_once(caplog):
    # t1 spends its budget in the first waves; t2 and t3 keep the run going after it
    junk = {("t1", attempt): make_row({"junk"}, latency=1.0) for attempt in range(2)}
    good = {(tid, 0): make_row({f"{tid}.f"}, latency=1.0) for tid in ("t2", "t3")}
    scenario = make_scenario(
        tasks=[
            make_task("t1", reference={"f1"}),
            make_task("t2", reference={"t2.f"}, deps=["t1"]),
            make_task("t3", reference={"t3.f"}, deps=["t2"]),
        ],
        agents=[make_agent("pinned", rows={**junk, **good})],
        static_assignments={"t1": "pinned", "t2": "pinned", "t3": "pinned"},
    )
    with caplog.at_level("INFO", logger="taskweave.orchestrator"):
        result = orchestrate(scenario, RunConfig(static=True, revision_budget=1))
    assert result.log.by_kind("terminate")[0].payload["waves"] == 4
    assert [r.getMessage() for r in caplog.records] == ["budget_exhausted task=t1 reason=quality_gate"]


def test_no_feedback_never_calls_review(monkeypatch):
    calls = []
    original = Evaluator.review

    def counting_review(self, graph):
        calls.append(1)
        return original(self, graph)

    monkeypatch.setattr(Evaluator, "review", counting_review)
    orchestrate(solo_scenario(), RunConfig(no_feedback=True))
    assert calls == []
    orchestrate(solo_scenario(), RunConfig())
    assert len(calls) > 0


def test_no_parallel_routes_ambiguous_tasks_single():
    result = orchestrate(ambiguous_scenario(), RunConfig(no_parallel=True))
    assert result.report.counts["parallel_fanouts"] == 0
    assert result.report.counts["dispatches"] == 1


def test_no_memory_sharing_blinds_contingent_facts():
    tasks = [
        make_task("up", markers={"alpha"}, reference={"u1"}),
        make_task("down", markers={"beta"}, reference={"d1", "derived"}, deps=["up"]),
    ]
    agents = [
        make_agent(
            "w",
            caps={"alpha"},
            perf={"alpha": 0.9},
            rows={("up", 0): make_row({"u1"}, confidence=0.9)},
        ),
        make_agent(
            "r",
            caps={"beta"},
            perf={"beta": 0.9},
            rows={
                ("down", 0): make_row(
                    {"d1"}, confidence=0.9, contingent=[("u1", "derived")]
                ),
            },
        ),
    ]
    scenario = make_scenario(tasks=tasks, agents=agents)

    sharing = Orchestrator(scenario, RunConfig())
    sharing.run()
    assert "derived" in sharing.memory.committed_entry("down").output.emitted_facts

    blind = Orchestrator(scenario, RunConfig(no_memory_sharing=True))
    blind.run()
    assert "derived" not in blind.memory.committed_entry("down").output.emitted_facts


def test_memory_audit_file_written_during_run(tmp_path):
    import json

    audit = tmp_path / "memory.jsonl"
    orch = Orchestrator(ambiguous_scenario(), RunConfig(k=3), memory_audit_path=str(audit))
    orch.run()
    lines = [json.loads(line) for line in audit.read_text().splitlines()]
    assert len(lines) == 4  # 3 stores + 1 commit
    assert sum(1 for line in lines if line["committed"]) == 1
    assert {
        "task_id",
        "agent_id",
        "attempt",
        "version",
        "committed",
        "emitted_facts",
        "declared_confidence",
        "score",
    } == set(lines[0])


def test_reproducibility_same_seed_same_bytes():
    first = orchestrate(ambiguous_scenario(), RunConfig(seed=42))
    second = orchestrate(ambiguous_scenario(), RunConfig(seed=42))
    assert first.log.to_jsonl() == second.log.to_jsonl()
    stamp = "fixed"
    assert first.report.to_json(stamp) == second.report.to_json(stamp)


def test_every_commit_references_a_prior_store():
    for config in (RunConfig(), RunConfig(no_parallel=True)):
        orch = Orchestrator(ambiguous_scenario(), config)
        orch.run()
        seen_stores = set()
        for event in orch.log.events:
            if event.kind == "store":
                p = event.payload
                seen_stores.add((p["task_id"], p["agent_id"], p["attempt"]))
            elif event.kind == "commit":
                p = event.payload
                assert (p["task_id"], p["agent_id"], p["attempt"]) in seen_stores


def test_log_virtual_time_nondecreasing():
    orch = Orchestrator(ambiguous_scenario(), RunConfig())
    orch.run()
    times = [e.virtual_time for e in orch.log.events]
    assert times == sorted(times)


def test_loads_return_to_zero_after_run():
    orch = Orchestrator(ambiguous_scenario(), RunConfig())
    orch.run()
    assert all(agent.profile.load == 0 for agent in orch.agents.values())


def test_dispatch_bound_breach_is_an_invariant_error(monkeypatch):
    orch = Orchestrator(solo_scenario())
    run_wave = orch._run_wave

    def overcounting_wave(assignable):
        executed = run_wave(assignable)
        orch._dispatches += 100
        return executed

    monkeypatch.setattr(orch, "_run_wave", overcounting_wave)
    with pytest.raises(InvariantError, match="dispatch bound"):
        orch.run()


def test_agent_left_loaded_is_an_invariant_error(monkeypatch):
    orch = Orchestrator(solo_scenario())
    run_wave = orch._run_wave

    def leaking_wave(assignable):
        executed = run_wave(assignable)
        orch.agents["solo"].profile.load += 1
        return executed

    monkeypatch.setattr(orch, "_run_wave", leaking_wave)
    with pytest.raises(InvariantError, match="still loaded"):
        orch.run()


def test_invariants_hold_under_python_O(tmp_path):
    # the checks are exceptions, so -O, which strips asserts, keeps them
    import os
    import subprocess
    import sys

    from conftest import CANONICAL_SCENARIOS

    code = (
        "from taskweave import InvariantError, Orchestrator, load_scenario\n"
        f"orch = Orchestrator(load_scenario({str(CANONICAL_SCENARIOS[0])!r}))\n"
        "wave = orch._run_wave\n"
        "def overcounting(assignable):\n"
        "    orch._dispatches += 1000\n"
        "    return wave(assignable)\n"
        "orch._run_wave = overcounting\n"
        "try:\n"
        "    orch.run()\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "dispatch bound violated" in proc.stdout


def test_row_checks_hold_under_python_O(tmp_path):
    # a behavior row checks its ranges with exceptions, so -O keeps them on
    # every way to build one, and on the load path
    import json
    import os
    import subprocess
    import sys

    from conftest import CANONICAL_SCENARIOS

    code = (
        "from taskweave import BehaviorRow\n"
        "for build in (lambda: BehaviorRow('x', declared_confidence=1.5),\n"
        "              lambda: BehaviorRow._make(('x', (), 0.5, float('inf'), None, ())),\n"
        "              lambda: BehaviorRow('x')._replace(annotated_scores=(0.5, 2.0, 0.5))):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "declared_confidence must be in [0, 1]",
        "latency must be finite and nonnegative, got inf",
        "annotated score components must be in [0, 1]",
    ]

    doc = json.loads(CANONICAL_SCENARIOS[0].read_text())
    doc["agents"][0]["behavior"][0]["latency"] = float("inf")
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc))
    assert '"latency": Infinity' in path.read_text()
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "taskweave.cli", "validate", str(path)],
        env=dict(os.environ),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "$.agents[0].behavior[0]" in proc.stderr
    assert "latency must be finite and nonnegative, got inf" in proc.stderr


def test_reassign_events_carry_stale_field():
    # In the wave loop a task is reopened before any dependent can commit, so
    # the stale set is empty here; nonempty sets are exercised at the graph API
    # (see test_graph.test_mark_needs_revision_flags_committed_dependent).
    scenario, config = revision_scenario([0.3, 0.9])
    orch = Orchestrator(scenario, config)
    orch.run()
    reassigns = orch.log.by_kind("reassign")
    assert len(reassigns) == 1
    assert reassigns[0].payload["stale"] == []


def test_compile_concatenates_chain_in_order():
    graph = build_graph([make_task("a"), make_task("b", deps=["a"])])
    memory = SharedMemory()
    for task_id, content in (("a", "first"), ("b", "second")):
        key = (task_id, "w", 0)
        from taskweave import CandidateOutput

        memory.store(
            CandidateOutput(
                task_id=task_id,
                agent_id="w",
                attempt=0,
                content=content,
                emitted_facts=frozenset({task_id}),
                declared_confidence=0.5,
                produced_at=0.0,
            ),
        )
        memory.commit(task_id, key)
        graph.mark_in_progress(task_id)
        graph.mark_committed(task_id)
    document = compile_final_output(memory, graph)
    assert [s.task_id for s in document.sections] == ["a", "b"]
    assert document.text == "first\n\nsecond"
    assert document.fact_union == frozenset({"a", "b"})


def test_compile_breaks_diamond_ties_by_id():
    specs = [
        make_task("a"),
        make_task("c", deps=["a"]),
        make_task("b", deps=["a"]),
        make_task("d", deps=["b", "c"]),
    ]
    graph = build_graph(specs)
    memory = SharedMemory()
    from taskweave import CandidateOutput

    for task_id in ("a", "b", "c", "d"):
        key = (task_id, "w", 0)
        memory.store(
            CandidateOutput(
                task_id=task_id,
                agent_id="w",
                attempt=0,
                content=task_id,
                emitted_facts=frozenset(),
                declared_confidence=0.5,
                produced_at=0.0,
            ),
        )
        memory.commit(task_id, key)
    for task_id in ("a", "b", "c", "d"):
        graph.mark_in_progress(task_id)
        graph.mark_committed(task_id)
    document = compile_final_output(memory, graph)
    assert [s.task_id for s in document.sections] == ["a", "b", "c", "d"]


def test_compile_requires_every_commit():
    graph = build_graph([make_task("a")])
    with pytest.raises(MissingCommitError):
        compile_final_output(SharedMemory(), graph)
