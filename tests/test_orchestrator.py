"""Orchestration loop: waves, fan-out, commits, feedback, budgets, timing."""

from __future__ import annotations

import json
import math
import re
import sys

import pytest

from taskweave import (
    CandidateOutput,
    DeadlockError,
    DuplicateKeyError,
    InvariantError,
    MissingCommitError,
    NoScriptedBehaviorError,
    Orchestrator,
    RunConfig,
    ScenarioValidationError,
    ScorerUnavailableError,
    SharedMemory,
    TaskGraph,
    build_graph,
    compile_final_output,
    orchestrate,
)
from taskweave import orchestrator, scoring
from taskweave.evaluator import Evaluator
from taskweave.runlog import RunLog
from taskweave.scenario import load_scenario

from conftest import CANONICAL_SCENARIOS, SCENARIO_DIR, make_agent, make_row, make_scenario, make_task
from test_golden_digests import VARIANTS, load_perfbench_run


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
    winner = orch.memory.committed_entry("amb")
    assert winner.agent_id == "a2"
    assert result.report.counts["parallel_fanouts"] == 1
    assert result.report.counts["dispatches"] == 3
    # losing candidates retained with their stored outputs
    losers = {e.agent_id for e in entries if e is not winner}
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


@pytest.mark.parametrize(
    "threshold, revisions",
    [(0.75, 1), (math.nextafter(0.75, 1.0), 0)],
    ids=["critique-at", "critique-just-below"],
)
def test_a_critique_at_the_severity_threshold_reopens_its_task(threshold, revisions):
    # factuality 0.25 is critiqued at severity 0.75; only a critique at or above the threshold reopens
    scenario, config = revision_scenario([0.25, 0.9])
    orch = Orchestrator(scenario, config.with_overrides({"severity_threshold": threshold}))
    orch.run()
    assert [event.payload["severity"] for event in orch.log.by_kind("feedback")] == [0.75]
    assert len(orch.log.by_kind("reassign")) == revisions
    assert orch.memory.committed_entry("t1").attempt == revisions


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


class FailingScorer:
    """Scores every output 0.5, and fails on task `t2`."""

    def components(self, output, task):
        if task.id == "t2":
            raise RuntimeError("scorer failure mid-run")
        return (0.5, 0.5, 0.5)


def chain_scenario():
    """Two tasks in a row: `t1` is stored and committed before `t2` is scored."""
    return make_scenario(
        tasks=[make_task("t1", reference={"f1"}), make_task("t2", reference={"f2"}, deps={"t1"})],
        agents=[make_agent("a1", rows={("t1", 0): make_row({"f1"}), ("t2", 0): make_row({"f2"})})],
    )


def store_payload(entry):
    """The `store` payload the run writes for a memory entry."""
    return {
        "task_id": entry.task_id,
        "agent_id": entry.agent_id,
        "attempt": entry.attempt,
        "version": entry.version,
        "committed": False,
        "emitted_facts": sorted(entry.output.emitted_facts),
        "declared_confidence": entry.output.declared_confidence,
        "score": None,
    }


def test_a_fanout_logs_each_candidate_store_and_the_winner_commit():
    orch = Orchestrator(ambiguous_scenario(), RunConfig(k=3))
    log = orch.run().log
    entries = sorted(orch.memory.candidates("amb"), key=lambda e: e.version)
    assert [e.payload for e in log.by_kind("store")] == [store_payload(e) for e in entries]
    (commit,) = log.by_kind("commit")
    assert log.committed_store(commit.payload) == store_payload(orch.memory.committed_entry("amb"))
    assert commit.payload["agent_id"] == "a2"


def test_the_log_holds_every_store_and_commit_when_the_run_returns_or_raises(monkeypatch):
    monkeypatch.setitem(scoring._SCORERS, "failing", FailingScorer)
    orch = Orchestrator(chain_scenario(), RunConfig(no_feedback=True))
    log = orch.run().log
    stores = [store_payload(orch.memory.entry((task_id, "a1", 0))) for task_id in ("t1", "t2")]
    assert [e.payload for e in log.by_kind("store")] == stores
    assert [log.committed_store(e.payload) for e in log.by_kind("commit")] == stores

    config = RunConfig(scorer="failing", no_feedback=True)
    failing = Orchestrator(chain_scenario(), config)
    with pytest.raises(RuntimeError, match="scorer failure mid-run"):
        failing.run()
    # the log of the run that raised holds every event up to the fault: t1 stored and committed, t2 stored
    events = [(e.kind, e.payload) for e in failing.log.events if e.kind in ("store", "commit")]
    t1, t2 = (failing.memory.entry((task_id, "a1", 0)) for task_id in ("t1", "t2"))
    assert events == [
        ("store", store_payload(t1)),
        ("commit", {"task_id": "t1", "agent_id": "a1", "attempt": 0, "version": t1.version, "score": t1.score.to_dict()}),
        ("store", store_payload(t2)),
    ]


def no_parallel_runs(work):
    """(case, no_parallel config) of the bundled scenarios and the bench shapes at 30 tasks,
    seeds 0 and 7, each configured as the CLI configures it."""
    bench = load_perfbench_run()
    paths = list(CANONICAL_SCENARIOS)
    for name, shape in bench.SHAPES.items():
        path = work / f"{name}.json"
        path.write_text(bench.synth.dumps(bench.synth.generate(shape.scaled(30), 1)), encoding="utf-8")
        paths.append(path)
    for path in paths:
        scenario = load_scenario(path)
        for seed in (0, 7):
            yield f"{path.stem}/seed{seed}", scenario, bench.make_item(path, scenario, "no-parallel", seed).config


def test_no_parallel_is_a_router_of_k_one(tmp_path):
    runs = 0
    for case, scenario, config in no_parallel_runs(tmp_path):
        assert config.no_parallel and config.k > 1
        single = config.with_overrides({"no_parallel": False, "k": 1})
        assert orchestrate(scenario, config).log.to_jsonl() == orchestrate(scenario, single).log.to_jsonl(), case
        runs += 1
    assert runs == (len(CANONICAL_SCENARIOS) + len(load_perfbench_run().SHAPES)) * 2


class OutOfRangeScorer(scoring.LexicalScorer):
    """The lexical scorer, but task `q5_memo` gets the triple it was built with."""

    def __init__(self, triple):
        self.triple = triple

    def components(self, output, task):
        return self.triple if task.id == "q5_memo" else super().components(output, task)


@pytest.mark.parametrize(
    "triple",
    [(1.0, math.nan, 1.5), (1.0, 1.0, 1.5), (-0.25, 1.0, 1.0), (1.0, 1.0, math.nan)],
    ids=["nan-factuality", "relevance-above-one", "negative-coherence", "nan-relevance"],
)
def test_a_scorer_component_that_is_nan_or_outside_the_unit_interval_stops_the_run(monkeypatch, triple):
    monkeypatch.setitem(scoring._SCORERS, "out_of_range", lambda: OutOfRangeScorer(triple))
    scenario = load_scenario(SCENARIO_DIR / "compliance_audit.json")
    config = RunConfig().with_overrides(scenario.defaults).with_overrides({"scorer": "out_of_range"})
    named = re.escape("('q5_memo', ") + ".*" + re.escape(f"components {triple!r} outside [0, 1]")
    with pytest.raises(ScorerUnavailableError, match=named):
        orchestrate(scenario, config)
    # the run stops before it commits the entry, and its log holds no NaN
    orch = Orchestrator(scenario, config)
    with pytest.raises(ScorerUnavailableError):
        orch.run()
    assert "q5_memo" in {event.payload["task_id"] for event in orch.log.by_kind("store")}
    assert "q5_memo" not in {event.payload["task_id"] for event in orch.log.by_kind("commit")}
    assert orch.memory.committed_entry("q5_memo") is None
    assert orch.memory.committed_count() == 5
    assert "NaN" not in orch.log.to_jsonl()


def test_reproducibility_same_seed_same_bytes():
    first = orchestrate(ambiguous_scenario(), RunConfig(seed=42))
    second = orchestrate(ambiguous_scenario(), RunConfig(seed=42))
    assert first.log.to_jsonl() == second.log.to_jsonl()
    stamp = "fixed"
    assert first.report.to_json(stamp) == second.report.to_json(stamp)


def test_a_stored_key_raises_before_its_store_event_is_appended():
    orch = Orchestrator(solo_scenario())
    orch.memory.store(CandidateOutput("t1", "solo", 0, "", frozenset(), 0.5, 0.0))
    with pytest.raises(DuplicateKeyError):
        orch.run()
    assert [event.kind for event in orch.log.events] == ["dispatch"]


def layering_runs(work):
    """(scenario, config) of every bundled scenario and of one small benchmark shape, under
    every variant, each configured as the CLI configures it."""
    bench = load_perfbench_run()
    small = work / "deep_dag.json"
    small.write_text(bench.synth.dumps(bench.synth.generate(bench.SHAPES["deep_dag"].scaled(40), 1)), encoding="utf-8")
    for path in (*CANONICAL_SCENARIOS, small):
        scenario = load_scenario(path)
        for _, settings in VARIANTS.values():
            yield scenario, RunConfig().with_overrides(scenario.defaults).with_overrides(settings)


def test_only_the_orchestrator_appends_run_log_events_and_a_store_payload_is_its_entry(tmp_path, monkeypatch):
    appended = []  # (calling module, kind, payload, a copy of the payload as appended)
    append = RunLog.append

    def spy(log, kind, virtual_time, payload):
        appended.append((sys._getframe(1).f_globals["__name__"], kind, payload, dict(payload)))
        return append(log, kind, virtual_time, payload)

    monkeypatch.setattr(RunLog, "append", spy)
    runs = 0
    for scenario, config in layering_runs(tmp_path):
        appended.clear()
        orch = Orchestrator(scenario, config)
        log = orch.run().log
        runs += 1
        assert {module for module, _, _, _ in appended} == {"taskweave.orchestrator"}
        assert [payload for _, _, payload, _ in appended] == [event.payload for event in log.events]
        stores = [(payload, as_appended) for _, kind, payload, as_appended in appended if kind == "store"]
        assert stores
        for payload, as_appended in stores:
            entry = orch.memory.entry((payload["task_id"], payload["agent_id"], payload["attempt"]))
            assert payload == as_appended == {
                "task_id": entry.task_id,
                "agent_id": entry.agent_id,
                "attempt": entry.attempt,
                "version": entry.version,
                "committed": False,
                "emitted_facts": sorted(entry.output.emitted_facts),
                "declared_confidence": entry.output.declared_confidence,
                "score": None,
            }
    assert runs == (len(CANONICAL_SCENARIOS) + 1) * len(VARIANTS)


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


@pytest.mark.parametrize(
    "config, extra",
    # one task, budget 3: a bound of 1 * 4 * 3 at k = 3, and of 1 * 4 * 1 for the router of k = 1
    [(RunConfig(), 100), (RunConfig(no_parallel=True), 4)],
    ids=["default", "no_parallel"],
)
def test_dispatch_bound_breach_is_an_invariant_error(monkeypatch, config, extra):
    orch = Orchestrator(solo_scenario(), config)
    run_wave = orch._run_wave

    def overcounting_wave(assignable):
        executed = run_wave(assignable)
        orch._dispatches += extra
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


@pytest.mark.parametrize("static", [False, True], ids=["dependent-waves", "static-queue"])
def test_a_clock_that_overflows_is_an_invariant_error_before_the_wave_stores(static):
    # each latency is finite, as the schema requires, but t1's and t2's sum is not
    rows = {("t1", 0): make_row({"f1"}, latency=1e308), ("t2", 0): make_row({"f2"}, latency=1e308)}
    scenario = make_scenario(
        tasks=[make_task("t1", reference={"f1"}), make_task("t2", reference={"f2"}, deps=() if static else {"t1"})],
        agents=[make_agent("a1", rows=rows)],
        static_assignments={"t1": "a1", "t2": "a1"},
    )
    orch = Orchestrator(scenario, RunConfig(static=static))
    with pytest.raises(InvariantError, match="virtual time overflows at task 't2' \\(agent 'a1', attempt 0\\)"):
        orch.run()
    # no store of the overflowing wave reached the run log
    assert [event.payload["task_id"] for event in orch.log.by_kind("store")] == ([] if static else ["t1"])
    assert all(event.virtual_time < float("inf") for event in orch.log.events)


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
        graph.mark_committed(task_id)
    document = compile_final_output(memory, graph)
    assert [s.task_id for s in document.sections] == ["a", "b", "c", "d"]


def test_compile_requires_every_commit():
    graph = build_graph([make_task("a")])
    with pytest.raises(MissingCommitError):
        compile_final_output(SharedMemory(), graph)


# -- the end of a run: the winner count check and the document compiled on first read ------------

VARIANT_FLAGS = ({}, {"static": True}, {"no_parallel": True}, {"no_feedback": True}, {"no_memory_sharing": True})


@pytest.mark.parametrize("path", CANONICAL_SCENARIOS, ids=lambda p: p.stem)
def test_the_document_is_the_compiled_final_output(path):
    scenario = load_scenario(path)
    base = RunConfig().with_overrides(scenario.defaults)
    for flags in VARIANT_FLAGS:
        for seed in (0, 7):
            orch = Orchestrator(scenario, base.with_overrides({"seed": seed, **flags}))
            result = orch.run()
            assert result.document == compile_final_output(orch.memory, orch.graph)
            assert result.document is result.document  # compiled once


def test_a_run_compiles_the_document_only_when_it_is_read(monkeypatch):
    calls = []
    for owner, name in ((orchestrator, "compile_final_output"), (TaskGraph, "topological_order")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, original=original: calls.append(name) or original(*args))
    scenario = load_scenario(CANONICAL_SCENARIOS[0])
    result = orchestrate(scenario, RunConfig().with_overrides(scenario.defaults))
    assert calls == []
    assert result.document.sections
    assert result.document.sections
    assert calls == ["compile_final_output", "topological_order"]


def test_a_run_whose_memory_misses_a_winner_raises(monkeypatch):
    commit = SharedMemory.commit

    def commit_then_forget_t2(memory, task_id, key):
        entry = commit(memory, task_id, key)
        if task_id == "t2":
            del memory._committed[task_id]
        return entry

    monkeypatch.setattr(SharedMemory, "commit", commit_then_forget_t2)
    orch = Orchestrator(chain_scenario(), RunConfig(no_feedback=True))
    with pytest.raises(MissingCommitError, match="1 committed entries for 2 tasks"):
        orch.run()
    assert orch.log.by_kind("terminate") == []  # the log never says completed


@pytest.mark.parametrize("path", CANONICAL_SCENARIOS, ids=lambda p: p.stem)
def test_each_store_of_a_bundled_run_is_uncommitted_and_each_commit_names_one(path):
    log = Orchestrator(load_scenario(path), RunConfig()).run().log
    stores, commits = log.by_kind("store"), log.by_kind("commit")
    # a store payload's `committed` is always false and its `score` null; a winner's score is on its commit
    assert [(e.payload["committed"], e.payload["score"]) for e in stores] == [(False, None)] * len(stores)
    assert [e.payload["version"] for e in stores] == list(range(1, len(stores) + 1))
    assert all(type(e.payload["score"]) is dict for e in commits)
    # each commit names by version a store event that precedes it in the log
    position = {id(e): i for i, e in enumerate(log.events)}
    for commit in commits:
        store = stores[commit.payload["version"] - 1]
        assert log.committed_store(commit.payload) is store.payload
        assert position[id(store)] < position[id(commit)]
