"""Measurement suite: per-metric contracts and report-from-log purity."""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskweave import (
    EmptyReferenceError,
    NoTerminateError,
    Orchestrator,
    RunConfig,
    RunLog,
    RunReport,
    UnknownEntryError,
    build_report,
    completion_time,
    compliance_accuracy,
    factual_coverage,
    load_scenario,
    orchestrate,
    redundancy_penalty,
    revision_rate,
)
from taskweave.scenario import scenario_from_dict

from conftest import CANONICAL_SCENARIOS, REPO_ROOT


def test_coverage_identity():
    facts = {f"f{i}" for i in range(10)}
    assert factual_coverage(facts, facts) == 1.0


def test_coverage_partial_matches_count_oracle():
    reference = {f"f{i}" for i in range(10)}
    emitted = {f"f{i}" for i in range(7)} | {"junk1", "junk2"}
    expected = len(emitted & reference) / len(reference)
    assert factual_coverage(emitted, reference) == expected == 0.7


def test_coverage_disjoint_is_zero():
    assert factual_coverage({"a"}, {"b"}) == 0.0


def test_coverage_rejects_empty_reference():
    with pytest.raises(EmptyReferenceError):
        factual_coverage({"a"}, set())


def test_coverage_monotone_in_emitted_facts():
    rng = random.Random(3)
    for _ in range(50):
        reference = {f"f{i}" for i in range(rng.randint(1, 12))}
        emitted = {f for f in reference if rng.random() < 0.5}
        extra = f"f{rng.randint(0, 20)}"
        assert factual_coverage(emitted | {extra}, reference) >= factual_coverage(
            emitted, reference
        )


def test_compliance_all_matched():
    committed = {"q1": frozenset({"g1", "x"}), "q2": frozenset({"g2"})}
    assert compliance_accuracy(committed, {"q1": "g1", "q2": "g2"}) == 1.0


def test_compliance_half_matched():
    committed = {"q1": frozenset({"g1"}), "q2": frozenset({"wrong"})}
    assert compliance_accuracy(committed, {"q1": "g1", "q2": "g2"}) == 0.5


def test_compliance_absent_without_gold():
    assert compliance_accuracy({"t": frozenset({"f"})}, {}) is None


def test_redundancy_zero_for_disjoint_sets():
    sets = [frozenset({"a", "b"}), frozenset({"c"}), frozenset({"d"})]
    assert redundancy_penalty(sets) == 0.0


def test_redundancy_counts_duplicates():
    sets = [frozenset({"f1", "f2"}), frozenset({"f2", "f3"})]
    # 4 emissions, one duplicate instance
    assert redundancy_penalty(sets) == 0.25


def test_redundancy_single_entry_is_zero():
    assert redundancy_penalty([frozenset({"f1", "f2", "f3"})]) == 0.0


def test_redundancy_counts_contradiction_pairs_double():
    sets = [frozenset({"up"}), frozenset({"down"})]
    assert redundancy_penalty(sets, [("up", "down")]) == pytest.approx(2 / 2)


def test_redundancy_clamped_to_one():
    sets = [frozenset({"a"}), frozenset({"b"})]
    pairs = [("a", "b"), ("a", "b")]
    assert redundancy_penalty(sets, pairs) == 1.0


def test_redundancy_empty_state_is_zero():
    assert redundancy_penalty([]) == 0.0


def fake_log(n_tasks: int, n_reassigns: int) -> RunLog:
    log = RunLog()
    for i in range(n_tasks):
        log.append(
            "dispatch",
            0.0,
            {"task_id": f"t{i}", "agent_id": "a", "attempt": 0, "mode": "single", "wave": 0},
        )
    for i in range(n_reassigns):
        log.append(
            "reassign",
            1.0,
            {"task_id": f"t{i % n_tasks}", "agent_id": "a", "attempt": 1, "reason": "revision_request", "stale": []},
        )
    log.append("terminate", 5.0, {"reason": "completed", "waves": 1, "dispatches": n_tasks})
    return log


def test_revision_rate_zero_without_reassigns():
    assert revision_rate(fake_log(4, 0)) == 0.0


def test_revision_rate_counts_per_task():
    assert revision_rate(fake_log(4, 2)) == 0.5


def test_revision_rate_zero_by_construction_without_feedback():
    scenario = load_scenario(CANONICAL_SCENARIOS[0])
    config = RunConfig().with_overrides(scenario.defaults).with_overrides(
        {"no_feedback": True}
    )
    orch = Orchestrator(scenario, config)
    result = orch.run()
    assert revision_rate(orch.log) == 0.0
    assert result.report.revision_rate == 0.0


def test_completion_time_spans_first_dispatch_to_terminate():
    log = RunLog()
    log.append("dispatch", 2.0, {"task_id": "t", "agent_id": "a", "attempt": 0, "mode": "single", "wave": 0})
    log.append("terminate", 9.0, {"reason": "completed", "waves": 1, "dispatches": 1})
    assert completion_time(log) == 7.0


def test_completion_time_requires_terminate():
    with pytest.raises(NoTerminateError):
        completion_time(RunLog())


def test_completion_time_of_a_log_with_no_dispatch_is_zero():
    log = RunLog()
    log.append("terminate", 4.0, {"reason": "completed", "waves": 0, "dispatches": 0})
    assert completion_time(log) == 0.0


def test_report_is_pure_function_of_log_and_scenario():
    scenario = load_scenario(CANONICAL_SCENARIOS[0])
    config = RunConfig().with_overrides(scenario.defaults)
    orch = Orchestrator(scenario, config)
    result = orch.run()

    recomputed = build_report(orch.log, scenario)
    assert recomputed == result.report

    # and from a serialized round-trip of the log
    replayed = RunLog.from_jsonl(orch.log.to_jsonl())
    assert build_report(replayed, scenario) == result.report


def test_report_means_match_committed_score_means():
    scenario = load_scenario(CANONICAL_SCENARIOS[0])
    config = RunConfig().with_overrides(scenario.defaults)
    orch = Orchestrator(scenario, config)
    result = orch.run()
    committed = [
        orch.memory.committed_entry(t.id) for t in scenario.tasks
    ]
    coherence = sum(e.score.coherence for e in committed) / len(committed)
    relevance = sum(e.score.relevance for e in committed) / len(committed)
    assert result.report.coherence_mean == pytest.approx(coherence)
    assert result.report.relevance_mean == pytest.approx(relevance)


def test_report_ranges_are_valid():
    for path in CANONICAL_SCENARIOS:
        scenario = load_scenario(path)
        config = RunConfig().with_overrides(scenario.defaults)
        report = Orchestrator(scenario, config).run().report
        assert 0.0 <= report.factual_coverage <= 1.0
        assert 0.0 <= report.redundancy_penalty <= 1.0
        assert report.revision_rate >= 0.0
        assert 0.0 <= report.coherence_mean <= 1.0
        assert 0.0 <= report.relevance_mean <= 1.0
        if report.compliance_accuracy is not None:
            assert 0.0 <= report.compliance_accuracy <= 1.0


REPORT_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 1e-7, 1e16, 0.1 + 0.2, 5e-324])
# what the leaf writer writes itself, and what it hands to `json`: bools, None, and nested dicts it recurses into
REPORT_LEAVES = st.recursive(
    REPORT_FLOATS | st.integers() | st.booleans() | st.none() | st.text(max_size=4),
    lambda inner: st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@given(
    st.tuples(*[REPORT_FLOATS | REPORT_LEAVES] * 7),
    st.none() | REPORT_FLOATS,
    st.dictionaries(st.text(max_size=6), st.integers() | REPORT_FLOATS | REPORT_LEAVES, max_size=5),
    st.none() | st.text(max_size=8),
)
def test_report_json_is_json_dumps_with_indent(values, compliance, counts, timestamp):
    coverage, redundancy, revision, coherence, relevance, completion, _ = values
    report = RunReport(coverage, compliance, redundancy, revision, coherence, relevance, completion, counts)
    stamp = "" if timestamp is None else timestamp
    assert report.to_json(stamp) == json.dumps(report.to_dict(stamp), sort_keys=True, indent=2) + "\n"


def test_report_json_omits_compliance_without_gold():
    from conftest import make_agent, make_row, make_scenario, make_task
    from taskweave import orchestrate

    scenario = make_scenario(
        tasks=[make_task("t1", reference={"f1"})],
        agents=[make_agent("a", rows={("t1", 0): make_row({"f1"})})],
    )
    report = orchestrate(scenario).report
    assert report.compliance_accuracy is None
    assert "compliance_accuracy" not in report.to_dict()


def load_synth():
    """`perfbench/synth.py`, the benchmark's scenario generator, as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_synth", REPO_ROOT / "perfbench" / "synth.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


synth = load_synth()

VARIANT_FLAGS = (
    {},
    {"static": True},
    {"no_parallel": True},
    {"no_feedback": True},
    {"no_memory_sharing": True},
)


synth_shapes = st.builds(
    synth.Shape,
    tasks=st.integers(2, 24),
    width=st.integers(1, 4),
    deps=st.integers(1, 3),
    agents=st.integers(1, 3),
    revision_budget=st.integers(1, 3),
    ambiguous=st.floats(0, 1),
    low_fact=st.floats(0, 1),
    contingent=st.floats(0, 1),
    contradictions=st.integers(0, 3),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(synth_shapes, st.integers(0, 2**32 - 1), st.data())
def test_report_recomputed_from_a_written_log_is_the_run_report(shape, seed, data):
    doc = synth.generate(shape, seed)
    # gold answers make compliance count: each names a reference fact or a fact no one emits
    gold_tasks = data.draw(st.sets(st.sampled_from([t["id"] for t in doc["tasks"]])), label="gold")
    doc["gold_answers"] = {
        tid: data.draw(st.sampled_from([f"{tid}.r0", f"{tid}.r2", "never.emitted"]), label=tid)
        for tid in sorted(gold_tasks)
    }
    scenario = scenario_from_dict(doc)
    base = RunConfig().with_overrides(scenario.defaults)
    for flags in VARIANT_FLAGS:
        result = orchestrate(scenario, base.with_overrides(flags))
        replayed = RunLog.from_jsonl(result.log.to_jsonl())
        assert build_report(replayed, scenario) == result.report
        assert reference_build_report(replayed, scenario) == result.report

        unterminated = RunLog(events=[e for e in result.log.events if e.kind != "terminate"])
        with pytest.raises(NoTerminateError):
            build_report(unterminated, scenario)


# -- the version-indexed replay against the dict replay it replaced --------------------------


def reference_committed_state(log: RunLog) -> list[dict]:
    """The dict replay: every store indexed by (task, agent, attempt), every commit payload copied."""
    stores = {
        (e.payload["task_id"], e.payload["agent_id"], e.payload["attempt"]): e.payload
        for e in log.by_kind("store")
    }
    final: dict[str, dict] = {}
    for event in log.by_kind("commit"):
        payload = dict(event.payload)
        key = (payload["task_id"], payload["agent_id"], payload["attempt"])
        payload["emitted_facts"] = frozenset(stores[key]["emitted_facts"])
        final[payload["task_id"]] = payload
    return sorted(final.values(), key=lambda p: p["version"])


def reference_build_report(log: RunLog, scenario) -> RunReport:
    """`build_report` as it was before the version index, with its helpers inlined as they were."""
    committed = reference_committed_state(log)
    fact_sets = [entry["emitted_facts"] for entry in committed]
    union: set[str] = set()
    for facts in fact_sets:
        union |= facts

    reference = set(scenario.reference_facts())
    coverage = len(set(union) & reference) / len(reference) if reference else 0.0
    compliance = compliance_accuracy(
        {entry["task_id"]: entry["emitted_facts"] for entry in committed},
        scenario.gold_answers,
    )
    scores = [entry["score"] for entry in committed if entry.get("score")]
    coherence_mean = math.fsum(s["coherence"] for s in scores) / len(scores) if scores else 0.0
    relevance_mean = math.fsum(s["relevance"] for s in scores) / len(scores) if scores else 0.0

    task_ids = {e.payload["task_id"] for e in log.by_kind("dispatch")}
    terminates = log.by_kind("terminate")
    if not terminates:
        raise NoTerminateError("run log has no terminate event")
    dispatches = log.by_kind("dispatch")
    fanouts = {
        (e.payload["task_id"], e.payload["attempt"])
        for e in log.by_kind("dispatch")
        if e.payload["mode"] == "parallel"
    }
    return RunReport(
        factual_coverage=coverage,
        compliance_accuracy=compliance,
        redundancy_penalty=redundancy_penalty(fact_sets, scenario.contradiction_pairs),
        revision_rate=len(log.by_kind("reassign")) / len(task_ids) if task_ids else 0.0,
        coherence_mean=coherence_mean,
        relevance_mean=relevance_mean,
        completion_time=terminates[-1].virtual_time - dispatches[0].virtual_time if dispatches else 0.0,
        counts={
            "tasks": len(scenario.tasks),
            "dispatches": len(log.by_kind("dispatch")),
            "parallel_fanouts": len(fanouts),
            "feedback_messages": len(log.by_kind("feedback")),
        },
    )


def bundled_runs():
    """(scenario, log) of the bundled scenarios under every variant and seeds 0 and 7."""
    for path in CANONICAL_SCENARIOS:
        scenario = load_scenario(path)
        base = RunConfig().with_overrides(scenario.defaults)
        for flags in VARIANT_FLAGS:
            for seed in (0, 7):
                yield scenario, orchestrate(scenario, base.with_overrides({"seed": seed, **flags})).log


def test_report_of_every_bundled_run_equals_the_dict_replay():
    runs = 0
    for scenario, log in bundled_runs():
        assert build_report(log, scenario) == reference_build_report(log, scenario)
        runs += 1
    assert runs == 3 * 5 * 2


def replay_every_commit(log: RunLog, scenario) -> list[dict]:
    """The store payload of every commit, looked up in log order."""
    return [log.committed_store(event.payload) for event in log.by_kind("commit")]


# The two readers of the log that look a commit's store event up by its version.
REPLAYS = {
    "build_report": build_report,
    "committed_store": replay_every_commit,
}


def first_lookup(log: RunLog, replay: str, versions) -> tuple[int, str]:
    """(version, task id) of the first commit `replay` looks up whose version is in `versions`:
    the report looks up each final winner in version order, `replay_every_commit` every commit
    in log order."""
    commits = [event.payload for event in log.by_kind("commit")]
    if replay == "build_report":
        commits = sorted({c["task_id"]: c for c in commits}.values(), key=lambda c: c["version"])
    return next((c["version"], c["task_id"]) for c in commits if c["version"] in versions)


@pytest.mark.parametrize("replay", REPLAYS)
def test_a_log_missing_a_store_event_names_the_commit_it_cannot_replay(replay):
    for scenario, log in bundled_runs():
        stores = log.by_kind("store")
        dropped = RunLog(events=[e for e in log.events if e is not stores[0]])
        # every version now names the store event after its own, or none
        version, task_id = first_lookup(log, replay, range(1, len(stores) + 1))
        with pytest.raises(UnknownEntryError, match=f"commit of task {task_id!r} names version {version},"):
            REPLAYS[replay](dropped, scenario)


@pytest.mark.parametrize("replay", REPLAYS)
def test_a_log_with_two_store_events_swapped_names_the_commit_it_cannot_replay(replay):
    for scenario, log in bundled_runs():
        stores = log.by_kind("store")
        # the final winner with the lowest version, and a store event of another task
        version, task_id = first_lookup(log, "build_report", range(1, len(stores) + 1))
        winner = stores[version - 1]
        other = next(e for e in stores if e.payload["task_id"] != task_id)
        swapped = RunLog(events=[other if e is winner else winner if e is other else e for e in log.events])
        # a commit naming either version now finds the other task's store event
        version, task_id = first_lookup(log, replay, {version, other.payload["version"]})
        with pytest.raises(UnknownEntryError, match=f"commit of task {task_id!r} names version {version},"):
            REPLAYS[replay](swapped, scenario)
