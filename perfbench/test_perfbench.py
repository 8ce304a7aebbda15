"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import synth  # noqa: E402
import reference  # noqa: E402
from checks import Tally, check_run  # noqa: E402
from taskweave.orchestrator import RunConfig, orchestrate  # noqa: E402
from taskweave.graph import TaskGraph  # noqa: E402
from taskweave.scenario import load_scenario  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = synth.Shape(
    tasks=24, width=4, deps=2, agents=3, revision_budget=2,
    ambiguous=0.5, low_fact=0.3, contingent=0.3, contradictions=2,
)


def test_generator_is_a_function_of_shape_and_seed():
    first = synth.dumps(synth.generate(SMALL, 5))
    assert synth.dumps(synth.generate(SMALL, 5)) == first
    assert synth.dumps(synth.generate(SMALL, 6)) != first


@pytest.mark.parametrize("seed", range(5))
def test_generated_scenario_loads_runs_and_passes_the_checks(tmp_path, seed):
    path = tmp_path / "scenario.json"
    path.write_text(synth.dumps(synth.generate(SMALL, seed)), encoding="utf-8")
    scenario = load_scenario(path)
    assert len(scenario.tasks) == SMALL.tasks
    assert set(scenario.static_assignments) == {t.id for t in scenario.tasks}
    for agent in scenario.agents:
        assert len(agent.behavior) == SMALL.tasks * (SMALL.revision_budget + 1)

    for overrides in ({}, {"static": True}, {"no_memory_sharing": True}):
        config = RunConfig().with_overrides(scenario.defaults).with_overrides(overrides)
        result = orchestrate(scenario, config)
        assert check_run(result.report.to_json(), result.log.to_jsonl(), scenario, config) == []


def test_generated_scenario_passes_the_validate_command(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(synth.dumps(synth.generate(SMALL, 1)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "taskweave.cli", "validate", str(path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"ok: {SMALL.tasks} tasks")


@pytest.fixture
def canonical_run():
    scenario = load_scenario(ROOT / "scenarios" / "filing_risk_deep_dive.json")
    config = RunConfig().with_overrides(scenario.defaults)
    result = orchestrate(scenario, config)
    return scenario, config, result.report.to_json(), result.log.to_jsonl()


def test_tampered_log_is_a_counted_failure_not_a_crash(canonical_run):
    scenario, config, report, log = canonical_run
    assert check_run(report, log, scenario, config) == []

    lines = log.splitlines(keepends=True)
    commits = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "commit"]
    for i in commits:
        tampered = "".join(lines[:i] + lines[i + 1 :])
        assert check_run(report, tampered, scenario, config), f"removed commit at line {i}"
    assert check_run(report, log[: len(log) // 2], scenario, config)  # cut mid-line

    tally = Tally()
    assert tally.run("tampered", lambda: (0.1, check_run(report, tampered, scenario, config))) is None
    assert tally.run("good", lambda: (0.1, check_run(report, log, scenario, config))) == 0.1
    assert (tally.attempted, tally.failed) == (2, 1)


def test_a_changed_log_for_the_same_run_is_a_failure(canonical_run):
    _, _, _, log = canonical_run
    tally = Tally()
    assert tally.same_digest("run", log) == []
    assert tally.same_digest("run", log) == []
    assert tally.same_digest("run", log.replace('"attempt": 0', '"attempt": 1', 1))


def test_scaler_divides_by_the_speed_read_on_either_side(monkeypatch):
    readings = iter([0.002, 0.004, 0.006, 0.002])
    monkeypatch.setattr(reference, "job", lambda: next(readings))
    scaler = reference.Scaler()  # warm-up reading 0.002, then 0.004
    wrapped = scaler.wrap(lambda: 0.5)
    assert wrapped() == pytest.approx((0.5 / 0.005 * reference.NOMINAL_S, 0.5))
    assert scaler.wrap(lambda: None)() is None  # failed, but the reading is taken
    assert scaler.last == 0.002


def test_tracer_nests_spans_and_puts_the_originals_back(canonical_run):
    scenario, config, _, _ = canonical_run
    original = TaskGraph.ready_tasks
    tracer = Tracer()
    with tracer:
        assert TaskGraph.ready_tasks is not original
        orchestrate(scenario, config)
    assert TaskGraph.ready_tasks is original

    names = [span[0] for span in tracer.spans]
    run = names.index("orchestrator.run")
    assert all(span[3] == run for span in tracer.spans if span[0] == "graph.ready_tasks")
    times = tracer.layer_times()
    assert times["graph.ready_tasks.calls"] == names.count("graph.ready_tasks") > 0
    assert 0 < times["orchestrator.run.self"] < times["orchestrator.run"]
    assert tracer.counts["evaluator.score_entry"] > 0


def test_benchmark_json_names_what_the_benchmark_prints(tmp_path):
    """A short run of each mode prints exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [*spec["command"], "--workload", "canonical_sweep", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
