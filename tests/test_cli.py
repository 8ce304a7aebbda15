"""Command-line surface: flags, outputs, exit codes."""

from __future__ import annotations

import dataclasses
import json

import pytest
from click.testing import CliRunner

from taskweave import RunConfig, load_scenario, orchestrate
from taskweave.cli import main, run

from conftest import CANONICAL_SCENARIOS

FILING = str(CANONICAL_SCENARIOS[0])


@pytest.fixture
def runner():
    return CliRunner()


def test_run_prints_report_and_exits_zero(runner):
    result = runner.invoke(main, ["run", FILING])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["factual_coverage"] == 1.0
    assert report["counts"]["tasks"] == 6


def test_run_writes_report_and_log_files(runner, tmp_path):
    report_path = tmp_path / "report.json"
    log_path = tmp_path / "run.jsonl"
    result = runner.invoke(
        main,
        ["run", FILING, "--report", str(report_path), "--log", str(log_path)],
    )
    assert result.exit_code == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert lines[-1]["kind"] == "terminate"
    kinds = {line["kind"] for line in lines}
    assert {"dispatch", "store", "commit", "terminate"} <= kinds


def test_same_flags_produce_identical_bytes_modulo_timestamp(runner, tmp_path):
    outputs = []
    logs = []
    for i in range(2):
        report_path = tmp_path / f"r{i}.json"
        log_path = tmp_path / f"l{i}.jsonl"
        result = runner.invoke(
            main,
            ["run", FILING, "--seed", "5", "--report", str(report_path), "--log", str(log_path)],
        )
        assert result.exit_code == 0
        outputs.append(json.loads(report_path.read_text()))
        logs.append(log_path.read_bytes())
    assert logs[0] == logs[1]
    for report in outputs:
        report.pop("generated_at")
    assert outputs[0] == outputs[1]


def test_static_flag_changes_variant(runner):
    default = json.loads(runner.invoke(main, ["run", FILING]).output)
    static = json.loads(runner.invoke(main, ["run", FILING, "--static"]).output)
    assert static["factual_coverage"] < default["factual_coverage"]
    assert static["counts"]["feedback_messages"] == 0
    assert static["counts"]["parallel_fanouts"] == 0


def test_no_parallel_flag(runner):
    report = json.loads(runner.invoke(main, ["run", FILING, "--no-parallel"]).output)
    assert report["counts"]["parallel_fanouts"] == 0


def test_no_feedback_flag(runner):
    report = json.loads(runner.invoke(main, ["run", FILING, "--no-feedback"]).output)
    assert report["counts"]["feedback_messages"] == 0
    assert report["revision_rate"] == 0.0


def test_weight_overrides_change_scores(runner):
    report = json.loads(
        runner.invoke(
            main,
            ["run", FILING, "--alpha", "1.0", "--beta", "0.0", "--gamma", "0.0"],
        ).output
    )
    # coherence-only weights: every committed composite equals coherence
    assert report["coherence_mean"] == 1.0


def test_partial_weight_flags_rejected(runner):
    result = runner.invoke(main, ["run", FILING, "--alpha", "0.5"])
    assert result.exit_code != 0
    assert "together" in result.output


def test_theta_and_k_overrides_change_routing(runner, tmp_path):
    row = {
        "task_id": "t1",
        "attempt": 0,
        "content": "answer",
        "emitted_facts": ["f1"],
        "declared_confidence": 0.9,
        "latency": 1,
    }
    doc = {
        "schema_version": 1,
        "tasks": [{"id": "t1", "ambiguity": 0.1, "reference_facts": ["f1"]}],
        "agents": [
            {"id": "a1", "behavior": [row]},
            {"id": "a2", "behavior": [dict(row)]},
        ],
    }
    path = tmp_path / "tunable.json"
    path.write_text(json.dumps(doc))

    default = json.loads(runner.invoke(main, ["run", str(path)]).output)
    assert default["counts"]["parallel_fanouts"] == 0
    # theta above every declared confidence flips the task to competitive fan-out
    tuned = json.loads(
        runner.invoke(main, ["run", str(path), "--theta", "0.99", "--k", "2"]).output
    )
    assert tuned["counts"]["parallel_fanouts"] == 1
    assert tuned["counts"]["dispatches"] == 2


def test_missing_scenario_exits_two(runner):
    result = runner.invoke(main, ["run", "/nope/missing.json"])
    assert result.exit_code == 2


def test_invalid_scenario_exits_two(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "tasks": [], "agents": [], "extra": 1}))
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 2
    assert "invalid scenario" in result.output


def test_deadlock_exits_three(runner, tmp_path):
    doc = {
        "schema_version": 1,
        "tasks": [{"id": "t1"}],
        "agents": [],
    }
    path = tmp_path / "deadlock.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 3
    assert "deadlock" in result.output


def test_runtime_scenario_gap_exits_one(runner, tmp_path):
    # low factuality triggers a revision, but no attempt-1 row exists
    doc = {
        "schema_version": 1,
        "tasks": [{"id": "t1", "reference_facts": ["f1"]}],
        "agents": [
            {
                "id": "a1",
                "behavior": [
                    {
                        "task_id": "t1",
                        "attempt": 0,
                        "content": "junk",
                        "emitted_facts": ["wrong"],
                        "declared_confidence": 0.9,
                        "latency": 1,
                    }
                ],
            }
        ],
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 1
    assert "run failed" in result.output


def test_identical_bytes_across_processes_and_hash_seeds(tmp_path):
    # reproducibility must not depend on Python's per-process string hashing
    import os
    import subprocess
    import sys

    logs = []
    for i, hash_seed in enumerate(("1", "271828")):
        log_path = tmp_path / f"proc{i}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "taskweave.cli",
                "run",
                FILING,
                "--seed",
                "9",
                "--log",
                str(log_path),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        logs.append(log_path.read_bytes())
    assert logs[0] == logs[1]


def test_validate_accepts_canonical_scenarios(runner):
    for path in CANONICAL_SCENARIOS:
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert result.output.startswith("ok:")


@pytest.mark.parametrize(
    "flags",
    [
        ["--theta", "1.5"],
        ["--k", "0"],
        ["--w1", "-0.1"],
        ["--w2", "2"],
        ["--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5"],
    ],
    ids=lambda flags: " ".join(flags),
)
def test_out_of_range_settings_exit_two(runner, flags):
    result = runner.invoke(main, ["run", FILING, *flags])
    assert result.exit_code == 2
    assert "invalid setting" in result.output


def test_out_of_range_scenario_default_exits_two(runner, tmp_path):
    doc = json.loads(CANONICAL_SCENARIOS[0].read_text())
    doc["defaults"]["theta"] = 1.5
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 2
    assert "$.defaults.theta" in result.output


def test_nan_in_scenario_exits_two(runner, tmp_path):
    # json reads NaN and the schema's range checks admit it; the task spec does not
    path = tmp_path / "nan.json"
    path.write_text(
        '{"schema_version": 1, "tasks": [{"id": "t1", "ambiguity": NaN}], "agents": []}'
    )
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert "$.tasks[0]" in result.output


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_latency_exits_two(runner, tmp_path, command):
    doc = json.loads(CANONICAL_SCENARIOS[1].read_text())
    for latency in (float("nan"), float("inf")):
        doc["agents"][0]["behavior"][0]["latency"] = latency
        path = tmp_path / "latency.json"
        path.write_text(json.dumps(doc))  # writes NaN and Infinity, which json reads back
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2, result.output
        assert "invalid scenario: $.agents[0].behavior[0]: latency must be finite" in result.output


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "content",
    [
        b'{"schema_version": 1, "name": "caf\xe9", "tasks": [], "agents": []}',
        b"[" * 100_000,
        b'{"schema_version": 1, "tasks": [], "agents": [], "defaults": {"seed": '
        + b"1" * 5000
        + b"}}",
    ],
    ids=["not-utf-8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"],
)
def test_file_the_parser_cannot_read_exits_two(runner, tmp_path, command, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("invalid scenario: ")
    assert str(path) in result.output


def test_validate_under_python_O_exits_two(tmp_path):
    import os
    import subprocess
    import sys

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "tasks": [{"id": ""}], "agents": []}))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "taskweave.cli", "validate", str(path)],
        env=dict(os.environ),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "$.tasks[0].id" in proc.stderr


def test_validate_rejects_settings_that_run_rejects(runner, tmp_path):
    doc = json.loads(CANONICAL_SCENARIOS[0].read_text())
    doc["defaults"]["weights"] = {"alpha": 0.5, "beta": 0.5, "gamma": 0.5}
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "run"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert "invalid setting: weights must sum to 1, got 1.5" in result.output


def test_validate_accepts_a_chain_deeper_than_the_recursion_limit(runner, tmp_path):
    ids = [f"t{i:05d}" for i in range(2500)]
    tasks = [{"id": ids[0]}] + [{"id": t, "depends_on": [prev]} for prev, t in zip(ids, ids[1:])]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"schema_version": 1, "tasks": tasks, "agents": []}))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == "ok: 2500 tasks, 0 agents\n"


def test_validate_rejects_bad_file(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[]")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2


# Each option with the RunConfig override it stands for. On this scenario every
# one of them changes the run log, so an option the CLI dropped would show.
REVIEW = CANONICAL_SCENARIOS[1]
RUN_OPTIONS = [
    (["--static"], {"static": True}),
    (["--no-feedback"], {"no_feedback": True}),
    (["--no-memory"], {"no_memory_sharing": True}),
    (["--no-parallel"], {"no_parallel": True}),
    (["--seed", "3"], {"seed": 3}),
    (["--theta", "0.9"], {"theta": 0.9}),
    (["--k", "3"], {"k": 3}),
    (["--w1", "0.2"], {"w1": 0.2}),
    (["--w2", "0.5"], {"w2": 0.5}),
    (["--alpha", "0.2", "--beta", "0.5", "--gamma", "0.3"], {"weights": {"alpha": 0.2, "beta": 0.5, "gamma": 0.3}}),
]


@pytest.mark.parametrize("flags,override", RUN_OPTIONS, ids=[" ".join(flags) for flags, _ in RUN_OPTIONS])
def test_each_run_option_gives_the_library_run_it_names(runner, tmp_path, flags, override):
    log_path = tmp_path / "run.jsonl"
    result = runner.invoke(main, ["run", str(REVIEW), *flags, "--log", str(log_path)])
    assert result.exit_code == 0, result.output
    scenario = load_scenario(REVIEW)
    config = RunConfig().with_overrides(scenario.defaults)
    expected = orchestrate(scenario, config.with_overrides(override)).log.to_jsonl()
    assert log_path.read_bytes() == expected.encode("utf-8")
    assert expected != orchestrate(scenario, config).log.to_jsonl()


def test_every_run_parameter_is_a_run_config_field():
    own = {"scenario_path", "report_path", "log_path", "alpha", "beta", "gamma"}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    settings = {param.name for param in run.params} - own
    assert settings <= fields, f"not RunConfig fields: {sorted(settings - fields)}"
