"""Command-line surface: flags, outputs, exit codes."""

from __future__ import annotations

import inspect
import json
import os

import pytest

from taskweave import RunConfig, load_scenario, orchestrate
from taskweave.cli import _PARSER, main, run
from taskweave.scoring import WEIGHT_KEYS

from conftest import CANONICAL_SCENARIOS, CliRunner

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
    assert result.exit_code == 2
    assert result.output.startswith("usage: taskweave run ")  # the run command's own usage
    assert result.output.endswith("taskweave run: error: --alpha/--beta/--gamma must be given together\n")


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


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_contradiction_pair_naming_one_fact_twice_exits_two(runner, tmp_path, command):
    doc = json.loads(CANONICAL_SCENARIOS[2].read_text(encoding="utf-8"))
    doc["contradiction_pairs"].append(["scope_fy25", "scope_fy25"])
    path = tmp_path / "self_pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2
    assert result.output == "invalid scenario: $.contradiction_pairs[1]: pair names fact 'scope_fy25' twice\n"


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


def test_latencies_that_sum_past_the_largest_float_exit_one(runner, tmp_path):
    row = {"attempt": 0, "content": "c", "declared_confidence": 0.9, "latency": 1e308}
    doc = {
        "schema_version": 1,
        "tasks": [{"id": "t1", "reference_facts": ["f1"]}, {"id": "t2", "reference_facts": ["f2"], "depends_on": ["t1"]}],
        "agents": [
            {
                "id": "a1",
                "behavior": [
                    {**row, "task_id": "t1", "emitted_facts": ["f1"]},
                    {**row, "task_id": "t2", "emitted_facts": ["f2"]},
                ],
            }
        ],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    result = runner.invoke(main, ["run", str(path), "--log", str(tmp_path / "run.jsonl")])
    assert result.exit_code == 1
    assert "run failed: virtual time overflows at task 't2'" in result.output
    assert not (tmp_path / "run.jsonl").exists()


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


# Run one after the other over the same --report and --log paths: the two runs'
# reports and logs differ in length, so the two orders rewrite each file both
# shorter and longer.
RERUNS = [(CANONICAL_SCENARIOS[0], [], {}), (REVIEW, ["--static"], {"static": True})]


@pytest.mark.parametrize("order", [RERUNS, RERUNS[::-1]], ids=["filing-then-review", "review-then-filing"])
def test_a_rerun_over_the_same_paths_leaves_the_second_runs_outputs(runner, tmp_path, order):
    report_path, log_path = tmp_path / "report.json", tmp_path / "run.jsonl"
    sizes = []
    for path, flags, override in order:
        result = runner.invoke(main, ["run", str(path), *flags, "--report", str(report_path), "--log", str(log_path)])
        assert result.exit_code == 0, result.output
        sizes.append((report_path.stat().st_size, log_path.stat().st_size))
    assert sizes[0][0] != sizes[1][0] and sizes[0][1] != sizes[1][1]
    scenario = load_scenario(path)
    config = RunConfig().with_overrides(scenario.defaults).with_overrides(override)
    assert report_path.read_text(encoding="utf-8") == result.stdout
    assert log_path.read_bytes() == orchestrate(scenario, config).log.to_jsonl().encode("utf-8")


@pytest.mark.parametrize(
    "option,name,error",
    [("--log", "missing/run.jsonl", "No such file or directory"), ("--report", ".", "Is a directory")],
    ids=["log-in-a-missing-directory", "report-at-a-directory"],
)
def test_an_output_path_that_cannot_be_written_exits_one(tmp_path, option, name, error):
    import subprocess
    import sys

    path = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "taskweave.cli", "run", str(REVIEW), option, str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("cannot write: ") and error in proc.stderr and str(path) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_every_run_parameter_is_a_run_config_field():
    # the parsed keys are what `main` passes to `run`: its named parameters, the weight trio it
    # folds into `weights`, and settings it hands to RunConfig.with_overrides
    parsed = vars(_PARSER.parse_args(["run", FILING]))
    assert parsed.pop("command") is run
    own = {name for name in inspect.signature(run).parameters if name != "settings"} | set(WEIGHT_KEYS)
    assert own <= set(parsed)
    fields = set(RunConfig._fields) - {"weights"}
    settings = set(parsed) - own
    assert settings <= fields, f"not RunConfig fields: {sorted(settings - fields)}"


@pytest.mark.parametrize(
    "option,name,error",
    [
        ("--log", "missing/run.jsonl", "No such file or directory"),
        ("--report", ".", "Is a directory"),
        ("--log", "", "No such file or directory"),
        ("--report", "", "No such file or directory"),
        ("--log", "newdir/", "Is a directory"),
    ],
    ids=["log-in-a-missing-directory", "report-at-a-directory", "log-empty", "report-empty", "log-ending-in-a-slash"],
)
def test_an_output_path_that_cannot_be_written_stops_the_run_before_the_load(
    runner, tmp_path, monkeypatch, option, name, error
):
    monkeypatch.chdir(tmp_path)  # the name is passed as it is: a joined path drops a trailing slash
    loads = []
    monkeypatch.setattr("taskweave.cli.load_scenario", loads.append)
    result = runner.invoke(main, ["run", str(REVIEW), option, name])
    assert result.exit_code == 1
    assert "cannot write: " in result.output and error in result.output
    assert loads == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args,message",
    [
        (["--log", "scenario.json"], "--log 'scenario.json' names the same file as the scenario"),
        (["--report", "./scenario.json"], "--report './scenario.json' names the same file as the scenario"),
        (["--report", "symlink.json"], "--report 'symlink.json' names the same file as the scenario"),
        (["--log", "hard_link.json"], "--log 'hard_link.json' names the same file as the scenario"),
        (["--report", "out.json", "--log", "out.json"], "--log 'out.json' names the same file as --report"),
        (["--report", "out.json", "--log", "sub/../out.json"], "--log 'sub/../out.json' names the same file as --report"),
    ],
    ids=["log-is-the-scenario", "report-is-the-scenario-respelled", "report-is-a-symlink-to-the-scenario",
         "log-is-a-hard-link-to-the-scenario", "report-and-log-are-one-path", "report-and-log-are-one-file"],
)
def test_an_output_path_that_names_the_scenario_or_the_other_output_exits_two_before_the_load(
    runner, tmp_path, monkeypatch, args, message
):
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(REVIEW.read_bytes())
    (tmp_path / "symlink.json").symlink_to(scenario)
    os.link(scenario, tmp_path / "hard_link.json")
    (tmp_path / "sub").mkdir()
    files = sorted(tmp_path.iterdir())
    loads = []
    monkeypatch.setattr("taskweave.cli.load_scenario", lambda path: loads.append(path) or load_scenario(path))
    result = runner.invoke(main, ["run", "scenario.json", *args])
    assert result.exit_code == 2, result.output
    assert f"invalid setting: {message}\n" == result.output
    assert loads == []
    assert scenario.read_bytes() == REVIEW.read_bytes() and sorted(tmp_path.iterdir()) == files


def test_a_log_that_cannot_be_written_leaves_no_report_file(runner, tmp_path):
    report = tmp_path / "report.json"
    result = runner.invoke(main, ["run", str(REVIEW), "--report", str(report), "--log", str(tmp_path / "missing" / "run.jsonl")])
    assert result.exit_code == 1
    assert not report.exists()


def test_an_existing_output_file_and_a_new_one_in_an_existing_directory_can_be_written(runner, tmp_path):
    report, log = tmp_path / "report.json", tmp_path / "run.jsonl"
    report.write_text("old", encoding="utf-8")
    assert runner.invoke(main, ["run", str(REVIEW), "--report", str(report), "--log", str(log)]).exit_code == 0
    assert json.loads(report.read_text(encoding="utf-8")) and log.read_text(encoding="utf-8")


def test_the_runtime_needs_only_the_standard_library():
    # click and the test-only packages are blocked, so an import of any of them fails as it
    # would in an install without the `test` extra
    import subprocess
    import sys

    from conftest import REPO_ROOT

    code = (
        "import contextlib, io, sys\n"
        "for name in ('click', 'jsonschema', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "from taskweave.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    for command in ('validate', 'run'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "            main([command, path])\n"
        "        print(command, path, bool(out.getvalue()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    paths = [str(path) for path in CANONICAL_SCENARIOS]
    proc = subprocess.run([sys.executable, "-c", code, *paths], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{command} {path} True" for path in paths for command in ("validate", "run")
    ]


# Each a command line the parser refuses. Abbreviations of options are refused too: one
# would pass for the option it begins, and a later option could make it ambiguous.
RUN_USAGE, VALIDATE_USAGE, TOP_USAGE = "usage: taskweave run ", "usage: taskweave validate ", "usage: taskweave [-h] "
# each bad command line and the start of the usage it prints: a fault after a command, that command's
BAD_COMMAND_LINES = {
    "unknown-option": (["run", FILING, "--no-such-option"], RUN_USAGE),
    "abbreviated-flag": (["run", FILING, "--no-p"], RUN_USAGE),
    "abbreviated-option": (["run", FILING, "--the", "0.5"], RUN_USAGE),
    "validate-with-a-run-option": (["validate", FILING, "--seed", "3"], VALIDATE_USAGE),
    "unknown-option-before-the-command": (["--foo", "run", FILING], TOP_USAGE),
    "seed-not-an-integer": (["run", FILING, "--seed", "x"], RUN_USAGE),
    "theta-not-a-number": (["run", FILING, "--theta", "x"], RUN_USAGE),
    "run-without-a-scenario": (["run"], RUN_USAGE),
    "validate-without-a-scenario": (["validate"], VALIDATE_USAGE),
    "no-command": ([], TOP_USAGE),
    "alpha-alone": (["run", FILING, "--alpha", "0.5"], RUN_USAGE),
}


@pytest.mark.parametrize("args,usage", BAD_COMMAND_LINES.values(), ids=BAD_COMMAND_LINES)
def test_a_bad_command_line_exits_two_on_stderr_before_the_load(runner, monkeypatch, args, usage):
    loads = []
    monkeypatch.setattr("taskweave.cli.load_scenario", loads.append)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == "" and "error: " in result.output
    assert result.output.startswith(usage)
    assert loads == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full, a device every write to fails")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_stdout_that_cannot_be_written_exits_one(command, unbuffered):
    # buffered, the text is only written at the flush: one that fails at exit would exit 120
    import subprocess
    import sys

    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        args = [sys.executable, "-m", "taskweave.cli", command, FILING]
        proc = subprocess.run(args, env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "cannot write: [Errno 28] No space left on device\n"
