"""The cyclic collector is paused over loads and runs, and the caller's setting survives.

The pause is only safe because loading and running make no cyclic garbage:
reference counting frees everything they drop. If that stopped holding,
garbage would pile up for the length of every pause.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from taskweave import (
    OrchestrationError,
    Orchestrator,
    RunConfig,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    orchestrate,
)
from taskweave import runlog, scoring
from taskweave._collector import collector_paused
from taskweave.cli import _PARSER, main, run

from conftest import CANONICAL_SCENARIOS, CliRunner, make_agent, make_row, make_scenario, make_task
from test_golden_digests import load_perfbench_run


@pytest.fixture
def no_collector():
    """The collector off for the test and the caller's setting back after it."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def generated_deep_dag(tmp_path, tasks):
    """A `deep_dag` scenario file of about `tasks` tasks, from the benchmark's generator."""
    bench = load_perfbench_run()
    path = tmp_path / "deep_dag.json"
    path.write_text(bench.synth.dumps(bench.synth.generate(bench.SHAPES["deep_dag"].scaled(tasks), 1)), encoding="utf-8")
    return path


def test_load_and_every_variant_run_leave_no_cyclic_garbage(no_collector, tmp_path):
    bench = load_perfbench_run()
    generated = generated_deep_dag(tmp_path, 40)
    gc.collect()  # what importing the bench and generating the shape left behind
    for path in (*CANONICAL_SCENARIOS, generated):
        scenario = load_scenario(path)
        for variant in bench.VARIANTS:
            orchestrate(scenario, bench.make_item(path, scenario, variant).config)
    orch = Orchestrator(scenario, RunConfig())
    orch.run()
    del scenario, orch
    assert gc.collect() == 0


def test_the_run_command_leaves_no_cyclic_garbage(no_collector, tmp_path, capsys, monkeypatch):
    """What the run command makes, its report and its log written in blocks included, is freed
    by reference counting as it returns."""
    monkeypatch.setattr(runlog, "_BLOCK", 16)  # logs of several blocks
    paths = [*CANONICAL_SCENARIOS, generated_deep_dag(tmp_path, 40)]
    defaults = vars(_PARSER.parse_args(["run", "scenario.json"]))
    assert defaults.pop("command") is run
    gc.collect()  # what importing the bench and generating the shape left behind
    for path in paths:
        for flags in ({}, {"static": True}, {"no_parallel": True}):
            outputs = {"report_path": str(tmp_path / "report.json"), "log_path": str(tmp_path / "run.jsonl")}
            run(**{**defaults, **flags, **outputs, "scenario_path": str(path)})
    assert capsys.readouterr().out
    assert gc.collect() == 0


def test_a_cli_run_collects_nothing_while_its_scenario_is_alive(tmp_path, monkeypatch):
    """The run command pauses the collector once, so the load and run nested in it skip their
    exit collections. The one collection it may start comes as it returns, once reference
    counting has freed the scenario and the run: it walks only what outlives the command."""
    path = generated_deep_dag(tmp_path, 200)
    loading, scenario = False, None  # scenario: a weak reference to the loaded scenario
    alive_at_start = []  # per collection started: whether the scenario was being loaded or alive

    def load(scenario_path):
        nonlocal loading, scenario
        loading = True
        loaded = load_scenario(scenario_path)
        loading, scenario = False, weakref.ref(loaded)
        return loaded

    def callback(phase, info):
        if phase == "start":
            alive_at_start.append(loading or scenario is not None and scenario() is not None)

    monkeypatch.setattr("taskweave.cli.load_scenario", load)
    runner, enabled = CliRunner(), gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(callback)
    try:
        result = runner.invoke(main, ["run", str(path), "--log", str(tmp_path / "run.jsonl")])
    finally:
        gc.callbacks.remove(callback)
        if not enabled:
            gc.disable()
    assert result.exit_code == 0, result.output
    assert scenario is not None and scenario() is None
    assert alive_at_start in ([], [False])


class Probe:
    """A scorer that notes whether the collector runs when it is built and when it scores,
    and fails on task `t2` when asked."""

    built: list[bool] = []
    seen: list[bool] = []
    fail = False

    def __init__(self):
        Probe.built.append(gc.isenabled())

    def components(self, output, task):
        Probe.seen.append(gc.isenabled())
        if Probe.fail and task.id == "t2":
            raise OrchestrationError("probe failure mid-run")
        return (0.5, 0.5, 0.5)


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def setting(request, monkeypatch):
    """The caller's collector setting for the test, and the probe scorer registered."""
    monkeypatch.setitem(scoring._SCORERS, "probe", Probe)
    monkeypatch.setattr(Probe, "built", [])
    monkeypatch.setattr(Probe, "seen", [])
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


def chain_scenario():
    """Two tasks in a row, so the run scores and commits `t1` before it reaches `t2`."""
    return make_scenario(
        tasks=[make_task("t1", reference={"f1"}), make_task("t2", reference={"f2"}, deps={"t1"})],
        agents=[make_agent("a1", rows={("t1", 0): make_row({"f1"}), ("t2", 0): make_row({"f2"})})],
    )


def test_load_restores_the_setting(setting, tmp_path):
    assert load_scenario(CANONICAL_SCENARIOS[0]).tasks
    assert gc.isenabled() is setting
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        load_scenario(bad_json)
    assert gc.isenabled() is setting
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{}", encoding="utf-8")
    with pytest.raises(ScenarioValidationError):
        load_scenario(invalid)
    assert gc.isenabled() is setting


@pytest.mark.parametrize(
    "run,paused_construction",
    [
        (orchestrate, True),
        (lambda scenario, config: Orchestrator(scenario, config).run(), False),
    ],
    ids=["orchestrate", "Orchestrator.run"],
)
def test_run_is_paused_and_restores_the_setting(setting, monkeypatch, run, paused_construction):
    config = RunConfig(scorer="probe", no_feedback=True)
    assert run(chain_scenario(), config).document.sections[-1].task_id == "t2"
    assert gc.isenabled() is setting
    assert Probe.built == [setting and not paused_construction]
    assert Probe.seen == [False, False]

    monkeypatch.setattr(Probe, "fail", True)
    with pytest.raises(OrchestrationError, match="probe failure mid-run"):
        run(chain_scenario(), config)
    assert gc.isenabled() is setting
    assert Probe.seen == [False, False, False, False]


def test_a_nested_pause_leaves_the_outer_state(setting):
    inside = []

    @collector_paused
    def inner():
        inside.append(gc.isenabled())

    @collector_paused
    def outer():
        inner()
        inside.append(gc.isenabled())

    outer()
    assert inside == [False, False]
    assert gc.isenabled() is setting


@pytest.mark.parametrize("young", [0, 1], ids=["automatic_collection_off", "young_threshold_1"])
def test_a_call_runs_only_the_young_collection_the_collector_would(setting, young):
    """A call that turns the collector back on collects the young generation only when it is
    over a nonzero threshold, as the caller's next allocation would."""
    generations = []

    def callback(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    saved = gc.get_threshold()
    gc.set_threshold(young, 10**6, 10**6)  # no older collection can start
    gc.callbacks.append(callback)
    try:
        load_scenario(CANONICAL_SCENARIOS[0])
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*saved)
    assert set(generations) <= {0}
    assert bool(generations) is (setting and young > 0)
