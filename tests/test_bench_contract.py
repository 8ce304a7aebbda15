"""The benchmark's hooks into the package resolve.

`perfbench/tracer.py` imports the package and patches the names it lists in
TARGETS and COUNTED from outside, and `perfbench/run.py` imports it even for
untraced runs. A refactor that deletes or renames one of those names fails
here instead of breaking the benchmark at import.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from collections import Counter

from conftest import REPO_ROOT
from test_golden_digests import load_perfbench_run


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves():
    tracer = load_tracer()
    hooks = tracer.TARGETS + tracer.COUNTED
    missing = [name for name, owner, attr in hooks if not callable(getattr(owner, attr, None))]
    assert missing == []


def traced_cli_run(bench, path, log_path):
    """One CLI run of `path` under the benchmark's tracer: (calls per span name, counts, event kinds,
    fan-out groups, each a (task, attempt) with `parallel` dispatches)."""
    tracer = bench.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        bench.cli_main.main(args=["run", str(path), "--log", str(log_path)], standalone_mode=False)
    calls = Counter({name[: -len(".calls")]: int(n) for name, n in tracer.layer_times().items() if name.endswith(".calls")})
    events = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
    kinds = Counter(event["kind"] for event in events)
    fanouts = {
        (event["payload"]["task_id"], event["payload"]["attempt"])
        for event in events
        if event["kind"] == "dispatch" and event["payload"]["mode"] == "parallel"
    }
    return calls, dict(tracer.counts), kinds, len(fanouts)


def test_traced_counts_match_the_log_and_repeat_exactly(tmp_path):
    """The per-layer counts are calls of the traced names; a lean path that skips one reads 0."""
    bench = load_perfbench_run()
    path = tmp_path / "deep_dag.json"
    path.write_text(bench.synth.dumps(bench.synth.generate(bench.SHAPES["deep_dag"].scaled(60), 7)), encoding="utf-8")
    calls, counts, kinds, fanouts = traced_cli_run(bench, path, tmp_path / "run.jsonl")

    assert calls["memory.store"] == kinds["store"] > 0
    assert calls["agents.execute"] == kinds["dispatch"] > kinds["commit"] / 2
    assert calls["memory.commit"] == calls["graph.mark_committed"] == kinds["commit"]
    # select_best settles fan-outs only: a single dispatch sent through it would inflate its time
    assert calls["evaluator.select_best"] == fanouts > 0
    assert calls["runlog.append"] == sum(kinds.values())
    # one view and one review per wave; the last ready_tasks call finds nothing to run
    assert calls["memory.view"] == calls["evaluator.review"] == calls["graph.ready_tasks"] - 1 > 0
    assert counts["evaluator.score_entry"] >= kinds["commit"]
    assert calls["routing.route"] > 0
    assert traced_cli_run(bench, path, tmp_path / "again.jsonl") == (calls, counts, kinds, fanouts)
