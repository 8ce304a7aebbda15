"""taskweave benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload deep_dag --seed 3 --seconds 50 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory. Every timed operation is checked (see checks.py) and counted. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. See perfbench/README.md for definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "taskweave" / "__init__.py").is_file():
    sys.exit(f"perfbench: no taskweave package under {SRC}; run from a taskweave checkout")
sys.path.insert(0, str(SRC))

import synth  # noqa: E402
from checks import Tally, check_run  # noqa: E402
from reference import Scaler  # noqa: E402
from taskweave.cli import main as cli_main  # noqa: E402
from taskweave.orchestrator import RunConfig, orchestrate  # noqa: E402
from taskweave.scenario import Scenario, load_scenario  # noqa: E402
from tracer import Tracer  # noqa: E402

BUNDLED = ("filing_risk_deep_dive", "performance_review", "compliance_audit")

# Each variant as the CLI spells it and as the library spells it; the log
# digest check fails if the two spellings ever diverge.
VARIANTS = {
    "full": ((), {}),
    "static": (("--static",), {"static": True}),
    "no-parallel": (("--no-parallel",), {"no_parallel": True}),
    "no-feedback": (("--no-feedback",), {"no_feedback": True}),
    "no-memory": (("--no-memory",), {"no_memory_sharing": True}),
}

# Sized so one CLI call takes under a second on a 2-vCPU Xeon VM, which gives
# every timing a median over many samples within one run.
SHAPES = {
    # Many waves over a long graph: per-wave scans dominate the run.
    "deep_dag": synth.Shape(
        tasks=500, width=2, deps=2, agents=2, revision_budget=1,
        ambiguous=0.1, low_fact=0.03, contingent=0.3, contradictions=2,
    ),
    # 32 behavior rows per task: ingest dominates; the run writes memory.
    # Runnable, but left out of BENCHMARK.json to fit longer runs (README).
    "fanout_revise": synth.Shape(
        tasks=150, width=15, deps=2, agents=8, revision_budget=3,
        ambiguous=0.8, low_fact=0.5, contingent=0.0, contradictions=3,
    ),
    # The bundled scenarios cannot be scaled, so canonical_sweep measures
    # growth from a generated scenario of their size (6 tasks, 4 agents) to 60.
    "canonical_sweep": synth.Shape(
        tasks=60, width=2, deps=1, agents=4, revision_budget=3,
        ambiguous=0.3, low_fact=0.3, contingent=0.2, contradictions=1,
    ),
}
WORKLOADS = tuple(SHAPES)

SLICE_S = 0.25  # each kind of operation runs at least this long per round
SETUP_CODE = "import time, taskweave.cli; print(time.monotonic())"
# The CLI entry point, reporting the high-water RSS of its own address space at
# exit. A child's ru_maxrss would also count the parent's pages it replaced at exec.
RSS_CODE = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write(next(l for l in open('/proc/self/status') if l.startswith('VmHWM'))))\n"
    "from taskweave.cli import main\n"
    "main()\n"
)


@dataclass(frozen=True)
class Item:
    """One (scenario, variant, seed) run."""

    key: str
    path: Path
    scenario: Scenario
    cli_args: tuple[str, ...]
    config: RunConfig


def make_item(path: Path, scenario: Scenario, variant: str, seed: int | None = None) -> Item:
    flags, overrides = VARIANTS[variant]
    seed_args = ("--seed", str(seed)) if seed is not None else ()
    config = RunConfig().with_overrides(scenario.defaults).with_overrides({**overrides, "seed": seed})
    key = f"{path.stem}/{variant}" + (f"/seed{seed}" if seed is not None else "")
    return Item(key, path, scenario, (*flags, *seed_args), config)


def generated_item(shape: synth.Shape, seed: int, path: Path) -> Item:
    path.write_text(synth.dumps(synth.generate(shape, seed)), encoding="utf-8")
    return make_item(path, load_scenario(path), "full")


class Bench:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.work = work
        self.tally = Tally()
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

        shape = SHAPES[workload]
        if workload == "canonical_sweep":
            rng = random.Random(seed)
            run_seeds = [rng.randrange(10**6) for _ in range(2)]
            paths = [ROOT / "scenarios" / f"{name}.json" for name in BUNDLED]
            scenarios = [load_scenario(p) for p in paths]
            self.items = [
                make_item(p, s, variant, run_seed)
                for p, s in zip(paths, scenarios)
                for variant in VARIANTS
                for run_seed in run_seeds
            ]
            self.rss_items = [make_item(p, s, "full", run_seeds[0]) for p, s in zip(paths, scenarios)]
        else:
            self.items = [generated_item(shape, seed, work / f"{workload}.json")]
            self.rss_items = self.items
        self.files = {i.path: i.scenario for i in self.items}
        self.shape, self.seed, self.canonical = shape, seed, workload == "canonical_sweep"

    # -- operations: each returns (elapsed seconds, problems) -----------------

    def cli_run(self, item: Item, tracer: Tracer | None = None) -> tuple[float, list[str]]:
        """One in-process CLI call; the tracer, if any, records the call but not the checks."""
        report_path, log_path = self.work / "report.json", self.work / "run.jsonl"
        args = ["run", str(item.path), *item.cli_args, "--report", str(report_path), "--log", str(log_path)]
        printed = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(printed), tracer or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                cli_main.main(args=args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, [f"{item.key}: exit code {code}"]
        log_text = log_path.read_text(encoding="utf-8")
        problems = check_run(printed.getvalue(), log_text, item.scenario, item.config)
        if report_path.read_text(encoding="utf-8") != printed.getvalue():
            problems.append("report file differs from the printed report")
        return elapsed, problems + self.tally.same_digest(item.key, log_text)

    def orchestrate(self, item: Item) -> tuple[float, list[str]]:
        start = time.perf_counter()
        result = orchestrate(item.scenario, item.config)
        elapsed = time.perf_counter() - start
        log_text = result.log.to_jsonl()
        problems = check_run(result.report.to_json(), log_text, item.scenario, item.config)
        return elapsed, problems + self.tally.same_digest(item.key, log_text)

    def load(self, path: Path) -> tuple[float, list[str]]:
        start = time.perf_counter()
        scenario = load_scenario(path)
        elapsed = time.perf_counter() - start
        return elapsed, [] if scenario == self.files[path] else [f"{path.name} loaded differently"]

    def setup(self) -> tuple[float, list[str]]:
        """Fresh interpreter spawn to `import taskweave.cli` done, on the shared monotonic clock."""
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=self.env, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            return 0.0, [f"import failed: {proc.stderr.strip()[-200:]}"]
        return float(proc.stdout) - start, []

    def peak_rss_mb(self) -> float:
        """Largest peak RSS of a fresh `taskweave run` process over the workload's scenarios."""
        peaks = [0.0]
        for item in self.rss_items:

            def op(item=item):
                log_path = self.work / "rss.jsonl"
                cmd = [sys.executable, "-c", RSS_CODE, "run", str(item.path), *item.cli_args, "--log", str(log_path)]
                proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
                if proc.returncode != 0:
                    return 0.0, [f"{item.key}: exit code {proc.returncode}"]
                hwm_kb = int(proc.stderr.splitlines()[-1].split()[1])  # "VmHWM:  23000 kB"
                peaks.append(hwm_kb * 1024 / 1e6)
                log_text = log_path.read_text(encoding="utf-8")
                problems = check_run(proc.stdout, log_text, item.scenario, item.config)
                return 0.0, problems + self.tally.same_digest(item.key, log_text)

            self.tally.run("peak_rss", op)
        return max(peaks)

    def cycle(self, name: str, fn: Callable, args: list) -> Callable[[], float | None]:
        """Operation that runs fn on the next of args each call, through the tally."""
        arg = itertools.cycle(args)
        return lambda: self.tally.run(name, functools.partial(fn, next(arg)))

    # -- runs -------------------------------------------------------------------

    def run_untraced(self, seconds: float) -> dict[str, float]:
        """End-to-end metrics: medians of timings scaled to the reference job's nominal speed."""
        rss = self.peak_rss_mb()
        scaler = Scaler()
        ops = {
            "cli_run_s": self.cycle("cli_run", self.cli_run, self.items),
            "load_s": self.cycle("load", self.load, list(self.files)),
            "orchestrate_s": self.cycle("orchestrate", self.orchestrate, self.items),
            "setup_s": lambda: self.tally.run("setup", self.setup),
        }
        samples = measure({name: scaler.wrap(op) for name, op in ops.items()}, seconds)
        metrics = {"peak_rss_mb": rss}
        for name, pairs in samples.items():
            scaled, raw = [p[0] for p in pairs], [p[1] for p in pairs]
            print(describe(name, scaled, "s"))
            print(describe(f"{name} unscaled", raw, "s"))
            metrics[name] = median(scaled)
        return metrics

    def run_traced(self, seconds: float, spans_path: Path) -> dict[str, float]:
        tracer = Tracer()
        waves_ms: list[float] = []

        def traced_pass():
            tracer.reset()
            logs = []
            for item in self.items:
                tracer.request = item.key
                if self.tally.run("traced cli_run", lambda: self.cli_run(item, tracer)) is not None:
                    logs.append((self.work / "run.jsonl").read_text(encoding="utf-8"))
            waves_ms.extend(tracer.wave_intervals_ms())
            return self.layer_metrics(tracer, logs)

        def untraced(items, name):
            def op():
                times = [self.tally.run(name, lambda: self.orchestrate(item)) for item in items]
                return None if None in times else sum(times)

            return op

        small = generated_item(self.shape.scaled(self.shape.tasks // 10), self.seed, self.work / "growth-small.json")
        big = generated_item(self.shape, self.seed, self.work / "growth-big.json") if self.canonical else self.items[0]
        samples = measure(
            {
                "pass": traced_pass,
                "orchestrate": untraced(self.items, "orchestrate"),
                "growth_small": untraced([small], "growth small"),
                "growth_big": untraced([big], "growth big"),
            },
            seconds,
        )
        tracer.write(spans_path)
        passes = samples["pass"]
        # Counts repeat exactly from pass to pass; times are medians over passes.
        metrics = {k: median([p[k] for p in passes]) if isinstance(v, float) else v for k, v in passes[0].items()} if passes else {}
        traced_orchestrate = metrics.pop("orchestrator.orchestrate_s", math.nan)
        metrics["orchestrator.wave_ms_p50"] = percentile(waves_ms, 50)
        metrics["orchestrator.wave_ms_p99"] = percentile(waves_ms, 99)
        metrics["orchestrator.growth_10x"] = median(samples["growth_big"]) / median(samples["growth_small"])
        metrics["trace.overhead_s"] = traced_orchestrate - median(samples["orchestrate"])
        print(f"traced passes {len(passes)}; spans of the last pass in {spans_path}")
        print(describe("growth small orchestrate_s", samples["growth_small"], "s"))
        print(describe("growth big orchestrate_s", samples["growth_big"], "s"))
        return metrics

    def layer_metrics(self, tracer: Tracer, logs: list[str]) -> dict[str, float]:
        """Per-layer figures for one traced pass over every item."""
        t = tracer.layer_times()
        kinds: Counter[str] = Counter()
        waves = 0
        for text in logs:
            for line in text.splitlines():
                event = json.loads(line)
                kinds[event["kind"]] += 1
                if event["kind"] == "terminate":
                    waves += event["payload"]["waves"]
        parse_s = 0.0
        for item in self.items:
            text = item.path.read_text(encoding="utf-8")
            start = time.perf_counter()
            json.loads(text)
            parse_s += time.perf_counter() - start
        tasks = sum(len(i.scenario.tasks) for i in self.items)
        dispatches = kinds["dispatch"]
        route_calls = int(t["routing.route.calls"])
        stores = int(t["memory.store.calls"])
        return {
            "scenario.from_dict_s": t["scenario.from_dict"],
            "scenario.behavior_rows": sum(len(a.behavior) for i in self.items for a in i.scenario.agents),
            "scenario.bytes": sum(i.path.stat().st_size for i in self.items),
            "scenario.json_parse_s": parse_s,
            "graph.ready_tasks_s": t["graph.ready_tasks"],
            "graph.ready_tasks_calls": int(t["graph.ready_tasks.calls"]),
            "graph.mark_committed_s": t["graph.mark_committed"],
            "graph.mark_needs_revision_s": t["graph.mark_needs_revision"],
            "graph.topological_order_s": t["graph.topological_order"],
            "graph.build_s": t["graph.build"],
            "memory.view_s": t["memory.view"],
            "memory.committed_facts_s": t["memory.committed_facts"],
            "memory.committed_facts_calls": int(t["memory.committed_facts.calls"]),
            "memory.store_s": t["memory.store"],
            "memory.commit_s": t["memory.commit"],
            "memory.entries": stores,
            "memory.committed_ratio": tasks / max(1, stores),
            "evaluator.review_s": t["evaluator.review"],
            "evaluator.review_calls": int(t["evaluator.review.calls"]),
            "evaluator.score_entry_calls": tracer.counts["evaluator.score_entry"],
            "evaluator.select_best_s": t["evaluator.select_best"],
            "evaluator.feedback_per_revision": kinds["feedback"] / max(1, kinds["reassign"]),
            "routing.route_s": t["routing.route"],
            "routing.route_calls": route_calls,
            "routing.reassign_s": t["routing.reassign"],
            "routing.parallel_ratio": tracer.route_modes["parallel"] / max(1, route_calls),
            "routing.defer_count": tracer.route_modes["defer"],
            "agents.execute_s": t["agents.execute"],
            "agents.execute_calls": int(t["agents.execute.calls"]),
            "agents.build_s": t["agents.build"],
            "feedback.publish_s": t["feedback.publish"],
            "feedback.drain_s": t["feedback.drain"],
            "feedback.messages": int(t["feedback.publish.calls"]),
            "runlog.append_s": t["runlog.append"],
            "runlog.events": sum(kinds.values()),
            "runlog.to_jsonl_s": t["runlog.to_jsonl"],
            "runlog.bytes": sum(len(text.encode("utf-8")) for text in logs),
            "metrics.build_report_s": t["metrics.build_report"],
            "orchestrator.init_s": t["orchestrator.init"],
            "orchestrator.waves": waves,
            "orchestrator.dispatches": dispatches,
            "orchestrator.useful_dispatch_ratio": tasks / max(1, dispatches),
            "orchestrator.self_s": t["orchestrator.run.self"],
            "orchestrator.orchestrate_s": t["orchestrator.orchestrate"],
        }


def measure(kinds: dict[str, Callable[[], object]], seconds: float) -> dict[str, list]:
    """Interleave the kinds of operation for `seconds`; samples per kind, failures dropped.

    Each kind runs once untimed first, so caches fill and lazy set-up
    finishes. Then every round gives each kind at least SLICE_S, so cheap
    operations collect many samples and drift in machine speed hits every
    kind alike.
    """
    for op in kinds.values():
        op()
    samples: dict[str, list] = {name: [] for name in kinds}
    deadline = time.perf_counter() + seconds
    for round_ in itertools.count():
        for name, op in kinds.items():
            # the first round runs whole, so every kind is timed at least once
            if round_ and time.perf_counter() >= deadline:
                return samples
            slice_end = time.perf_counter() + SLICE_S
            while True:
                value = op()
                if value is not None:
                    samples[name].append(value)
                if time.perf_counter() >= slice_end:
                    break
        if time.perf_counter() >= deadline:
            return samples


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile with at least 10 samples beyond it, and n."""
    line = f"{name}: median {median(values):.6g} {unit}"
    for p in (99.9, 99, 95, 90, 75):
        if len(values) - math.ceil(p / 100 * len(values)) >= 10:
            line += f", p{p:g} {percentile(values, p):.6g} {unit}"
            break
    return line + f", n={len(values)}"


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_10x", "_per_revision")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="taskweave benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = bench.run_traced(args.seconds, spans_path)
        else:
            metrics = bench.run_untraced(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    print(f"failed_frac: {tally.failed / max(1, tally.attempted):.6g} ratio ({tally.failed} of {tally.attempted} operations failed)")
    for key, value in sorted(tally.digests.items()):
        print(f"log_digest {key} {value}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and tally.attempted > 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                # a metric with no successful sample reads 0; `correct` is false then
                "metrics": {
                    name: {"value": value if math.isfinite(value) else 0.0, "unit": unit(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
