"""Spans around the public functions of each taskweave module, recorded from outside.

Inside `with tracer:` each function named in TARGETS is replaced with a
wrapper that records a span (name, start, end, parent span, request id); on
exit the originals are put back. Nothing in the package itself is edited.
Spans stay in memory until `write()`. Layers are named after the modules.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import taskweave.cli
import taskweave.orchestrator
import taskweave.scenario
from taskweave.agents import ScriptedAgent
from taskweave.evaluator import Evaluator
from taskweave.feedback import FeedbackBus
from taskweave.graph import TaskGraph
from taskweave.memory import MemoryView, SharedMemory
from taskweave.orchestrator import Orchestrator
from taskweave.routing import Router
from taskweave.runlog import RunLog
from taskweave.scenario import Scenario

# (span name, owner, attribute). A module-level function is patched in the
# module that calls it, because that is where the name is looked up.
TARGETS = (
    ("scenario.load", taskweave.cli, "load_scenario"),
    ("scenario.from_dict", taskweave.scenario, "scenario_from_dict"),
    ("graph.build", taskweave.scenario, "build_graph"),
    ("graph.ready_tasks", TaskGraph, "ready_tasks"),
    ("graph.mark_committed", TaskGraph, "mark_committed"),
    ("graph.mark_needs_revision", TaskGraph, "mark_needs_revision"),
    ("graph.topological_order", TaskGraph, "topological_order"),
    ("memory.view", SharedMemory, "view"),
    ("memory.committed_facts", MemoryView, "committed_facts"),
    ("memory.store", SharedMemory, "store"),
    ("memory.commit", SharedMemory, "commit"),
    ("evaluator.review", Evaluator, "review"),
    ("evaluator.select_best", Evaluator, "select_best"),
    ("routing.route", Router, "route"),
    ("routing.reassign", Router, "reassign"),
    ("agents.execute", ScriptedAgent, "execute"),
    ("agents.build", Scenario, "build_agents"),
    ("feedback.publish", FeedbackBus, "publish"),
    ("feedback.drain", FeedbackBus, "drain"),
    ("runlog.append", RunLog, "append"),
    ("runlog.to_jsonl", RunLog, "to_jsonl"),
    ("metrics.build_report", taskweave.orchestrator, "build_report"),
    ("orchestrator.orchestrate", taskweave.cli, "orchestrate"),
    ("orchestrator.init", Orchestrator, "__init__"),
    ("orchestrator.run", Orchestrator, "run"),
)

# Called hundreds of thousands of times per run: counted, not spanned.
COUNTED = (("evaluator.score_entry", Evaluator, "score_entry"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent index, request)
        self.counts: dict[str, int] = defaultdict(int)
        self.route_modes: dict[str, int] = defaultdict(int)
        self.request = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for name, owner, attr in TARGETS:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.route_modes.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        observe_route = name == "routing.route"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if observe_route:
                self.route_modes[result.mode.value] += 1
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_times(self) -> dict[str, float]:
        """Seconds inside each span name (inclusive), plus `<name>.calls`, `<name>.self`."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start
            out[name + ".calls"] += 1
            out[name + ".self"] += end - start - child_time[index]
        return out

    def wave_intervals_ms(self) -> list[float]:
        """Gaps between successive `TaskGraph.ready_tasks` calls within one run."""
        last: dict[int, float] = {}
        out = []
        for name, start, _, parent, _ in self.spans:
            if name != "graph.ready_tasks":
                continue
            if parent in last:
                out.append((start - last[parent]) * 1000.0)
            last[parent] = start
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span; times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent if parent >= 0 else None,
                            "request": request,
                        }
                    )
                    + "\n"
                )
