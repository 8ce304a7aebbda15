"""Output checks applied to every timed operation, and the failure tally.

A run is correct when its report can be rebuilt from its own log, every task
ends committed, commits, reassigns, stores and dispatches balance, the
dispatch count stays within |tasks|*(1+R)*k, and its log bytes match every
other run of the same (scenario, variant, seed).
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from typing import Callable

from taskweave.metrics import TIMESTAMP_FIELD, build_report
from taskweave.orchestrator import RunConfig
from taskweave.runlog import RunLog
from taskweave.scenario import Scenario


def digest(log_text: str) -> str:
    return hashlib.sha256(log_text.encode("utf-8")).hexdigest()


def check_run(report_text: str, log_text: str, scenario: Scenario, config: RunConfig) -> list[str]:
    """Problems found in one run's printed report and written log; [] when correct."""
    problems = []
    try:
        log = RunLog.from_jsonl(log_text)
        rebuilt = build_report(log, scenario).to_dict(timestamp="")
        printed = json.loads(report_text)
        printed[TIMESTAMP_FIELD] = ""
        if rebuilt != printed:
            problems.append("report rebuilt from the log differs from the printed report")

        # Each task commits once, then once more after every reassign, and ends committed.
        status, commits, reassigns = {}, Counter(), Counter()
        for event in log.events:
            if event.kind in ("commit", "reassign"):
                task_id = event.payload["task_id"]
                status[task_id] = event.kind
                (commits if event.kind == "commit" else reassigns)[task_id] += 1
        uncommitted = sorted(t.id for t in scenario.tasks if status.get(t.id) != "commit")
        if uncommitted:
            problems.append(f"{len(uncommitted)} tasks not committed, first {uncommitted[0]!r}")
        unbalanced = sorted(t for t in commits if commits[t] != 1 + reassigns[t])
        if unbalanced:
            problems.append(f"commits and reassigns disagree for {len(unbalanced)} tasks, first {unbalanced[0]!r}")
        if len(log.by_kind("store")) != len(log.by_kind("dispatch")):
            problems.append("store and dispatch counts differ")

        last = log.events[-1] if log.events else None
        if last is None or last.kind != "terminate" or last.payload.get("reason") != "completed":
            problems.append("log does not end with a completed terminate event")

        dispatches = len(log.by_kind("dispatch"))
        bound = len(scenario.tasks) * (1 + config.revision_budget) * max(1, config.k)
        if dispatches > bound:
            problems.append(f"{dispatches} dispatches exceed the bound {bound}")
    except Exception as exc:  # a malformed log or report is a failed check, not a crash
        problems.append(f"replay failed: {exc!r}")
    return problems


class Tally:
    """Counts operations and failures; remembers the first log digest per run key."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def same_digest(self, key: str, log_text: str) -> list[str]:
        """[] when the log matches the first log seen for key."""
        seen = self.digests.setdefault(key, digest(log_text))
        return [] if seen == digest(log_text) else [f"{key}: log bytes differ from an earlier run"]

    def run(self, name: str, op: Callable[[], tuple[float, list[str]]]) -> float | None:
        """Run one timed operation; its elapsed seconds, or None when it failed."""
        self.attempted += 1
        try:
            elapsed, problems = op()
        except Exception as exc:  # the benchmark keeps going and counts the failure
            elapsed, problems = None, [f"raised {exc!r}"]
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {name} failed: {'; '.join(problems)}", file=sys.stderr)
            return None
        return elapsed
