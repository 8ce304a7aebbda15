"""Shared builders for compact scenario construction in tests."""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from taskweave import AgentSpec, BehaviorRow, RunConfig, Scenario, TaskSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

CANONICAL_SCENARIOS = [
    SCENARIO_DIR / "filing_risk_deep_dive.json",
    SCENARIO_DIR / "performance_review.json",
    SCENARIO_DIR / "compliance_audit.json",
]


@pytest.fixture(autouse=True, scope="session")
def child_interpreters_import_src():
    """Interpreters the tests start import the package from `src/`, as pytest itself does."""
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@dataclass
class Result:
    exit_code: int
    output: str  # stdout, then stderr: a CLI call writes to one of them
    stdout: str
    exception: BaseException | None  # what ended a call that did not exit 0


class CliRunner:
    """`main(args)` run in this process, with its output captured and its exit code kept."""

    def invoke(self, main, args) -> Result:
        stdout, stderr = io.StringIO(), io.StringIO()
        code, exception = 0, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(args)
            except SystemExit as exc:
                code, exception = exc.code or 0, exc
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, stdout.getvalue() + stderr.getvalue(), stdout.getvalue(), exception if code else None)


def make_task(
    task_id: str,
    markers=(),
    ambiguity: float = 0.0,
    reference=(),
    deps=(),
    effort: int = 0,
    description: str = "",
) -> TaskSpec:
    return TaskSpec(
        id=task_id,
        description=description or f"task {task_id}",
        domain_markers=frozenset(markers),
        ambiguity=ambiguity,
        expected_effort=effort,
        reference_facts=frozenset(reference),
        depends_on=frozenset(deps),
    )


def make_row(
    facts=(),
    confidence: float = 0.8,
    latency: float = 1.0,
    content: str = "output",
    annotated=None,
    contingent=(),
) -> BehaviorRow:
    return BehaviorRow(
        content=content,
        emitted_facts=frozenset(facts),
        declared_confidence=confidence,
        latency=latency,
        annotated_scores=annotated,
        contingent_facts=tuple(contingent),
    )


def make_agent(
    agent_id: str,
    caps=(),
    capacity: int = 3,
    perf=None,
    rows=None,
) -> AgentSpec:
    return AgentSpec(
        id=agent_id,
        capabilities=frozenset(caps),
        capacity=capacity,
        historical_performance=dict(perf or {}),
        behavior=dict(rows or {}),
    )


def make_scenario(tasks, agents, **kwargs) -> Scenario:
    return Scenario(tasks=tuple(tasks), agents=tuple(agents), **kwargs)


def random_adversarial_scenario(rng: random.Random):
    fact_pool = [f"fact{i}" for i in range(8)]
    markers = ["m1", "m2"]
    budget = rng.randint(1, 3)
    k = rng.randint(2, 3)

    tasks = []
    for i in range(rng.randint(1, 6)):
        deps = [f"t{j}" for j in range(i) if rng.random() < 0.35]
        tasks.append(
            make_task(
                f"t{i}",
                markers=rng.sample(markers, rng.randint(0, 2)),
                ambiguity=rng.random(),
                reference=rng.sample(fact_pool, rng.randint(1, 4)),
                deps=deps,
            )
        )

    agents = []
    for a in range(rng.randint(1, 4)):
        rows = {}
        for task in tasks:
            for attempt in range(budget + 1):
                rows[(task.id, attempt)] = make_row(
                    facts=rng.sample(fact_pool, rng.randint(0, 3)),
                    confidence=rng.random(),
                    latency=float(rng.randint(1, 5)),
                )
        agents.append(
            make_agent(
                f"a{a}",
                caps=set(markers),
                capacity=rng.randint(1, 3),
                perf={m: rng.random() for m in markers},
                rows=rows,
            )
        )

    pairs = []
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(fact_pool, 2)
        pairs.append((a, b))

    scenario = make_scenario(tasks, agents, contradiction_pairs=tuple(pairs))
    config = RunConfig(
        seed=rng.randint(0, 10**6),
        theta=rng.uniform(0.3, 0.9),
        k=k,
        revision_budget=budget,
    )
    return scenario, config


@pytest.fixture
def canonical_paths():
    for path in CANONICAL_SCENARIOS:
        assert path.exists(), f"missing canonical scenario {path}"
    return CANONICAL_SCENARIOS
