"""Seeded synthetic scenario generator for the benchmark.

A generalisation of the adversarial scenarios in the acceptance tests: a
layered DAG of `tasks` tasks, `width` per layer, each task after the first
layer depending on up to `deps` tasks of the layer before it. Every agent has
a behavior row for every (task, attempt <= revision_budget), because the
router may hand any task to any agent with spare capacity and a missing row
fails the run. The same shape and seed always give the same bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass

MARKERS = ("m0", "m1", "m2", "m3")
REFERENCE_FACTS = 3
FAN_OUT = 3


@dataclass(frozen=True)
class Shape:
    tasks: int
    width: int
    deps: int = 2
    agents: int = 2
    revision_budget: int = 1
    ambiguous: float = 0.1  # share of tasks whose ambiguity is above theta
    low_fact: float = 0.05  # share of first attempts whose factuality is below threshold
    contingent: float = 0.0  # share of rows with a fact that fires on a dependency's fact
    contradictions: int = 0  # fact pairs planted in the first attempts of two tasks

    def scaled(self, tasks: int) -> Shape:
        return dataclasses.replace(self, tasks=tasks)


def generate(shape: Shape, seed: int) -> dict:
    """Scenario document (the JSON form `load_scenario` reads) for one shape and seed."""
    rng = random.Random(seed)
    ids = [f"t{i}" for i in range(shape.tasks)]
    layers = [ids[i : i + shape.width] for i in range(0, shape.tasks, shape.width)]
    depends_on: dict[str, list[str]] = {tid: [] for tid in layers[0]}
    for prev, layer in zip(layers, layers[1:]):
        for tid in layer:
            depends_on[tid] = sorted(rng.sample(prev, min(shape.deps, len(prev))))

    refs = {tid: [f"{tid}.r{j}" for j in range(REFERENCE_FACTS)] for tid in ids}
    tasks = []
    for tid in ids:
        ambiguous = rng.random() < shape.ambiguous
        tasks.append(
            {
                "id": tid,
                "description": f"synthetic task {tid}",
                "domain_markers": sorted(rng.sample(MARKERS, rng.randint(1, 2))),
                "ambiguity": round(rng.uniform(0.75, 0.95) if ambiguous else rng.uniform(0.0, 0.5), 3),
                "expected_effort": rng.randint(10, 200),
                "reference_facts": refs[tid],
                "depends_on": depends_on[tid],
            }
        )

    # Each planted fact sits in every first attempt of its task; the evaluator
    # asks the later-committed holder to revise, and revisions drop the fact.
    planted: dict[str, list[str]] = {tid: [] for tid in ids}
    for i in range(shape.contradictions):
        a, b = rng.sample(ids, 2)
        planted[a].append(f"c{i}.a")
        planted[b].append(f"c{i}.b")

    # Enough capacity for a layer without fan-outs, plus one slot per agent.
    capacity = math.ceil(shape.width / shape.agents) + 1
    agents = []
    for a in range(shape.agents):
        rows = []
        for tid in ids:
            for attempt in range(shape.revision_budget + 1):
                rows.append(_row(rng, shape, tid, attempt, refs, depends_on[tid], planted[tid]))
        agents.append(
            {
                "id": f"a{a}",
                "capabilities": list(MARKERS),
                "capacity": capacity,
                "historical_performance": {m: round(rng.uniform(0.3, 0.9), 3) for m in MARKERS},
                "behavior": rows,
            }
        )

    return {
        "schema_version": 1,
        "name": f"synthetic-{shape.tasks}x{shape.width}-seed{seed}",
        "description": "Generated by perfbench/synth.py",
        "tasks": tasks,
        "agents": agents,
        "contradiction_pairs": [[f"c{i}.a", f"c{i}.b"] for i in range(shape.contradictions)],
        "gold_answers": {},
        "static_assignments": {tid: f"a{rng.randrange(shape.agents)}" for tid in ids},
        "defaults": {
            "seed": rng.randrange(10**6),
            "k": FAN_OUT,
            "revision_budget": shape.revision_budget,
        },
    }


def _row(rng, shape, tid, attempt, refs, deps, planted) -> dict:
    own = refs[tid]
    if attempt == 0 and rng.random() < shape.low_fact:
        facts = [own[0], f"{tid}.x0", f"{tid}.x1"]  # factuality 1/3
    else:
        facts = own[: rng.randint(2, REFERENCE_FACTS)]
    if attempt == 0:
        facts = facts + planted
    row = {
        "task_id": tid,
        "attempt": attempt,
        "content": f"{tid} attempt {attempt}: " + ", ".join(facts),
        "emitted_facts": sorted(facts),
        "declared_confidence": round(rng.uniform(0.75, 0.95), 3),
        "latency": float(rng.randint(1, 5)),
    }
    if deps and rng.random() < shape.contingent:
        trigger = refs[rng.choice(deps)][0]
        row["contingent_facts"] = [{"if_visible": trigger, "emit": own[-1]}]
    return row


def dumps(doc: dict) -> str:
    """Serialise in the indented form `dump_scenario` writes."""
    return json.dumps(doc, indent=2) + "\n"
