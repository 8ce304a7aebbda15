"""Metamorphic relations of a run: two related inputs, and how their run logs must relate.

Each relation checks documented semantics without an oracle for either run.
"""

from __future__ import annotations

import copy
import functools
import json
import random

import pytest

from taskweave import RunConfig, orchestrate
from taskweave.scenario import scenario_from_dict

from conftest import CANONICAL_SCENARIOS
from test_golden_digests import VARIANTS, load_perfbench_run


ORDER_SHAPES = ("deep_dag", "fanout_revise")


@functools.cache
def order_documents() -> dict[str, dict]:
    """The bundled scenario files and two bench shapes at 120 tasks, as parsed documents."""
    bench = load_perfbench_run()
    docs = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in CANONICAL_SCENARIOS}
    return docs | {name: bench.synth.generate(bench.SHAPES[name].scaled(120), 1) for name in ORDER_SHAPES}


@pytest.mark.parametrize("variant", ["full", "no_parallel", "static", "no_feedback"])
@pytest.mark.parametrize("name", [*(path.stem for path in CANONICAL_SCENARIOS), *ORDER_SHAPES])
def test_document_order_changes_no_log_byte(name, variant):
    # Tasks, agents and behavior rows in any order run to the same log. Contradiction
    # pairs keep their order: review reads them in it.
    doc = order_documents()[name]
    scenario = scenario_from_dict(doc)
    config = RunConfig().with_overrides(scenario.defaults).with_overrides(VARIANTS[variant][1])
    expected = orchestrate(scenario, config).log.to_jsonl()
    for seed in range(3):
        rng, shuffled = random.Random(seed), copy.deepcopy(doc)
        rng.shuffle(shuffled["tasks"])
        rng.shuffle(shuffled["agents"])
        for agent in shuffled["agents"]:
            rng.shuffle(agent.get("behavior", []))
        assert orchestrate(scenario_from_dict(shuffled), config).log.to_jsonl() == expected, seed
