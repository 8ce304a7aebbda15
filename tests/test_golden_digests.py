"""Golden run-log digests: the sha256 of the JSON-lines log of every bundled
scenario under every variant and two seeds, run through the CLI, plus one
sha256 over the logs of seeded adversarial scenarios, which reach what the
bundled ones never do: spent revision budgets, pins that fall back to routing,
and one entry holding both facts of a contradiction pair, plus one sha256 over
the logs of the benchmark's generated shapes under every variant, which carry
the static variant and a DAG hundreds of waves deep through the run loop.

A change that alters a single log byte fails here. When a change alters the
log on purpose, regenerate the table with
`PYTHONPATH=src python tests/test_golden_digests.py` and list the new
digests in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import random
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from taskweave import orchestrate
from taskweave.cli import main
from taskweave.scenario import load_scenario

from conftest import CANONICAL_SCENARIOS, REPO_ROOT, random_adversarial_scenario

VARIANTS = {
    "full": (),
    "static": ("--static",),
    "no_parallel": ("--no-parallel",),
    "no_feedback": ("--no-feedback",),
    "no_memory": ("--no-memory",),
}
SEEDS = (0, 7)

GOLDEN = {
    "filing_risk_deep_dive/full/seed0": "cbf05461e3be2699f57959ce2abae14deb279f7232e9d57eebce35d93af90321",
    "filing_risk_deep_dive/full/seed7": "c5e5013e61676b5a39f641f069d488305ef873ccc7794ebe4776ec4d413c40d2",
    "filing_risk_deep_dive/static/seed0": "2adf1df42bb7ee70db6715398056beebfa4003e1d1af445eb1134c4bcc778669",
    "filing_risk_deep_dive/static/seed7": "44c5bb0dd056d98a4a78c6c8bae5424b1e45829fc0f0240da6113f5568b6a82a",
    "filing_risk_deep_dive/no_parallel/seed0": "a9891285833315dd597cd51bac64beb7234bf2dc19a946b4f6203cd3a7ad2117",
    "filing_risk_deep_dive/no_parallel/seed7": "a9891285833315dd597cd51bac64beb7234bf2dc19a946b4f6203cd3a7ad2117",
    "filing_risk_deep_dive/no_feedback/seed0": "52401ce9b7fcc264f1171259ca1baf8748862dbfd4a1f7ba305330d417b677de",
    "filing_risk_deep_dive/no_feedback/seed7": "71d3781360249ecd03e1179dae8508849703abf44ed46824c213c53e8219f8fd",
    "filing_risk_deep_dive/no_memory/seed0": "c457e683f5fd369fdc02b3fa59ee87989ea844dcd5be6bbcd3d3c8c38d4ddb13",
    "filing_risk_deep_dive/no_memory/seed7": "8c543c853e543fad57af2be1d9f9806106211e637782741c9649cc0b4b531c1d",
    "performance_review/full/seed0": "2cebf2c373d635804832e169e51609021ae1333cf2d6c503e80e6e909047035c",
    "performance_review/full/seed7": "2cebf2c373d635804832e169e51609021ae1333cf2d6c503e80e6e909047035c",
    "performance_review/static/seed0": "89870374eb2c1c8e808e0eabd6796afd8bad1bd02cfa911965599722b13903ad",
    "performance_review/static/seed7": "89870374eb2c1c8e808e0eabd6796afd8bad1bd02cfa911965599722b13903ad",
    "performance_review/no_parallel/seed0": "ae0bab1a6b97c7d20283d7ea001c3b81bc30c604a3305e2fa048c4d8bbba7be3",
    "performance_review/no_parallel/seed7": "ae0bab1a6b97c7d20283d7ea001c3b81bc30c604a3305e2fa048c4d8bbba7be3",
    "performance_review/no_feedback/seed0": "2b93dee1c936a583ab6daad8f5d6ce513016a61c339ca962ce8a76f512fa551d",
    "performance_review/no_feedback/seed7": "2b93dee1c936a583ab6daad8f5d6ce513016a61c339ca962ce8a76f512fa551d",
    "performance_review/no_memory/seed0": "5961d55144d13d8c6845d41d48f6ea8fc8057c5b2437a6718f41d6d082f17292",
    "performance_review/no_memory/seed7": "5961d55144d13d8c6845d41d48f6ea8fc8057c5b2437a6718f41d6d082f17292",
    "compliance_audit/full/seed0": "ac93f9811347ba40280de61876e8c8a22312e2c5ea6c1dc49c7a79e9b4a14db3",
    "compliance_audit/full/seed7": "869d38e3c4ab03c079c69017aed2c4bfc1925565c4f645b6f4c9182699ae7391",
    "compliance_audit/static/seed0": "77495bcd113f090eeec49be5ae783a58844ee121258c9abbf469baf46c930dff",
    "compliance_audit/static/seed7": "454fd4f7eeb81dae05bd8eb208ad1845fbe7494d5032fefa2c46cbd368ff3aac",
    "compliance_audit/no_parallel/seed0": "875215057562037d6e025abcac47f9fe8b3f3adec1a353d1040bbff83f0ac9bc",
    "compliance_audit/no_parallel/seed7": "875215057562037d6e025abcac47f9fe8b3f3adec1a353d1040bbff83f0ac9bc",
    "compliance_audit/no_feedback/seed0": "f0b2f85e7a6438be82f9ec1e6d4b02366dc5fed9ea5d3431312b231f9afdf5ed",
    "compliance_audit/no_feedback/seed7": "f45ba9789cc2267137cdd7307ab1c134f0efcf061323b194a8d8e47e5576a3f5",
    "compliance_audit/no_memory/seed0": "f92ceda7c19186edaa632de1bd90de14fbe368fe5d3b78368f17611aaa8529ee",
    "compliance_audit/no_memory/seed7": "edf3b47c280270a22eb7ff4c62ddbd1b4d773dfef959687981fd5a0ff16c934b",
}

SYNTHETIC_SEED = 777
SYNTHETIC_SCENARIOS = 300
SYNTHETIC_VARIANTS = {
    "full": {},
    "no_parallel": {"no_parallel": True},
    "no_memory": {"no_memory_sharing": True},
    "no_feedback": {"no_feedback": True},
}
SYNTHETIC_GOLDEN = "051dd77a995b36cc959af161ab0d345e10410eff2a44e7eb4527a9346f34780c"

BENCH_SEED = 1
BENCH_GOLDEN = "b60050e6269358b7ed967cea531feed721f216fa5a3a7d98c1c2c5d0107acdad"


def log_digest(scenario: Path, variant: str, seed: int, log_path: Path) -> str:
    args = ["run", str(scenario), *VARIANTS[variant], "--seed", str(seed), "--log", str(log_path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return hashlib.sha256(log_path.read_bytes()).hexdigest()


def cases() -> list[tuple[Path, str, int]]:
    return [
        (path, variant, seed)
        for path in CANONICAL_SCENARIOS
        for variant in VARIANTS
        for seed in SEEDS
    ]


def case_id(path: Path, variant: str, seed: int) -> str:
    return f"{path.stem}/{variant}/seed{seed}"


@pytest.mark.parametrize("path,variant,seed", cases(), ids=[case_id(*c) for c in cases()])
def test_run_log_digest_is_golden(path, variant, seed, tmp_path):
    digest = log_digest(path, variant, seed, tmp_path / "run.jsonl")
    assert digest == GOLDEN[case_id(path, variant, seed)]


def synthetic_digest() -> str:
    """sha256 over the concatenated logs of every synthetic scenario and variant."""
    rng = random.Random(SYNTHETIC_SEED)
    digest = hashlib.sha256()
    for _ in range(SYNTHETIC_SCENARIOS):
        scenario, config = random_adversarial_scenario(rng)
        for flags in SYNTHETIC_VARIANTS.values():
            result = orchestrate(scenario, dataclasses.replace(config, **flags))
            digest.update(result.log.to_jsonl().encode("utf-8"))
    return digest.hexdigest()


def test_synthetic_run_log_digest_is_golden():
    assert synthetic_digest() == SYNTHETIC_GOLDEN


def load_perfbench_run():
    """`perfbench/run.py` as a module; it imports its sibling modules by bare name."""
    perfbench = str(REPO_ROOT / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", REPO_ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perfbench)
    return module


def bench_digest(work: Path) -> str:
    """sha256 over the logs of every benchmark shape (generated at BENCH_SEED) and variant,
    each configured as the benchmark configures it."""
    bench = load_perfbench_run()
    digest = hashlib.sha256()
    for name, shape in bench.SHAPES.items():
        path = work / f"{name}.json"
        path.write_text(bench.synth.dumps(bench.synth.generate(shape, BENCH_SEED)), encoding="utf-8")
        scenario = load_scenario(path)
        for variant in bench.VARIANTS:
            config = bench.make_item(path, scenario, variant).config
            digest.update(orchestrate(scenario, config).log.to_jsonl().encode("utf-8"))
    return digest.hexdigest()


def test_bench_shape_run_log_digest_is_golden(tmp_path):
    assert bench_digest(tmp_path) == BENCH_GOLDEN


if __name__ == "__main__":
    # Print the table for GOLDEN and the values of SYNTHETIC_GOLDEN and BENCH_GOLDEN
    # from the current code.
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases():
            digest = log_digest(*case, Path(tmp) / "run.jsonl")
            sys.stdout.write(f'    "{case_id(*case)}": "{digest}",\n')
        sys.stdout.write(f'SYNTHETIC_GOLDEN = "{synthetic_digest()}"\n')
        sys.stdout.write(f'BENCH_GOLDEN = "{bench_digest(Path(tmp))}"\n')
