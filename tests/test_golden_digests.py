"""Golden run-log digests: the sha256 of the JSON-lines log of every bundled
scenario under every variant and two seeds, run through the CLI, plus one
sha256 over the logs of seeded adversarial scenarios, which reach what the
bundled ones never do: spent revision budgets, pins that fall back to routing,
and one entry holding both facts of a contradiction pair, plus one sha256 over
the logs of the benchmark's generated shapes under every variant, which carry
the static variant and a DAG hundreds of waves deep through the run loop.
The log of each bundled run made through the library is pinned to the same
digest as its CLI log, and the report of each bundled run is pinned beside it.

A change that alters a single log or report byte fails here. When a change
alters them on purpose, regenerate the tables with
`PYTHONPATH=src python tests/test_golden_digests.py` and list the new
digests in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import sys
import tempfile
from pathlib import Path

import pytest

from taskweave import RunConfig, RunResult, orchestrate
from taskweave.cli import main
from taskweave.scenario import load_scenario

from conftest import CANONICAL_SCENARIOS, CliRunner, REPO_ROOT, random_adversarial_scenario

# variant: (CLI flags, the settings they give)
VARIANTS = {
    "full": ((), {}),
    "static": (("--static",), {"static": True}),
    "no_parallel": (("--no-parallel",), {"no_parallel": True}),
    "no_feedback": (("--no-feedback",), {"no_feedback": True}),
    "no_memory": (("--no-memory",), {"no_memory_sharing": True}),
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

# sha256 of the report of each GOLDEN case, `generated_at` empty, run as the CLI configures it.
REPORT_GOLDEN = {
    "filing_risk_deep_dive/full/seed0": "ab1726fe5445ffd68e1c8303d471b07ee4407ff97acd2849c692c389ab41ed16",
    "filing_risk_deep_dive/full/seed7": "ab1726fe5445ffd68e1c8303d471b07ee4407ff97acd2849c692c389ab41ed16",
    "filing_risk_deep_dive/static/seed0": "796965ae03da36caf47c5e8b9cf5ac5d2720c2647b3c17680570b9fcf4cf7d3c",
    "filing_risk_deep_dive/static/seed7": "796965ae03da36caf47c5e8b9cf5ac5d2720c2647b3c17680570b9fcf4cf7d3c",
    "filing_risk_deep_dive/no_parallel/seed0": "4d609b22a486efbbc369fc2f2f69f4f906fed43251fd3e03f131e3411ee788c9",
    "filing_risk_deep_dive/no_parallel/seed7": "4d609b22a486efbbc369fc2f2f69f4f906fed43251fd3e03f131e3411ee788c9",
    "filing_risk_deep_dive/no_feedback/seed0": "82e278b0b74e8659e99bfafc129222bd3852ea06a4abde20e3d4dc437a7dd54f",
    "filing_risk_deep_dive/no_feedback/seed7": "82e278b0b74e8659e99bfafc129222bd3852ea06a4abde20e3d4dc437a7dd54f",
    "filing_risk_deep_dive/no_memory/seed0": "8fcf0c221290a587bbd440af47b79aa0ee0cfb813e2a444daa550828aa9c0cbb",
    "filing_risk_deep_dive/no_memory/seed7": "8fcf0c221290a587bbd440af47b79aa0ee0cfb813e2a444daa550828aa9c0cbb",
    "performance_review/full/seed0": "7e48addf235ff89f9a8b5d26abbdb242d01b1c596c60832a647f871c8d0d9817",
    "performance_review/full/seed7": "7e48addf235ff89f9a8b5d26abbdb242d01b1c596c60832a647f871c8d0d9817",
    "performance_review/static/seed0": "34f6aa11db3a2e7c3760ae43dd63676e84e1a123f84e848224e47d4e58d981a6",
    "performance_review/static/seed7": "34f6aa11db3a2e7c3760ae43dd63676e84e1a123f84e848224e47d4e58d981a6",
    "performance_review/no_parallel/seed0": "42e96ed6fe5c26fa22f7aa6663b282d596846aef278138172e6eccdb34d25c5e",
    "performance_review/no_parallel/seed7": "42e96ed6fe5c26fa22f7aa6663b282d596846aef278138172e6eccdb34d25c5e",
    "performance_review/no_feedback/seed0": "6c32f3c34e584110e9fcdbcb7229a4709b0b29724320147b519e18c6f17a3360",
    "performance_review/no_feedback/seed7": "6c32f3c34e584110e9fcdbcb7229a4709b0b29724320147b519e18c6f17a3360",
    "performance_review/no_memory/seed0": "cd997fd473cffce22710ad983238815bd81cd2c79a05a70b5226bfb6e071df94",
    "performance_review/no_memory/seed7": "cd997fd473cffce22710ad983238815bd81cd2c79a05a70b5226bfb6e071df94",
    "compliance_audit/full/seed0": "61feb8556bcfa9ee42e52fb4a19e75dff320d8cfbc585b5845ab2e897ad5bdaf",
    "compliance_audit/full/seed7": "61feb8556bcfa9ee42e52fb4a19e75dff320d8cfbc585b5845ab2e897ad5bdaf",
    "compliance_audit/static/seed0": "1cd5921631d5d78e75dc259d9b9ea508d81962092b9a333e57ae96f558113d4d",
    "compliance_audit/static/seed7": "1cd5921631d5d78e75dc259d9b9ea508d81962092b9a333e57ae96f558113d4d",
    "compliance_audit/no_parallel/seed0": "6f93a21eb7b13e32c35ac869b5462920052e1d3ed554698c73267fc9eff89963",
    "compliance_audit/no_parallel/seed7": "6f93a21eb7b13e32c35ac869b5462920052e1d3ed554698c73267fc9eff89963",
    "compliance_audit/no_feedback/seed0": "3364d591be12450c10f27db42d6dac3faef0a51b9a3aa64d40cd7834bbb01c11",
    "compliance_audit/no_feedback/seed7": "3364d591be12450c10f27db42d6dac3faef0a51b9a3aa64d40cd7834bbb01c11",
    "compliance_audit/no_memory/seed0": "486054556f5850a8fb1a54c0bbea69b5dc7de45758fb8cd4c6368eaa27307e40",
    "compliance_audit/no_memory/seed7": "486054556f5850a8fb1a54c0bbea69b5dc7de45758fb8cd4c6368eaa27307e40",
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
    args = ["run", str(scenario), *VARIANTS[variant][0], "--seed", str(seed), "--log", str(log_path)]
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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def library_run(path: Path, variant: str, seed: int) -> RunResult:
    """One case run through `orchestrate`, configured as the CLI configures it."""
    scenario = load_scenario(path)
    settings = {**VARIANTS[variant][1], "seed": seed}
    return orchestrate(scenario, RunConfig().with_overrides(scenario.defaults).with_overrides(settings))


def report_digest(path: Path, variant: str, seed: int) -> str:
    """sha256 of the report of one case, with `generated_at` empty."""
    return sha256(library_run(path, variant, seed).report.to_json(timestamp=""))


@pytest.mark.parametrize("path,variant,seed", cases(), ids=[case_id(*c) for c in cases()])
def test_library_run_log_digest_is_golden(path, variant, seed):
    # `orchestrate` configured as the CLI configures it writes the log the CLI writes
    assert sha256(library_run(path, variant, seed).log.to_jsonl()) == GOLDEN[case_id(path, variant, seed)]


@pytest.mark.parametrize("path,variant,seed", cases(), ids=[case_id(*c) for c in cases()])
def test_report_digest_is_golden(path, variant, seed):
    # the means are exact sums, so the report is the same bytes on every Python version
    assert report_digest(path, variant, seed) == REPORT_GOLDEN[case_id(path, variant, seed)]


def synthetic_digest() -> str:
    """sha256 over the concatenated logs of every synthetic scenario and variant."""
    rng = random.Random(SYNTHETIC_SEED)
    digest = hashlib.sha256()
    for _ in range(SYNTHETIC_SCENARIOS):
        scenario, config = random_adversarial_scenario(rng)
        for flags in SYNTHETIC_VARIANTS.values():
            result = orchestrate(scenario, config.with_overrides(flags))
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
    logs = hashlib.sha256()
    for name, shape in bench.SHAPES.items():
        path = work / f"{name}.json"
        path.write_text(bench.synth.dumps(bench.synth.generate(shape, BENCH_SEED)), encoding="utf-8")
        scenario = load_scenario(path)
        for variant in bench.VARIANTS:
            config = bench.make_item(path, scenario, variant).config
            logs.update(orchestrate(scenario, config).log.to_jsonl().encode("utf-8"))
    return logs.hexdigest()


def test_bench_shape_run_log_digest_is_golden(tmp_path):
    assert bench_digest(tmp_path) == BENCH_GOLDEN


if __name__ == "__main__":
    # Print the tables for GOLDEN and REPORT_GOLDEN and the values of SYNTHETIC_GOLDEN
    # and BENCH_GOLDEN from the current code.
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GOLDEN = {\n")
        for case in cases():
            digest = log_digest(*case, Path(tmp) / "run.jsonl")
            sys.stdout.write(f'    "{case_id(*case)}": "{digest}",\n')
        sys.stdout.write("}\nREPORT_GOLDEN = {\n")
        for case in cases():
            sys.stdout.write(f'    "{case_id(*case)}": "{report_digest(*case)}",\n')
        sys.stdout.write("}\n")
        sys.stdout.write(f'SYNTHETIC_GOLDEN = "{synthetic_digest()}"\n')
        sys.stdout.write(f'BENCH_GOLDEN = "{bench_digest(Path(tmp))}"\n')
