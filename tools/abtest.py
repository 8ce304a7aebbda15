"""A/B test of the benchmark between two git refs: ABBA pairs of `perfbench/run.py` runs.

    python3 tools/abtest.py PARENT CHANGE --workload canonical_sweep --pairs 10 --seconds 50 \\
        --seed 30 --out BENCH.json [--aa]

`git archive` writes each ref's committed files into its own directory, two
siblings whose paths have equal length (`parent` and `change`), so neither
side's paths are longer than the other's. A ref may be any tree-ish git
accepts: a commit, a branch, or the tree id `git write-tree` gives of what is
staged. With `--aa` the change side is a second copy of PARENT, which shows
the spread of a comparison with no code difference.

Pair i runs `python3 perfbench/run.py --workload W --seed S+i --seconds N
--trace 0` once in each tree, the parent first when i is even, so a drift in
the host's speed falls on both sides alike; both runs of a pair share the seed.
A run's metrics are the values of its last JSON line.

For each end-to-end metric the output keeps the per-pair values and a summary:
the quartiles of each side (`statistics.quantiles`, inclusive method), the
ratio of the medians, the count of pairs the change is lower in, the exact
two-sided sign-test p-value of that count (ties dropped), and whether the gap
between the medians exceeds the parent's interquartile range, plus each pair's
change / parent ratio. Each side also records its ref, commit (null for a
bare tree id), tree id and `src_digest` (as tools/sweep.py computes it); the
set records the Python version and `PYTHONDONTWRITEBYTECODE`. The output file
keeps the sets of earlier calls, so several calls fill one file.

Verdict rule: a metric is better or worse only if the sign test gives
p < 0.05 and the median ratio lies outside the range of median ratios that
`--aa` sets at the same workload and settings read; it is unchanged if the
ratio lies inside that range. Identical trees can read "lower" in most pairs,
so a sign count alone proves nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
from sweep import src_digest  # noqa: E402

SIDES = ("parent", "change")  # also the tree directory names, of equal length

# (tree, workload, seed, seconds) -> the last JSON line of `perfbench/run.py`
Runner = Callable[[Path, str, int, float], dict]


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`, as the benchmark runs it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def archive(repo: Path, ref: str, into: Path) -> dict:
    """Write `ref`'s files into `into`; its provenance."""
    into.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", ref], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar.stdout, check=True)

    def resolve(kind: str) -> str | None:
        argv = ["git", "-C", str(repo), "rev-parse", "--verify", "--quiet", f"{ref}^{{{kind}}}"]
        return subprocess.run(argv, capture_output=True, text=True).stdout.strip() or None

    return {"ref": ref, "commit": resolve("commit"), "tree": resolve("tree"), "src_digest": src_digest(into)}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def sign_test_p(lower: int, higher: int) -> float:
    """Exact two-sided sign-test p-value of `lower` against `higher` pairs (ties dropped)."""
    n = lower + higher
    if n == 0:
        return 1.0
    tail = sum(comb(n, i) for i in range(min(lower, higher) + 1)) / 2**n
    return min(1.0, 2 * tail)


def summarize(pairs: list[dict]) -> dict:
    """Per metric: each side's quartiles, the median ratio, the sign count and p-value, and the parent's IQR."""
    summary = {}
    for name in pairs[0]["parent"]:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        higher = sum(c > p for p, c in zip(parent, change))
        sides = {"parent": quartiles(parent), "change": quartiles(change)}
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        gap = sides["change"]["median"] - sides["parent"]["median"]
        summary[name] = {
            **sides,
            "median_ratio_change_over_parent": sides["change"]["median"] / sides["parent"]["median"]
            if sides["parent"]["median"] else None,
            "change_lower_in": f"{lower}/{len(pairs)}",
            "sign_test_p": sign_test_p(lower, higher),
            "parent_iqr": iqr,
            "median_gap_exceeds_parent_iqr": abs(gap) > iqr,
            "pair_ratios": [c / p if p else None for p, c in zip(parent, change)],
        }
    return summary


def abtest(
    repo: Path, parent_ref: str, change_ref: str, workload: str, pairs: int, seconds: float, seed: int,
    work: Path, runner: Runner = run_bench,
) -> dict:
    """`pairs` ABBA pairs in trees archived under `work`; the set's provenance, pairs and summary."""
    trees = {side: work / side for side in SIDES}
    if len(str(trees["parent"])) != len(str(trees["change"])):
        raise RuntimeError("the two trees' paths differ in length")
    refs = {"parent": parent_ref, "change": change_ref}
    provenance = {side: archive(repo, refs[side], trees[side]) for side in SIDES}
    rows = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        row: dict = {"seed": seed + i, "order": "-".join(order), "failed": {}, "attempted": {}}
        for side in order:
            result = runner(trees[side], workload, seed + i, seconds)
            row["failed"][side], row["attempted"][side] = result["failed"], result["attempted"]
            row[side] = {name: metric["value"] for name, metric in result["metrics"].items()}
        rows.append(row)
        print(f"pair {i}: {json.dumps(row)}", file=sys.stderr, flush=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "pairs_count": pairs,
        "trees": provenance,
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "summary": summarize(rows),
        "pairs": rows,
    }


def main(argv: list[str] | None = None, runner: Runner = run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT", help="git ref of the parent side")
    parser.add_argument("change", metavar="CHANGE", help="git ref of the change side")
    parser.add_argument("--workload", required=True, help="a perfbench/run.py workload")
    parser.add_argument("--pairs", type=int, required=True, help="ABBA pairs to run")
    parser.add_argument("--seconds", type=float, required=True, help="--seconds of each benchmark run")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--aa", action="store_true", help="run PARENT against a second copy of itself")
    parser.add_argument("--repo", type=Path, default=Path.cwd(), help="git repository (default: the current directory)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or add the set to")
    parser.add_argument("--work", type=Path, help="directory for the two trees (default: a temporary one, removed)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = args.work or Path(tempfile.mkdtemp(prefix="abtest-"))
    try:
        result = abtest(
            args.repo, args.parent, args.parent if args.aa else args.change, args.workload, args.pairs,
            args.seconds, args.seed, work.resolve(), runner,
        )
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    result["aa"] = args.aa
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("sets", []).append(result)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
