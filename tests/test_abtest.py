"""tools/abtest.py with a fake benchmark runner: the run order, the trees, their provenance and the statistics."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

spec = importlib.util.spec_from_file_location("abtest", REPO_ROOT / "tools" / "abtest.py")
abtest = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = abtest
spec.loader.exec_module(abtest)


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    """A repository of two commits, `parent` and `change`, whose `src/` differ."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    git(repo, "init", "-q")
    for label in ("parent", "change"):
        (repo / "src" / "m.py").write_text(f"SIDE = {label!r}\n", encoding="utf-8")
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", label)
        git(repo, "tag", label)
    return repo


# per side, the cli_run_s of pairs 0..9: the change is lower in 9 of the 10
PARENT = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 0.8]
CHANGE = [0.9, 1.0, 0.8, 0.9, 1.1, 0.9, 0.85, 0.95, 0.9, 0.85]


class FakeRunner:
    def __init__(self):
        self.calls = []

    def __call__(self, tree, workload, seed, seconds):
        side = (tree / "src" / "m.py").read_text(encoding="utf-8").split("'")[1]
        self.calls.append((tree, side, workload, seed, seconds))
        pair = seed - 100
        value = (PARENT if side == "parent" else CHANGE)[pair]
        return {"correct": True, "attempted": 7, "failed": 0,
                "metrics": {"cli_run_s": {"value": value, "unit": "s"}, "peak_rss_mb": {"value": 10.0, "unit": "MB"}}}


def test_pairs_run_abba_in_equal_length_trees_and_are_summarized(repo, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    runner, out = FakeRunner(), tmp_path / "bench.json"
    argv = ["parent", "change", "--workload", "canonical_sweep", "--pairs", "10", "--seconds", "50", "--seed", "100",
            "--repo", str(repo), "--out", str(out), "--work", str(tmp_path / "work")]
    assert abtest.main(argv, runner) == 0

    # ABBA: the parent first in even pairs; both runs of a pair share one seed
    assert [side for _, side, *_ in runner.calls] == ["parent", "change", "change", "parent"] * 5
    assert [seed for *_, seed, _ in runner.calls] == [100 + i // 2 for i in range(20)]
    assert {(workload, seconds) for _, _, workload, _, seconds in runner.calls} == {("canonical_sweep", 50.0)}
    trees = {side: tree for tree, side, *_ in runner.calls}
    assert len(str(trees["parent"])) == len(str(trees["change"]))
    assert trees["parent"].parent == trees["change"].parent

    (result,) = json.loads(out.read_text(encoding="utf-8"))["sets"]
    for side in ("parent", "change"):
        assert result["trees"][side] == {
            "ref": side, "commit": git(repo, "rev-parse", side), "tree": git(repo, "rev-parse", f"{side}^{{tree}}"),
            "src_digest": abtest.src_digest(trees[side]),
        }
    assert result["trees"]["parent"]["src_digest"] != result["trees"]["change"]["src_digest"]
    assert result["python"] == platform.python_version()
    assert result["PYTHONDONTWRITEBYTECODE"] == "1"
    assert result["aa"] is False
    assert [pair["parent"]["cli_run_s"] for pair in result["pairs"]] == PARENT
    assert [pair["change"]["cli_run_s"] for pair in result["pairs"]] == CHANGE

    summary = result["summary"]["cli_run_s"]
    assert summary["change_lower_in"] == "9/10"
    assert summary["sign_test_p"] == pytest.approx(2 * 11 / 1024)
    assert summary["parent"] == pytest.approx({"q1": 0.9625, "median": 1.0, "q3": 1.0375})
    assert summary["parent_iqr"] == pytest.approx(0.075)
    assert summary["change"]["median"] == pytest.approx(0.9)
    assert summary["median_ratio_change_over_parent"] == pytest.approx(0.9)
    assert summary["median_gap_exceeds_parent_iqr"] is True
    assert summary["pair_ratios"] == pytest.approx([c / p for p, c in zip(PARENT, CHANGE)])
    rss = result["summary"]["peak_rss_mb"]  # all ties: no pair counts, and the p-value is 1
    assert (rss["change_lower_in"], rss["sign_test_p"], rss["median_gap_exceeds_parent_iqr"]) == ("0/10", 1.0, False)


def test_an_aa_set_runs_the_parent_on_both_sides_and_adds_to_the_file(repo, tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"sets": [{"earlier": True}]}), encoding="utf-8")
    runner = FakeRunner()
    argv = ["parent", "change", "--workload", "deep_dag", "--pairs", "2", "--seconds", "1", "--seed", "100",
            "--repo", str(repo), "--out", str(out), "--aa"]
    assert abtest.main(argv, runner) == 0
    assert {side for _, side, *_ in runner.calls} == {"parent"}
    assert not any(os.path.exists(tree) for tree, *_ in runner.calls)  # the temporary trees are removed
    earlier, result = json.loads(out.read_text(encoding="utf-8"))["sets"]
    assert earlier == {"earlier": True}
    assert result["aa"] is True
    assert result["trees"]["parent"] == result["trees"]["change"]


def test_a_tree_id_is_a_ref_with_no_commit(repo, tmp_path):
    tree = git(repo, "rev-parse", "change^{tree}")
    out = tmp_path / "bench.json"
    argv = ["parent", tree, "--workload", "deep_dag", "--pairs", "1", "--seconds", "1", "--seed", "100",
            "--repo", str(repo), "--out", str(out)]
    assert abtest.main(argv, FakeRunner()) == 0
    (result,) = json.loads(out.read_text(encoding="utf-8"))["sets"]
    assert result["trees"]["change"]["commit"] is None
    assert result["trees"]["change"]["tree"] == tree


@pytest.mark.parametrize(
    "lower,higher,p", [(0, 0, 1.0), (5, 5, 1.0), (10, 0, 2 / 1024), (0, 10, 2 / 1024), (8, 2, 112 / 1024)]
)
def test_the_sign_test_is_exact_and_two_sided(lower, higher, p):
    assert abtest.sign_test_p(lower, higher) == pytest.approx(p)
