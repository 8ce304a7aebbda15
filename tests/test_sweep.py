"""Smoke test of the size sweep in tools/sweep.py, at sizes small enough for tier 1."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys

from conftest import REPO_ROOT

SWEEP_PATH = REPO_ROOT / "tools" / "sweep.py"

ROW_KEYS = {
    "load_s",
    "load_raw_s",
    "load_repeats",
    "orchestrate_s",
    "orchestrate_raw_s",
    "orchestrate_repeats",
    "orchestrate_peak_bytes",
    "to_jsonl_s",
    "to_jsonl_raw_s",
    "to_jsonl_repeats",
    "to_jsonl_gc_collections",
    "to_jsonl_gc_s",
    "to_jsonl_gc_raw_s",
    "write_s",
    "write_raw_s",
    "write_repeats",
    "write_peak_bytes",
    "report_s",
    "report_raw_s",
    "report_repeats",
    "load_gc_collections",
    "load_gc_s",
    "load_gc_raw_s",
    "orchestrate_gc_collections",
    "orchestrate_gc_s",
    "orchestrate_gc_raw_s",
    "load_peak_bytes",
    "load_kept_bytes",
    "parse_s",
    "parse_raw_s",
    "parse_repeats",
    "parse_gc_collections",
    "parse_gc_s",
    "parse_gc_raw_s",
}


def test_sweep_writes_every_size_of_every_shape(tmp_path):
    out = tmp_path / "bench.json"
    argv = [
        sys.executable, str(SWEEP_PATH), "--out", str(out),
        "--size", "deep_dag=8", "--size", "deep_dag=16", "--size", "fanout_revise=15",
    ]
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    # a second label joins the first in the same file
    subprocess.run([*argv[:-4], "--label", "other"], check=True, capture_output=True, timeout=120)

    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc["runs"]) == {"change", "other"}
    run = doc["runs"]["change"]
    assert {"commit", "dirty", "src_digest", "python", "machine", "seed", "cap_s", "shapes"} <= set(run)
    assert run["src_digest"] == load_sweep().src_digest(REPO_ROOT)
    assert set(run["shapes"]) == {"deep_dag", "fanout_revise"}
    assert set(run["shapes"]["deep_dag"]["sizes"]) == {"8", "16"}
    assert set(run["shapes"]["deep_dag"]["orchestrate_growth"]) == {"8->16"}
    for shape in run["shapes"].values():
        for row in shape["sizes"].values():
            assert set(row) == ROW_KEYS
            assert row["orchestrate_s"] > 0 and row["orchestrate_peak_bytes"] > 0
            assert row["to_jsonl_s"] > 0 and 0 < row["load_kept_bytes"] <= row["load_peak_bytes"]
            assert row["write_s"] > 0 and row["write_repeats"] >= 1 and row["write_peak_bytes"] > 0
            assert row["report_s"] > 0 and row["report_repeats"] >= 1
            # the load parses the same text and then builds from it
            assert 0 < row["parse_s"] < row["load_s"]
            for name in ("load", "parse", "orchestrate", "to_jsonl"):
                collections = row[f"{name}_gc_collections"]
                assert len(collections) == 3 and all(n >= 0 for n in collections)
                assert row[f"{name}_gc_s"] >= 0 and row[f"{name}_gc_raw_s"] >= 0
    assert set(doc["runs"]["other"]["shapes"]) == {"deep_dag"}


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP_PATH)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_the_source_digest_names_the_code_of_a_copy_outside_git(tmp_path):
    sweep = load_sweep()
    copies = [tmp_path / "a", tmp_path / "bb"]
    for copy in copies:
        shutil.copytree(REPO_ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    # the same code at another path has the same digest, and no commit names it
    assert sweep.src_digest(copies[0]) == sweep.src_digest(copies[1]) == sweep.src_digest(REPO_ROOT)
    assert sweep.git_state(copies[0]) == {"commit": None, "dirty": None}
    changed = copies[1] / "src" / "taskweave" / "runlog.py"
    data = bytearray(changed.read_bytes())
    data[-2] ^= 1
    changed.write_bytes(bytes(data))
    assert sweep.src_digest(copies[1]) != sweep.src_digest(copies[0])


def test_sweep_records_a_size_over_the_cap_as_skipped(tmp_path):
    sweep = load_sweep()
    shapes = sweep.sweep(REPO_ROOT, {"deep_dag": (8,)}, 0.001, tmp_path)
    assert shapes["deep_dag"]["sizes"] == {"8": {"skipped": "over the 0.001 s cap"}}


def test_a_timed_result_is_freed_after_the_clock_stops(monkeypatch):
    sweep = load_sweep()
    events = []

    class Clock:
        @staticmethod
        def perf_counter() -> float:
            events.append("clock")
            return float(len(events))

    class Result:
        def __del__(self) -> None:
            events.append("freed")

    monkeypatch.setattr(sweep, "time", Clock)
    assert sweep.seconds_of(Result) == 1.0
    assert events == ["clock", "clock", "freed"]
