"""Size sweep of the run loop: how load and orchestrate time grow with task count.

    python3 tools/sweep.py --repo . --label change --out BENCH.json
    python3 tools/sweep.py --repo ../parent --label parent --out BENCH.json

For each shape and size it generates a scenario with `perfbench/synth.py`
from the shape in `perfbench/run.py` `SHAPES`, scaled with `Shape.scaled`,
and records:

- `load_s`: `load_scenario` of the written file;
- `parse_s`: `json.loads` of the file's text, with the collector paused as
  `load_scenario` pauses it, so `load_s / parse_s` is the ingest ratio;
- `orchestrate_s`: `orchestrate` of the loaded scenario, configured as the
  benchmark configures its full variant;
- `to_jsonl_s`: `RunLog.to_jsonl` of the run's log;
- `report_s`, `report_raw_s`, `report_repeats`: `build_report` of that log,
  the end-of-run pass that recomputes the report from the log, with the
  collector paused as `Orchestrator.run` pauses it around that call;
- `write_s`, `write_raw_s`, `write_repeats`: `RunLog.write` of that log over
  a file that already holds it, as a rerun of the CLI with the same `--log`
  writes it;
- `load_gc_collections`, `load_gc_s`, `load_gc_raw_s` (and the same for
  `parse`, `orchestrate` and `to_jsonl`): the cyclic
  collector's share of the timed calls, as the collections it ran per
  generation (0, 1, 2) and the seconds spent inside them, read through
  `gc.callbacks` during those same calls;
- `load_peak_bytes`, `orchestrate_peak_bytes`, `write_peak_bytes`: the
  `tracemalloc` peak of one more call (the write over the same file);
- `load_kept_bytes`: `tracemalloc`'s current size once that load returns,
  with the scenario still held: what the loaded scenario keeps.

Timings are medians over repeats, scaled to nominal host speed by
`perfbench/reference.py` as the benchmark scales its own (the raw medians are
kept beside them). Each size runs in a child interpreter that imports the
package from `<repo>/src` and the perfbench modules from `<repo>/perfbench`,
so one copy of this script measures any checkout, parent or change. A child
that runs past `CAP_S` seconds is stopped and its size recorded as skipped; the
cap covers the whole child (generation, every load and orchestrate repeat and
the traced run), not one orchestrate.
Each run names the code it measured: the checkout's git `commit` and whether
it is `dirty` (null outside a git work tree, as in a `git archive` copy), and
`src_digest`, a sha256 over the files of `<repo>/src`, which a copy outside
git has too.
The output file keeps the runs of other labels, so two calls with different
labels fill one file. Nothing under `perfbench/` is written.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# fanout_revise at 10^4 tasks is ~100 MB of JSON, so it stops at 10^3.
DEFAULT_SIZES = {"deep_dag": (100, 1000, 10000), "fanout_revise": (100, 1000)}
SEED = 1  # the generator seed of every size, as in the bench-shape golden digest
REPEATS = 5
BUDGET_S = 2.0  # stop repeating an operation once its runs add up to this
CAP_S = 120.0  # seconds one size's child may take before the size is recorded as skipped


def seconds_of(fn: Callable[[], object]) -> float:
    """Seconds `fn()` takes.

    The result is dropped only after the clock stops: the CLI keeps what it
    loads and runs until it exits, so no reading includes freeing it.
    """
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    del result
    return elapsed


def measure(repo: Path, shape_name: str, tasks: int, work: Path) -> dict:
    """One size, in this interpreter: the numbers of one `sizes` row."""
    sys.path.insert(0, str(repo / "perfbench"))
    import run  # puts <repo>/src first on sys.path and imports the package from there
    import synth
    from reference import Scaler
    from taskweave._collector import collector_paused
    from taskweave.metrics import build_report
    from taskweave.orchestrator import orchestrate
    from taskweave.scenario import load_scenario

    path = work / f"{shape_name}-{tasks}.json"
    path.write_text(synth.dumps(synth.generate(run.SHAPES[shape_name].scaled(tasks), SEED)), encoding="utf-8")
    scaler = Scaler()

    def sample(fn) -> tuple[float, float, float, float, list[int]]:
        """One call of `fn`: its scaled and raw seconds, and the collector's scaled and raw
        seconds and collections per generation inside it."""
        collections = [0, 0, 0]
        inside = started = 0.0

        def callback(phase: str, info: dict) -> None:
            nonlocal inside, started
            if phase == "start":
                started = time.perf_counter()
            else:
                inside += time.perf_counter() - started
                collections[info["generation"]] += 1

        def op() -> float:
            gc.callbacks.append(callback)
            try:
                return seconds_of(fn)
            finally:
                gc.callbacks.remove(callback)

        scaled, raw = scaler.wrap(op)()
        return scaled, raw, inside * scaled / raw, inside, collections

    def timed(name: str, fn) -> dict:
        """Median time of up to REPEATS calls of `fn`, fewer once they add up to BUDGET_S, and
        the collector's work inside the same calls."""
        samples = []
        while len(samples) < REPEATS and sum(s[1] for s in samples) < BUDGET_S:
            samples.append(sample(fn))
        return {
            f"{name}_s": statistics.median(s[0] for s in samples),
            f"{name}_raw_s": statistics.median(s[1] for s in samples),
            f"{name}_repeats": len(samples),
            f"{name}_gc_s": statistics.median(s[2] for s in samples),
            f"{name}_gc_raw_s": statistics.median(s[3] for s in samples),
            f"{name}_gc_collections": [statistics.median(s[4][g] for s in samples) for g in range(3)],
        }

    def peak(name: str, fn, kept: bool = False) -> dict[str, int]:
        tracemalloc.start()
        try:
            result = fn()  # held while the sizes are read
            current, highest = tracemalloc.get_traced_memory()
            return {f"{name}_peak_bytes": highest, **({f"{name}_kept_bytes": current} if kept else {})}
        finally:
            tracemalloc.stop()

    # Each reading holds only what the CLI holds at that point: no second
    # scenario during the load, no run log during the orchestrate.
    load = partial(load_scenario, path)
    row = {**timed("load", load), **peak("load", load, kept=True)}
    row.update(timed("parse", collector_paused(partial(json.loads, path.read_text(encoding="utf-8")))))
    scenario = load()
    config = run.make_item(path, scenario, "full").config
    run_once = partial(orchestrate, scenario, config)
    row.update(timed("orchestrate", run_once), **peak("orchestrate", run_once))
    log = run_once().log
    row.update(timed("to_jsonl", log.to_jsonl))
    report = timed("report", collector_paused(partial(build_report, log, scenario)))
    row.update((key, report[key]) for key in ("report_s", "report_raw_s", "report_repeats"))
    written = work / f"{shape_name}-{tasks}.jsonl"
    log.write(written)
    write = timed("write", partial(log.write, written))
    row.update((key, write[key]) for key in ("write_s", "write_raw_s", "write_repeats"))
    row.update(peak("write", partial(log.write, written)))
    for made in (path, written):
        made.unlink()
    return row


def git_state(repo: Path) -> dict:
    """The checkout's HEAD commit and whether tracked files differ from it."""
    try:
        head = subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(repo), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(status.strip())}


def src_digest(repo: Path) -> str:
    """sha256 over each `*.py` and `*.json` file under `<repo>/src`, in sorted path order: its
    path relative to `src`, its length and its bytes."""
    src = repo / "src"
    digest = hashlib.sha256()
    for name in sorted(path.relative_to(src).as_posix() for glob in ("*.py", "*.json") for path in src.rglob(glob)):
        data = (src / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


def sweep(repo: Path, sizes: dict[str, tuple[int, ...]], cap: float, work: Path) -> dict:
    """Every size of every shape, each in a child interpreter stopped after `cap` seconds."""
    out: dict[str, dict] = {}
    for shape_name, counts in sizes.items():
        rows: dict[str, dict] = {}
        for tasks in counts:
            argv = [
                sys.executable, str(Path(__file__).resolve()), "--child",
                "--repo", str(repo), "--work", str(work),
                "--size", f"{shape_name}={tasks}",
            ]
            try:
                done = subprocess.run(argv, capture_output=True, text=True, timeout=cap)
            except subprocess.TimeoutExpired:
                rows[str(tasks)] = {"skipped": f"over the {cap:g} s cap"}
                print(f"{shape_name} {tasks}: skipped, over the {cap:g} s cap", file=sys.stderr)
                continue
            if done.returncode != 0:
                raise RuntimeError(f"{shape_name} at {tasks} tasks failed:\n{done.stderr}")
            rows[str(tasks)] = json.loads(done.stdout)
            print(f"{shape_name} {tasks}: {rows[str(tasks)]}", file=sys.stderr)
        measured = [(int(n), row) for n, row in rows.items() if "skipped" not in row]
        growth = {
            f"{small}->{big}": big_row["orchestrate_s"] / small_row["orchestrate_s"]
            for (small, small_row), (big, big_row) in zip(measured, measured[1:])
        }
        out[shape_name] = {"sizes": rows, "orchestrate_growth": growth}
    return out


def parse_sizes(values: list[str]) -> dict[str, tuple[int, ...]]:
    sizes: dict[str, list[int]] = {}
    for value in values:
        name, _, tasks = value.partition("=")
        sizes.setdefault(name, []).append(int(tasks))
    return {name: tuple(counts) for name, counts in sizes.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--label", default="change", help="key of this run in the output file")
    parser.add_argument("--out", type=Path, help="JSON file to write or update")
    parser.add_argument("--size", action="append", default=[], metavar="SHAPE=TASKS",
                        help="a shape of perfbench SHAPES and a task count; repeat for more (default: the sweep)")
    # a child measures one size and writes its scenario under the parent's --work directory
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    sizes = parse_sizes(args.size) if args.size else DEFAULT_SIZES

    if args.child:
        ((shape_name, (tasks,)),) = sizes.items()
        json.dump(measure(repo, shape_name, tasks, args.work), sys.stdout)
        return 0

    if args.out is None:
        parser.error("--out is required")
    with tempfile.TemporaryDirectory() as work:
        shapes = sweep(repo, sizes, CAP_S, Path(work))
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        **git_state(repo),
        "src_digest": src_digest(repo),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "seed": SEED,
        "cap_s": CAP_S,
        "shapes": shapes,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
