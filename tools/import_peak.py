"""Peak resident memory of a fresh `import taskweave.cli` from source, module by module.

    python3 tools/import_peak.py [--src PATH]

The benchmark runs the package from `src/` with `PYTHONDONTWRITEBYTECODE=1`
in a tree with no `__pycache__`, so each of its processes compiles every
module of the package before it runs anything. This script shows what that
compile costs in the process's peak resident memory, VmHWM in
`/proc/self/status` (Linux only).

A first interpreter, run with `-X importtime`, gives the order in which
`import json, argparse, taskweave.cli` finishes loading each `taskweave`
module: dependencies first, then the package itself, then `taskweave.cli`. A
second fresh interpreter, with `-B` so it writes no bytecode, then imports
`json`, `argparse` and each of those modules in that order, one step at a
time, and reads VmHWM after each step. It compiles every module of `src/` from
its source and reads no `__pycache__`; the package's `__init__` runs at its own
step, so every other step compiles one module of the package (and whatever
standard-library modules that module is the first to import).

Each output line is a step, the VmHWM after it and its growth in kB. A step
that grows the peak by much is one whose compile or import needs more memory
at once than any step before it; the last line's VmHWM is the whole import's
peak. Growth of 0 does not mean a step is free: it fit under the peak already
reached. A warning goes to stderr if `src/` holds a `__pycache__`: this script
ignores it, but a plain run from that tree would read it and peak lower.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIRST = ("json", "argparse")  # what every command needs before the package

# Imports `sys.argv[2:]` in order and prints each step's name and VmHWM in kB.
CHILD = """
import importlib, importlib.machinery as machinery, importlib.util, sys

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

class Source(machinery.SourceFileLoader):
    def get_code(self, fullname):  # from the source, never from __pycache__
        return self.source_to_code(self.get_data(self.path), self.path)

def hook(path):
    if not (path + "/").startswith(sys.argv[1] + "/"):
        raise ImportError(path)
    return machinery.FileFinder(path, (Source, machinery.SOURCE_SUFFIXES))

print("python", peak())
sys.path.insert(0, sys.argv[1])
sys.path_hooks.insert(0, hook)
sys.path_importer_cache.clear()
spec = importlib.util.find_spec("taskweave")
package = sys.modules["taskweave"] = importlib.util.module_from_spec(spec)  # its __init__ runs at its own step
for name in sys.argv[2:]:
    if name == "taskweave":
        spec.loader.exec_module(package)
    else:
        importlib.import_module(name)
    print(name, peak())
"""


def load_order(src: Path) -> list[str]:
    """The `taskweave` modules in the order `import taskweave.cli` finishes loading them."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import {', '.join(FIRST)}, taskweave.cli"
    done = subprocess.run([sys.executable, "-B", "-X", "importtime", "-c", code], capture_output=True, text=True,
                          check=True)
    names = [line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")]
    return [name for name in names if name == "taskweave" or name.startswith("taskweave.")]


def steps(src: Path) -> list[tuple[str, int]]:
    """(step, VmHWM in kB after it), from a fresh interpreter's start to `taskweave.cli`."""
    argv = [sys.executable, "-B", "-c", CHILD, str(src), *FIRST, *load_order(src)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return [(name, int(kb)) for name, kb in (line.split() for line in done.stdout.splitlines())]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory that holds the package (default: src/)")
    src = parser.parse_args(argv).src.resolve()
    if any(src.rglob("__pycache__")):
        print(f"warning: {src} holds a __pycache__; a plain run from it reads that bytecode", file=sys.stderr)
    print(f"{'step':<24} {'VmHWM kB':>9} {'growth kB':>10}")
    before = None
    for name, kb in steps(src):
        print(f"{name:<24} {kb:>9} {'' if before is None else f'{kb - before:+d}':>10}")
        before = kb
    return 0


if __name__ == "__main__":
    sys.exit(main())
