"""tools/import_peak.py: a fresh import from source, one VmHWM reading per module of the package."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc/self/status")
def test_import_peak_steps_through_every_module_of_the_package_once():
    tool = REPO_ROOT / "tools" / "import_peak.py"
    done = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True, check=True, timeout=120)
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    names = [row[0] for row in rows]
    package = REPO_ROOT / "src" / "taskweave"
    modules = ["taskweave" if path.stem == "__init__" else f"taskweave.{path.stem}" for path in package.glob("*.py")]
    assert names[:3] == ["python", "json", "argparse"]
    assert sorted(names[3:]) == sorted(modules)
    assert names[-1] == "taskweave.cli"
    peaks = [int(row[1]) for row in rows]
    assert peaks == sorted(peaks)  # a high-water mark never falls
