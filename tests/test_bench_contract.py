"""The benchmark's hooks into the package resolve.

`perfbench/tracer.py` imports the package and patches the names it lists in
TARGETS and COUNTED from outside, and `perfbench/run.py` imports it even for
untraced runs. A refactor that deletes or renames one of those names fails
here instead of breaking the benchmark at import.
"""

from __future__ import annotations

import importlib.util

from conftest import REPO_ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves():
    tracer = load_tracer()
    hooks = tracer.TARGETS + tracer.COUNTED
    missing = [name for name, owner, attr in hooks if not callable(getattr(owner, attr, None))]
    assert missing == []
